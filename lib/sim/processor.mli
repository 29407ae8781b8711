(** Mutable state of one simulated DVFS processor.

    Tracks the running speed profile, accumulated energy (including
    speed-switch overhead, the §6 future-work cost the continuous model
    ignores) and the time the processor becomes free. *)

type t

val create : ?switch_time:float -> ?switch_energy:float -> Power_model.t -> int -> t
(** [create model id] with optional per-transition costs: the processor
    stalls [switch_time] and burns [switch_energy] whenever it changes
    speed between two work segments.
    @raise Invalid_argument on a negative, infinite or NaN overhead. *)

val check_overhead : switch_time:float -> switch_energy:float -> unit
(** The overhead check of [create], for simulators that keep their own
    processor state.
    @raise Invalid_argument on a negative, infinite or NaN overhead. *)

val energy : t -> float
val switches : t -> int
(** Number of speed transitions that incurred overhead. *)

val run : t -> start:float -> work:float -> speed:float -> float * float
(** [run p ~start ~work ~speed] executes a constant-speed segment no
    earlier than [start] (later if the processor is busy or paying a
    switch penalty); returns [(actual_start, completion)].
    @raise Invalid_argument on non-positive speed or negative work. *)

val run_split : t -> start:float -> split:Discrete_levels.split -> float * float
(** Execute a two-level emulation segment (both sub-segments, one switch
    between them plus the entry switch if the speed changed). *)

val profile : t -> Speed_profile.t
(** The executed profile so far. *)
