(** Piecewise-constant speed functions of time.

    The model's processor speed is an arbitrary function of time whose
    integral is completed work; every algorithm in this library emits
    piecewise-constant profiles (justified by Lemma 2: optimal schedules
    run each job at one speed), so this representation is lossless.

    Profiles come from {!Schedule.profile_of_proc} or directly from
    {!of_segments}, and feed {!energy}, the thermal model ([Thermal])
    and the simulator's processor replay. *)

type segment = { t0 : float; t1 : float; speed : float }
(** Constant speed [speed] on the half-open interval [[t0, t1)].
    Invariants (checked by {!of_segments}): [t0 <= t1],
    [speed >= 0.], all fields finite. *)

type t
(** Invariant: segments sorted by start time and pairwise
    non-overlapping.  Gaps are implicit idle time (speed 0). *)

val of_segments : segment list -> t
(** [of_segments segs] sorts by start time and validates.
    @raise Invalid_argument when segments have [t1 < t0], negative
    speed, or overlap. *)

val segments : t -> segment list
(** In time order. *)

val speed_at : t -> float -> float
(** [speed_at t x] is the speed at time [x] (0 outside all segments;
    at a shared boundary the later segment wins). *)

val work : t -> float
(** Total work = integral of speed over time. *)

val work_between : t -> float -> float -> float
(** [work_between t a b] is the work completed in the window
    [[a, b]]; 0 when [b <= a]. *)

val energy : Power_model.t -> t -> float
(** Integral of power over time: sum over segments of
    [P(speed) · (t1 − t0)] under the given power model. *)

val duration : t -> float
(** Total busy time (sum of segment lengths), excluding idle gaps. *)

val span : t -> (float * float) option
(** Earliest start and latest end, [None] when empty. *)

val append : t -> segment -> t
(** [append t seg] adds a segment that must start no earlier than the
    current end — an O(1) builder for simulators emitting segments in
    time order.
    @raise Invalid_argument when [seg] starts before the current
    end or violates the {!segment} invariants. *)
