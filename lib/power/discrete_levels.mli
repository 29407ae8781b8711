(** Discrete speed levels.

    Real DVFS processors expose a finite list of speed settings (the
    paper cites the AMD Athlon 64's 2000/1800/800 MHz table); the
    continuous model is an idealization of this.  This module quantizes
    continuous-speed solutions onto a level set using the standard
    two-adjacent-levels emulation: running the two levels bracketing the
    ideal speed for complementary fractions of the interval completes the
    same work in the same time with the least energy among discrete
    emulations (by convexity). *)

type t

val create : float list -> t
(** Build a level set from strictly positive, finite speeds; duplicates
    are dropped and levels are sorted increasing.
    @raise Invalid_argument on an empty list, or a level that is not
    positive, infinite or NaN. *)

val athlon64 : t
(** The AMD Athlon 64 levels from the paper's introduction, normalized
    to GHz: [0.8; 1.8; 2.0]. *)

val levels : t -> float array
val min_speed : t -> float
val max_speed : t -> float

val round_up : t -> float -> float option
(** Smallest level [>= s], or [None] when [s] exceeds the top level. *)

val round_down : t -> float -> float option
(** Largest level [<= s], or [None] when [s] is below the bottom level. *)

type split = { low_speed : float; low_time : float; high_speed : float; high_time : float }

val two_level_split : t -> work:float -> duration:float -> split option
(** Emulate constant speed [work/duration] over [duration] using the two
    bracketing levels: time shares solve
    [low_speed·low_time + high_speed·high_time = work] and
    [low_time + high_time = duration].  [None] when [work/duration] is
    outside the level range. *)

val split_energy : Power_model.t -> split -> float
(** Energy of a two-level split. *)

val quantization_overhead :
  Power_model.t -> t -> work:float -> duration:float -> float option
(** Relative extra energy of the best discrete emulation over the
    continuous optimum for one constant-speed segment:
    [(E_discrete - E_cont) / E_cont]. *)
