(** Numerical quadrature.

    Energy of a schedule is the integral of power over time; the
    simulator and the convex-power validators use these routines to
    cross-check the closed-form energy accounting. *)

val simpson : f:(float -> float) -> lo:float -> hi:float -> n:int -> float
(** Composite Simpson rule; [n] is rounded up to the next even count. *)

val adaptive_simpson : f:(float -> float) -> lo:float -> hi:float -> ?eps:float -> ?max_depth:int -> unit -> float
(** Adaptive Simpson with absolute tolerance [eps] (default [1e-10]). *)

val piecewise_constant : (float * float * float) list -> float
(** [piecewise_constant segs] integrates a step function given as
    [(t0, t1, value)] segments: [sum (t1 - t0) * value].
    @raise Invalid_argument if any segment has [t1 < t0]. *)
