(** The energy/flow trade-off curve for equal-work uniprocessor flow.

    Unlike the makespan frontier (closed-form arcs, {!Frontier}),
    Theorem 8 rules out exact representations here: the curve is traced
    {e parametrically} in the last-job speed [s], which requires no root
    finding at all — each [s] maps to one (energy, flow) point of the
    optimal family.  This realizes the paper's remark that the PUW
    approach can plot the tradeoff, with the boundary-configuration
    stretches (where a job completes exactly at the next release) filled
    by the same parametric machinery.

    Point evaluations fan out across domains via {!Par} ([?jobs],
    default {!Par.default_jobs}); results are bit-identical for every
    [jobs] value because the grids and warm-start chains are fixed
    functions of the arguments alone. *)

type point = { last_speed : float; energy : float; flow : float }

val sweep :
  ?jobs:int -> alpha:float -> Instance.t -> s_lo:float -> s_hi:float -> n:int -> point list
(** Sample the optimal family at [n] geometrically spaced speeds; the
    first and last grid points are exactly [s_lo] and [s_hi].
    @raise Invalid_argument unless [0 < s_lo < s_hi] and [n >= 2]. *)

val curve :
  ?jobs:int -> alpha:float -> Instance.t -> e_lo:float -> e_hi:float -> n:int ->
  (float * float) list
(** [(energy, flow)] points on an even energy grid, each solved by
    {!Flow.solve_budget}.  Points are evaluated in fixed-width chunks;
    within a chunk each solve warm-starts from its predecessor's last
    speed, which cuts the Newton iteration count below cold per-point
    solves (use {!sweep} when the parametrization is acceptable — it
    needs no root finding at all). *)
