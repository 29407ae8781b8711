(** All non-dominated schedules for uniprocessor makespan (§3.2).

    A slight modification of IncMerge enumerates every optimal
    configuration (division into blocks) by starting from an infinite
    energy budget and lowering it: within one configuration only the
    last block's speed varies with energy, so the makespan/energy curve
    is a closed-form arc per configuration, and configurations change at
    the budgets where the last two blocks merge.  The curve is
    continuous with continuous first derivative (for [speed^α] power);
    higher derivatives jump at the breakpoints — exactly the paper's
    Figures 1–3. *)

type segment = {
  prefix_len : int;
      (** number of settled non-last blocks (a prefix of the shared
          window-block array; materialize with {!prefix}) *)
  e_fixed : float;  (** energy consumed by the prefix *)
  last_first : int;  (** first job index of the varying last block *)
  last_work : float;
  last_start : float;
  e_min : float;  (** budget at which the last two blocks merge (0 for the final configuration) *)
  e_max : float;  (** upper end of validity, [infinity] for the first configuration *)
}

type t

val build : Power_model.t -> Instance.t -> t
(** Enumerate all configurations.  Linear in [n] once sorted: every
    configuration shares one window-block array, and prefix work/energy
    sums ({!Incmerge.prefix_sums_fa}) price each split in O(1). *)

val breakpoints : t -> float list
(** Budgets at which the optimal configuration changes, increasing
    (for the paper's Figure-1 instance: [8; 17]). *)

val makespan_at : t -> float -> float
(** The minimum makespan achievable with the given budget: the
    Figure 1 curve. *)

val deriv1_at : t -> float -> float
(** dM/dE (Figure 2).  Analytic for α-models, central difference
    otherwise.  At a breakpoint the two one-sided values agree (the
    curve is C¹). *)

val deriv2_at : t -> float -> float
(** d²M/dE² (Figure 3); discontinuous at breakpoints — the value of the
    configuration in force at energies [<= e] is returned. *)

exception Infeasible_target of { target : float; infimum : float }
(** A makespan target at or below {!min_makespan_limit}: unreachable
    even with unbounded energy.  Typed (rather than
    [Invalid_argument]) so supervisors can classify it as an
    infeasible {e problem} instead of malformed input. *)

val energy_for_makespan : t -> float -> float
(** The server problem: the least energy achieving a target makespan.
    @raise Infeasible_target when the target is below the infimum. *)

val schedule_at : t -> float -> Schedule.t
(** Optimal schedule at a budget; agrees with {!Incmerge.solve}. *)

val sample : ?jobs:int -> t -> lo:float -> hi:float -> n:int -> (float * float) list
(** [(energy, makespan)] pairs on an even grid, for plotting.  Points
    are evaluated through {!Par} ([?jobs] domains, default
    {!Par.default_jobs}); the grid and every result are independent of
    [jobs]. *)

val min_makespan_limit : t -> float
(** Infimum of achievable makespans as energy grows without bound (the
    start time of the first configuration's last block). *)

val min_energy_delay : ?delay_exponent:float -> t -> float * float
(** The energy–delay-product family: the budget minimizing
    [E · M(E)^k] where [k] is [delay_exponent] (EDP is [k = 1], ED²P is
    [k = 2]).  Since neither axis is fixed, this picks one point on the
    non-dominated curve — the practical answer to "which trade-off
    should I run at?".

    The curve's energy-elasticity of makespan never exceeds
    [1/(α−1)], so the objective has an interior optimum only when
    [k > α−1] (e.g. ED²P needs [α < 3]); otherwise slowing down always
    wins and the search returns the low edge of its bracket — a real
    property of the α-model, not a solver artifact.  Found by a coarse
    logarithmic scan refined by golden-section search (verified against
    dense scans in the tests).  Returns [(energy, objective)].
    @raise Invalid_argument on an empty frontier or a non-positive
    exponent. *)
