(** Total flow for equal-work jobs on a uniprocessor — the setting of
    Pruhs, Uthaisombut and Woeginger [PUW04] that §4 of the paper builds
    on.

    Jobs run in release order (w.l.o.g. for equal work); in the optimal
    schedule each job has one speed, and Theorem 1 ties the speeds
    together through the busy-run structure: within a maximal busy run
    [σ_i^α = σ_(i+1)^α + σ_n^α]; a job followed by a gap runs at the
    last job's speed [σ_n]; a job finishing exactly at the next release
    is pinned between the two.

    The solver is parametrized by [s = σ_n].  For fixed [s] the
    configuration is unique and is found by a forward merge pass
    (analogous to IncMerge): each job starts its own run; a run whose
    relaxed completion passes the next release is pinned to it; a pinned
    run whose end speed exceeds the Theorem 1 upper bound merges with
    its successor.  Energy is strictly increasing in [s], so the laptop
    problem is a one-dimensional root find — this realizes the
    "arbitrarily good approximation" of [PUW04], and Theorem 8 shows the
    remaining gap to exactness is essential.

    Only [power = speed^α] models are supported (Theorem 1 is specific
    to them); use {!Flow_convex} for general convex power functions or
    unequal works. *)

type run = {
  first : int;
  last : int;
  pinned : bool;  (** completes exactly at the next job's release *)
  end_speed : float;  (** speed of the run's last job ([s] when not pinned) *)
}

type solution = {
  last_speed : float;  (** the parameter [s = σ_n] *)
  runs : run list;
  speeds : float array;  (** per job, release order *)
  completions : float array;
  flow : float;
  energy : float;
}

val solve_for_last_speed : alpha:float -> Instance.t -> float -> solution
(** The unique Theorem 1-consistent schedule with the given last-job
    speed.  @raise Invalid_argument unless the instance has equal work,
    [alpha > 1] and the speed is positive. *)

val solve_budget :
  ?eps:float -> ?warm:float -> alpha:float -> energy:float -> Instance.t -> solution
(** Laptop problem: minimize total flow within the energy budget.
    Every job runs at least at [s], so [energy(s) >= n w s^(alpha-1)]
    and [s0 = (E / (n w))^(1/(alpha-1))] bounds the root from above:
    [(0, 2 s0)] is a bracket before any evaluation.  One safeguarded
    Newton on [t = s / s0] over that bracket, with [dE/ds] from the
    same evaluation as the energy, finds the root; its step test
    ([eps], default 1e-12) is relative to [s], so the energy matches
    the budget to relative [eps] at every scale.  [?warm] starts the
    iteration from a known last speed — typically [last_speed] of the
    solution for a nearby budget, as when sweeping a Pareto curve —
    instead of [s0]; since energy is strictly increasing in [s] the
    result is the same root, found in fewer iterations.  A [warm]
    outside [(0, 2 s0)] (non-positive or non-finite included) is
    ignored.  Each pinned window's inner Newton starts from that
    window's root at the previous evaluation of the same call.

    Where [s0^alpha] leaves the float range (at huge or tiny budgets)
    the instance is solved with work and speeds scaled by a power of
    two, which leaves durations, completions and flow unchanged and
    scales energy by a known factor, and the result is mapped back.
    @raise Invalid_argument when the budget is not positive, under
    the conditions of {!solve_for_last_speed}, or when the optimal
    schedule's work or speeds leave the normal float range (the
    message names the budget). *)

val solve_flow_target : ?eps:float -> alpha:float -> flow:float -> Instance.t -> solution
(** Server problem: least energy whose optimal flow meets the target.
    @raise Invalid_argument when the target is below the infimum flow
    (sum of work-over-infinite-speed terms, i.e. not achievable). *)

val schedule : Instance.t -> solution -> Schedule.t

val theorem1_holds : ?tol:float -> alpha:float -> Instance.t -> solution -> bool
(** Checks every adjacent pair against the three Theorem 1 relations —
    the paper's characterization of flow-optimal schedules. *)
