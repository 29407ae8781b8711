(** Power-aware makespan with precedence constraints — the related-work
    problem of Pruhs, van Stee and Uthaisombut (§2): jobs form a DAG,
    all released at time 0, on [m] processors with a shared energy
    budget and [power = speed^α].  Their O(log^(1+2/α) m)-approximation
    rests on the "power equality" (total power constant over time in an
    optimal schedule); the technique needs common releases, which is why
    the paper's own setting (release dates) cannot reuse it.

    This module provides the practical layer: Graham list scheduling at
    a common speed (closed-form optimal speed for the budget), a
    critical-path-aware per-task speed heuristic in the spirit of the
    power equality, and the two lower bounds every schedule obeys
    (critical-path chain and total-work/m).  The heuristics are
    validated against the bounds and against each other in the tests —
    no approximation factor is claimed beyond what is measured. *)

type task_schedule = { task : int; proc : int; start : float; speed : float }

type t = {
  tasks : task_schedule list;  (** in start order *)
  makespan : float;
  energy : float;
}

val uniform : alpha:float -> m:int -> energy:float -> Dag.t -> t
(** Every task at the single speed that exhausts the budget
    ([σ = (E/W)^(1/(α−1))]); the list-scheduled makespan follows. *)

val critical_boost : alpha:float -> m:int -> energy:float -> ?rounds:int -> Dag.t -> t
(** Iterative heuristic: speeds proportional to a power of each task's
    criticality (heaviest path through it), rescaled to the budget each
    round — a discrete cousin of the power equality.  Returns the best
    of the rounds and the uniform baseline. *)

val lower_bound : alpha:float -> m:int -> energy:float -> Dag.t -> float
(** [max] of the chain bound [W_cp^(α/(α−1)) · E^(−1/(α−1))] and the
    load bound [((W/m)^α · m / E)^(1/(α−1))]. *)

val feasible : Dag.t -> m:int -> t -> bool
(** Precedences respected, processors never run two tasks at once, all
    tasks scheduled. *)
