(** Multiprocessor total flow for equal-work jobs (§5).

    Theorem 10 applies (total flow is symmetric and non-decreasing), so
    the cyclic distribution is optimal; the paper's second observation —
    every processor's last job runs at the same speed in a non-dominated
    schedule — couples the per-processor PUW subproblems through a
    single shared parameter [s], giving the arbitrarily-good
    approximation of the paper by one-dimensional search. *)

type solution = {
  last_speed : float;
  per_proc : Flow.solution array;  (** indexed by processor *)
  flow : float;
  energy : float;
}

val solve_budget : ?eps:float -> alpha:float -> m:int -> energy:float -> Instance.t -> solution

val schedule : m:int -> Instance.t -> solution -> Schedule.t

val brute_flow : alpha:float -> m:int -> energy:float -> Instance.t -> float
(** Exhaustive minimum over all assignments (small [n] only), each
    optimized through the same shared-last-speed coupling — the oracle
    that certifies Theorem 10's cyclic claim in the tests.
    @raise Invalid_argument when [n > 9]. *)
