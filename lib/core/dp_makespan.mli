(** Quadratic dynamic-programming baseline for the uniprocessor laptop
    problem — the algorithm the paper's §3.1 sketches before improving
    it to the linear IncMerge.

    The DP searches all feasible divisions of the jobs into blocks
    (non-last blocks pinned to end at the next release, Lemma 4), taking
    the minimum-energy prefix for every possible start of the last
    block.  Optimal schedules lie in this family by Lemmas 2–5, so the
    result equals IncMerge's — the test suite uses this as the oracle.
    Transitions are quadratic; the naive per-block release-feasibility
    check makes the worst case cubic, which is fine for a baseline. *)

val solve : Power_model.t -> energy:float -> Instance.t -> Schedule.t
(** @raise Invalid_argument when [energy <= 0] on a non-empty instance. *)

val makespan : Power_model.t -> energy:float -> Instance.t -> float
