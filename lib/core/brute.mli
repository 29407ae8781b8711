(** Exponential brute-force search over block partitions — the ground
    truth for small instances.

    Enumerates all 2^(n−1) divisions of the job sequence into
    consecutive blocks, prices non-last blocks at their forced window
    speed, gives the remaining budget to the last block, filters by
    release feasibility, and returns the best makespan.  Only the
    structural Lemmas 2–4 (single speed per job, release order, no
    idle) are assumed — notably {e not} Lemma 6 — so agreement with
    IncMerge genuinely tests the merging rule. *)

val makespan : Power_model.t -> energy:float -> Instance.t -> float
(** Optimal makespan.
    @raise Invalid_argument when [n > 20] (the search is exponential) or
    the budget is non-positive on a non-empty instance. *)

val solve : Power_model.t -> energy:float -> Instance.t -> Schedule.t
