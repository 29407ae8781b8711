(** Multiprocessor makespan for {e general} instances — unequal works
    and release dates.

    Theorem 11 says no polynomial exact algorithm exists unless P = NP,
    so this is the heuristic layer a user reaches for when their jobs
    are not equal-work: a greedy load-aware assignment in release order,
    improved by move/swap local search, with the exact shared-budget
    common-finish evaluation of {!Multi.makespan_of_assignment} as the
    objective.  For equal-work inputs the greedy start {e is} the cyclic
    distribution, so the result specializes to the optimal one. *)

val solve : Power_model.t -> m:int -> energy:float -> ?local_search:bool -> Instance.t -> Schedule.t

val makespan : Power_model.t -> m:int -> energy:float -> ?local_search:bool -> Instance.t -> float
