(** IncMerge — the paper's linear-time algorithm for the uniprocessor
    laptop problem (§3.1): given an energy budget, find the schedule of
    minimum makespan.

    Jobs are added in release order, each starting its own block; while
    the last block runs slower than its predecessor the two are merged.
    Non-last block speeds are forced by the release window (Lemma 4/5);
    the last block's speed is chosen to exhaust the remaining budget.
    Lemma 7 shows the unique schedule with the five structural
    properties is optimal, so no search is needed.

    The merge passes run on unboxed struct-of-arrays storage from the
    per-domain {!Scratch} arena (see scratch.mli for the slot
    conventions); the [Block.t list] results are materialized once at
    this boundary, so the public API is unchanged while a pass itself
    allocates nothing proportional to the instance. *)

val blocks : Power_model.t -> energy:float -> Instance.t -> Block.t list
(** The optimal block decomposition.  Runs in O(n) after sorting (the
    [Instance] is already sorted).
    @raise Invalid_argument when [energy <= 0] on a non-empty instance. *)

val solve : Power_model.t -> energy:float -> Instance.t -> Schedule.t
(** The optimal schedule itself (single processor, index 0). *)

val makespan : Power_model.t -> energy:float -> Instance.t -> float
(** Makespan of the optimal schedule; 0 for an empty instance. *)

val energy_used : Power_model.t -> Block.t list -> float
(** Total energy of a block decomposition — for a budget [E] this is
    [E] up to rounding (the last block exhausts the budget). *)

val window_soa : Instance.t -> upto:int -> Block.Soa.t
(** The merge phase of IncMerge with window-determined speeds only, on
    jobs [0..upto]: the block structure of the first configuration in
    {!Frontier} (every block priced against the next job's release,
    budget ignored), as a scratch-backed {!Block.Soa.t}.  The window of
    job [upto]'s block ends at release [upto + 1], which must exist.
    The store is valid only until the next kernel call on the calling
    domain — callers ({!Frontier.build}) copy what they retain.
    @raise Invalid_argument when [upto >= n - 1] or [upto < -1]. *)

val prefix_sums_fa : Power_model.t -> Block.Soa.t -> floatarray * floatarray
(** [prefix_sums_fa model soa] is [(cum_work, cum_energy)], both of
    length [len + 1], where [cum_work.(j)] sums the work of rows
    [0..j-1] and [cum_energy.(j)] sums their energies, counting
    transient infinite-speed blocks as zero energy (they never appear
    in an emitted configuration).  Built once, these let {!Frontier}
    price any prefix/suffix split in O(1) instead of re-walking the
    blocks.  Freshly allocated — safe to retain past the scratch
    validity window, which is how {!Frontier} keeps them for its binary
    searches without re-boxing. *)
