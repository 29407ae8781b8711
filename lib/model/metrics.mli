(** Scheduling metrics.

    The paper optimizes makespan (max completion) and total flow (sum of
    completion − release); it also characterizes the class of *symmetric
    non-decreasing* metrics for which its multiprocessor reduction works.
    We expose that classification so Theorem 10's hypothesis is a
    checkable property here.

    All schedule-level metrics take a {!Schedule.t}; the abstract
    {!metric} form works on raw (completion, release) pairs so the
    classification predicates can probe it on arbitrary data. *)

val makespan : Schedule.t -> float
(** Largest completion time over all entries; 0 for an empty
    schedule.  Minimized by [Incmerge] under an energy budget. *)

val job_flow : Schedule.entry -> float
(** One job's flow, completion − release, computed as its wait
    (start − release) plus its duration (work / speed): a job that
    starts at its release contributes its duration exactly, however
    small that is beside the release. *)

val total_flow : Schedule.t -> float
(** Sum over jobs of {!job_flow}.  Minimized by [Flow] for equal-work
    jobs. *)

val max_flow : Schedule.t -> float
(** Largest {!job_flow}; 0 for an empty schedule.  Minimized by
    [Max_flow]. *)

val total_completion : Schedule.t -> float
(** Sum of completion times — equals {!total_flow} plus the sum of
    releases, so the two are interchangeable as objectives. *)

val weighted_flow : weights:(int -> float) -> Schedule.t -> float
(** [weighted_flow ~weights s] is the sum of [weights job_id · flow];
    the paper's example of a metric that is {e not} symmetric (so
    Theorem 10's reduction does not apply to it).
    @param weights mapping from job id to its weight. *)

(** A metric as a function of the (completion, release) pairs, used to
    test symmetry / monotonicity on concrete data. *)
type metric = (float * float) array -> float

val makespan_metric : metric
(** {!makespan} in {!metric} form. *)

val total_flow_metric : metric
(** {!total_flow} in {!metric} form. *)

val is_symmetric_on : metric -> (float * float) array -> bool
(** [is_symmetric_on m data] checks invariance of [m] under
    permutations of the completion times in [data] (deterministic set
    of permutations: rotations and swaps — a sound but incomplete
    check; [true] means "no counterexample found"). *)

val is_non_decreasing_on : metric -> (float * float) array -> bool
(** [is_non_decreasing_on m data] checks that [m] does not decrease
    when any single completion time in [data] increases (finite probe
    set, same caveat as {!is_symmetric_on}). *)
