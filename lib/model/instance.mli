(** A problem instance: a set of jobs, kept sorted by release time.

    All solvers in the library assume this sorted order (the paper's
    Lemma 3 lets optimal schedules run jobs in release order), so the
    constructor enforces it once and for all.  The type is abstract:
    every value of type {!t} satisfies the sortedness invariant, and
    {!jobs} exposes the array without re-checking.

    Instances are produced three ways: directly ({!create},
    {!of_pairs}, {!of_arrays}, {!of_works}), from the paper's worked
    examples ({!figure1}, {!theorem8}), or synthetically via
    {!Workload}. *)

type t
(** Invariant: jobs sorted by {!Job.compare_by_release}, ids unique,
    every job individually valid per {!Job.make}. *)

val create : Job.t list -> t
(** [create jobs] sorts by release time and re-checks job validity.
    @raise Invalid_argument on duplicate job ids or any job violating
    the {!Job.t} invariants. *)

val of_pairs : (float * float) list -> t
(** [of_pairs [(r0, w0); (r1, w1); ...]] builds jobs from
    [(release, work)] pairs; ids are assigned in input order (so pair
    [i] becomes job id [i], possibly reordered by release). *)

val of_arrays : releases:float array -> works:float array -> t
(** [of_arrays ~releases ~works] is {!of_pairs} of the zipped arrays,
    built without a list: job [i] has id [i], and the jobs are
    validated in that order.
    @raise Invalid_argument when the lengths differ, or as {!Job.make}. *)

val of_works : float list -> t
(** [of_works ws] is jobs with the given works, all released at time 0
    (the Theorem 11 / Partition setting, see [Hardness]). *)

val figure1 : t
(** The instance behind the paper's Figures 1–3:
    [r = (0, 5, 6)], [w = (5, 2, 1)].  Used throughout the tests, the
    benchmark harness and EXPERIMENTS.md as the canonical worked
    example. *)

val theorem8 : t
(** The Theorem 8 instance: three unit-work jobs released at
    [0, 0, 1], whose flow-optimal speeds are non-algebraic. *)

val jobs : t -> Job.t array
(** The jobs sorted by release time.  The array is the instance's own
    storage — do not mutate. *)

val job : t -> int -> Job.t
(** [job t i] is the [i]-th job in release order (0-based).
    @raise Invalid_argument if [i] is out of range. *)

val n : t -> int
(** Number of jobs. *)

val total_work : t -> float
(** Sum of {!Job.t.work} over all jobs. *)

val first_release : t -> float
(** Earliest release time.
    @raise Invalid_argument on an empty instance. *)

val last_release : t -> float
(** Latest release time.
    @raise Invalid_argument on an empty instance. *)

val is_equal_work : ?tol:float -> t -> bool
(** Whether all works are equal within relative tolerance [tol]
    (default [1e-9]) — the hypothesis of the paper's flow results
    (Sections 3–5). *)

val has_common_release : ?tol:float -> t -> bool
(** Whether all releases coincide within [tol] (default [1e-9]) — the
    batch setting of Theorem 11. *)

val is_empty : t -> bool

val pp : Format.formatter -> t -> unit
(** One line per job, in release order, using {!Job.pp}. *)
