(** Concrete schedules: each job gets a processor, a start time and a
    single speed (Lemma 2 makes the single-speed form lossless for
    optimal schedules, and two-speed emulations are expressed at the
    simulator level instead).

    A schedule is what solvers return and what {!Metrics},
    {!Validate} and the simulator consume.  It does not reference an
    {!Instance.t}; feasibility of a schedule {e against} an instance
    is a separate judgment made by {!Validate.check}.

    Instrumented: building a schedule records the
    [schedule.entries_built] counter and a [schedule.of_entries] trace
    span when observability is enabled (see [Obs]). *)

type entry = { job : Job.t; proc : int; start : float; speed : float }
(** One contiguous execution: [job] runs on processor [proc] from
    [start] for [job.work /. speed] time units at constant [speed].
    Invariants (checked by {!of_entries}): [proc >= 0],
    [speed > 0.] and finite, [start >= job.release] (up to [1e-9]
    slack). *)

type t
(** Invariant: entries sorted by [(proc, start, job id)]. *)

val of_entries : entry list -> t
(** [of_entries es] validates and sorts the entries.
    @raise Invalid_argument on negative proc, non-positive or
    non-finite speed, or a start before the job's release.  Overlap on
    a processor is {e not} rejected here — it is reported by
    {!Validate.check} (and by {!profile_of_proc}). *)

val entries : t -> entry list
(** In (proc, start) order. *)

val entries_of_proc : t -> int -> entry list
(** The entries assigned to one processor, in start order. *)

val find : t -> int -> entry option
(** [find t id] looks up the entry of job [id], if scheduled. *)

val n_jobs : t -> int
(** Number of entries (for preemption-free schedules, the number of
    scheduled jobs). *)

val n_procs : t -> int
(** 1 + the largest processor index used (0 for an empty schedule). *)

val completion : entry -> float
(** [completion e] is [e.start +. duration e]. *)

val profile_of_proc : t -> int -> Speed_profile.t
(** The processor's piecewise-constant speed profile — the bridge to
    time-domain analyses ({!Speed_profile.energy}, [Thermal]).
    @raise Invalid_argument if entries on the processor overlap. *)

val energy : Power_model.t -> t -> float
(** Total energy: sum over entries of the single-speed run energy
    under the given power model. *)
