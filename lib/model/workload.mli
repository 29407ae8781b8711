(** Synthetic workload generation.

    The paper has no trace-driven evaluation (its experiments are worked
    instances), but exercising the algorithms at scale — and the online /
    simulator extensions — needs realistic arrival patterns.  All
    generators are deterministic in the [seed]: the same arguments
    always produce the same {!Instance.t}, which is what makes the
    benchmark sections and EXPERIMENTS.md reproducible.

    Two layers coexist here.  The original array-returning generators
    ([equal_work], [heavy_tailed], …) materialize an {!Instance.t} and
    are locked byte-identical across releases (CLI goldens depend on
    their exact [Random.State] draw order).  {!Stream} is the
    trace-scale layer: a pull-based job source seeded via the SplitMix64
    {!Rng}, able to describe 10^6–10^7-job traces that are replayed on
    demand rather than held resident.  The array generators are rebased
    on the stream machinery ({!Stream.of_array} → {!Stream.to_instance})
    so both layers share one materialization path. *)

(** Arrival-time processes for {!releases}. *)
type arrival =
  | Immediate  (** all jobs released at time 0 (the Theorem 11 setting) *)
  | Poisson of float  (** exponential inter-arrival times with the given rate *)
  | Uniform_span of float  (** releases drawn uniformly in [[0, span]] *)
  | Bursty of { bursts : int; span : float; jitter : float }
      (** [bursts] release points spread over [[0, span]], each job lands
          on one of them plus uniform jitter *)
  | Staircase of float  (** job [i] released at [i · step]: maximally
          block-structured input for IncMerge *)

val releases : seed:int -> arrival -> int -> float array
(** [releases ~seed arrival n] is [n] release times, sorted
    increasing, all [>= 0.]. *)

(** Pull-based job sources for trace-scale simulation.

    A stream produces jobs one at a time in nondecreasing release
    order; nothing upstream of the consumer is retained, so a 10^7-job
    trace costs the same live memory as a 10-job one.  Streams are
    deterministic in their seed (SplitMix64 via {!Rng}): two streams
    built with the same arguments yield the same jobs, which is what
    makes long traces replayable without being resident. *)
module Stream : sig
  type t

  (** Per-job work distributions. *)
  type size =
    | Fixed_size of float
    | Uniform_size of { lo : float; hi : float }
    | Pareto of { shape : float; scale : float }
        (** heavy-tailed: a few huge jobs among many small ones *)

  (** Arrival processes.  All produce nondecreasing release times. *)
  type process =
    | Poisson_process of float  (** constant-rate Poisson *)
    | Diurnal of { base : float; amplitude : float; period : float }
        (** sinusoid-modulated Poisson via thinning: instantaneous rate
            [base · (1 + amplitude · sin (2πt/period))], [amplitude] in
            [[0, 1)] *)
    | Mmpp of { rate_on : float; rate_off : float; mean_on : float; mean_off : float }
        (** bursty two-phase Markov-modulated Poisson: exponential
            on/off sojourns with the given means, arrivals at the
            phase's rate ([rate_off] may be [0.]) *)
    | Staircase_process of float  (** job [i] released at [i · step] *)

  val make : seed:int -> ?limit:int -> size:size -> process -> t
  (** [make ~seed ~limit ~size process] draws arrivals and sizes from
      two independent SplitMix64 sub-streams of [seed], stopping after
      [limit] jobs (unbounded when omitted — consumers must impose
      their own horizon).
      @raise Invalid_argument on out-of-range parameters: a size or
      rate that is not positive, a negative [rate_off], an [amplitude]
      outside [[0, 1)], a [step] that is negative or infinite, or any
      NaN parameter. *)

  val next : t -> Job.t option
  (** Pull the next job; [None] once the stream is exhausted.  Job ids
      count up from 0 in pull order. *)

  val pull_fn : t -> unit -> Job.t option
  (** The stream as a bare pull function. *)

  val of_array : (float * float) array -> t
  (** Finite stream over [(release, work)] pairs, ids in array order. *)

  val of_instance : Instance.t -> t
  (** Replay a materialized instance's jobs in stored order. *)

  val take : t -> int -> Job.t list
  (** At most [n] jobs, consuming the stream. *)

  val fold : ('a -> Job.t -> 'a) -> 'a -> t -> 'a
  (** Consume the stream to exhaustion (diverges on unbounded streams). *)

  val to_instance : t -> Instance.t
  (** Materialize a finite stream.  The shared back end of the array
      generators below. *)

  val with_deadlines : seed:int -> slack:float * float -> t -> unit -> (Job.t * float) option
  (** Decorate each pulled job with a deadline
      [release + work · slack], slack drawn uniformly from the range
      on an independent sub-stream of [seed] — the streaming analogue
      of {!deadline_jobs}.
      @raise Invalid_argument unless [0. < lo <= hi]. *)
end

val equal_work : seed:int -> n:int -> work:float -> arrival -> Instance.t
(** [n] jobs of identical [work] — the hypothesis of the paper's flow
    results ({!Instance.is_equal_work} holds by construction). *)

val uniform_work : seed:int -> n:int -> lo:float -> hi:float -> arrival -> Instance.t
(** Works drawn uniformly from [[lo, hi]].
    @raise Invalid_argument unless [0. < lo <= hi]. *)

val heavy_tailed : seed:int -> n:int -> shape:float -> scale:float -> arrival -> Instance.t
(** Pareto(shape, scale) works: a few huge jobs among many small ones —
    stress input for the block structure of [Incmerge].
    @raise Invalid_argument unless [shape > 0] and [scale > 0]. *)

val partition_style : seed:int -> n:int -> max_value:int -> Instance.t
(** Integer works in [[1, max_value]], all released at 0 — the shape of
    instances produced by the Theorem 11 reduction (see [Hardness] and
    [Partition_solver]). *)

type deadline_arrays = {
  release : float array;
  deadline : float array;
  work : float array;
}
(** Column-major deadline workload: parallel unboxed float arrays,
    consistent with the rest of the generators. *)

val deadline_jobs_arrays :
  seed:int -> n:int -> work:float * float -> slack:float * float -> arrival -> deadline_arrays
(** Release/deadline/work columns for the Yao–Demers–Shenker substrate
    ([Yds], [Avr], [Optimal_available]); each deadline is release +
    work-scaled slack drawn from the [slack] range.  Draw order matches
    the historical {!deadline_jobs} exactly, so both forms agree per
    seed.
    @param work range [(lo, hi)] for uniform work draws.
    @param slack range [(lo, hi)] for the per-unit-work slack. *)

val deadline_jobs :
  seed:int -> n:int -> work:float * float -> slack:float * float -> arrival -> (float * float * float) list
(** Boxed [(release, deadline, work)] view of {!deadline_jobs_arrays},
    kept for existing callers. *)
