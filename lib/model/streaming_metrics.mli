(** Constant-memory online metrics for trace-scale simulation.

    [Metrics] computes makespan/flow aggregates from a fully
    materialized {!Schedule.t}; at 10^6–10^7 simulated jobs there is no
    schedule to materialize.  This module carries the same aggregates
    as O(1)-space running state: Welford's recurrence for exact
    mean/variance of flow, the P² algorithm for streaming quantile
    estimates, and plain accumulators for makespan, energy and released
    work.  Everything except the P² quantiles agrees with the exact
    list-based computation to float rounding. *)

(** Exact running mean/variance/min/max/sum (Welford's algorithm). *)
module Welford : sig
  type t

  val create : unit -> t
  val clear : t -> unit
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 before any observation. *)

  val sum : t -> float
  val variance : t -> float
  (** Unbiased sample variance; 0 with fewer than two observations. *)

  val stddev : t -> float
  val minimum : t -> float
  val maximum : t -> float
end

(** Streaming quantile estimation with five markers (Jain & Chlamtac's
    P² algorithm).  Exact while the observation count is at most five;
    an O(1)-space estimate afterwards. *)
module P2 : sig
  type t

  val create : float -> t
  (** [create q] tracks the [q]-quantile.
      @raise Invalid_argument when [q] is outside [[0, 1]]. *)

  val add : t -> float -> unit
  val count : t -> int
  val quantile : t -> float
  (** Current estimate; 0 before any observation. *)
end

type t
(** Aggregate simulation metrics: flow statistics (Welford + P² at
    0.50/0.95/0.99), running makespan, energy, released work. *)

type snapshot = {
  jobs : int;
  flow_mean : float;
  flow_stddev : float;
  flow_max : float;
  flow_total : float;
  flow_p50 : float;  (** P² estimate *)
  flow_p95 : float;  (** P² estimate *)
  flow_p99 : float;  (** P² estimate *)
  makespan : float;
  energy : float;
  released_work : float;
}

val create : unit -> t

val observe : t -> release:float -> completion:float -> unit
(** Record one completed job: feeds flow [completion - release] into
    the running statistics and advances the makespan.  Allocates
    nothing (its float arguments are boxed by a caller in another
    module unless they already are, e.g. fields of a {!Job.t}).
    @raise Invalid_argument when [completion < release]. *)

type totals = { mutable makespan : float; mutable energy : float; mutable released_work : float }
(** The running aggregates beside the flow statistics, float-only so
    stores are unboxed.  [observe] advances [makespan]; a simulator
    adds to [energy] and [released_work] in place, which allocates
    nothing, where a function taking the increment would box it. *)

val totals : t -> totals
(** The metrics' own totals record (not a copy). *)

val jobs : t -> int

val snapshot : t -> snapshot
(** O(1) copy of the current state — the watermark payload. *)
