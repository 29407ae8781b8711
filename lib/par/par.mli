(** Multicore execution layer: a fork-join Domain pool on OCaml 5, a
    sequential stand-in on 4.x — one API, build-time selected by dune.

    Everything embarrassingly parallel in the library (Pareto-point
    evaluation, fuzz campaigns, registry enumeration) funnels through
    {!init}/{!map} so parallelism is a deployment knob, not an
    algorithmic concern.

    {2 Determinism contract}

    For a pure [f], the result of every function in this module is a
    deterministic function of its arguments only — element [i] of the
    output is [f i] (or [f a.(i)]) regardless of [jobs], backend, or
    scheduling.  Callers preserve the contract end-to-end by keeping
    per-element work self-contained (the fuzz runner derives case [k]'s
    RNG from [Rng.of_pair seed k]; the frontier sweeps fix their grids
    and warm-start chains independently of [jobs]), which is what makes
    the CLI's golden outputs byte-identical for every [--jobs] value.

    Per-domain state is allowed when it cannot leak into values: the
    kernel scratch arenas ([Scratch] in [lib/core]) live in
    [Domain.DLS], so each worker reuses its own buffers and cached
    tables across elements.  The tables are filled by deterministic
    recurrences — a warm worker and a cold worker compute bitwise
    identical results — and [test/test_kernel.ml] locks this by
    comparing kernel outputs across interleaved instance sizes at
    [jobs] 1, 2 and 4.

    {2 Exceptions}

    When [f] raises, the pool stops issuing new work, joins, and
    re-raises the exception of the lowest-indexed failing element among
    those evaluated.  Which later elements were already evaluated when
    the failure surfaced is unspecified (their results are discarded).

    {2 Nesting}

    [init]/[map] called from inside a worker run sequentially — domains
    are never spawned from domains, so routing a parallel layer through
    a solver that is itself being driven in parallel cannot oversubscribe
    the machine.

    {2 Clamping}

    The effective worker count never exceeds the recommended count,
    [Domain.recommended_domain_count ()] (1 on the sequential 4.x
    build): OCaml 5 minor collections are stop-the-world across domains,
    so widths above the core count make every minor GC wait on
    descheduled domains and run dramatically {e slower} (measured ~5x
    on a single core).  Since [jobs] is a performance knob and never a
    semantic one (see the determinism contract), clamping changes no
    result. *)

val default_jobs : unit -> int
(** The pool width used when [?jobs] is omitted: the last value given
    to {!set_default_jobs}, or the recommended count if never set. *)

val set_default_jobs : int -> unit
(** Process-wide default, set once at the CLI boundary ([--jobs]).
    @raise Invalid_argument when the value is below 1. *)

val on_worker_domain : unit -> bool
(** [true] iff the calling domain is a pool worker.  Used by the Obs
    facade to keep single-domain machinery (trace spans) on the main
    domain; counters stay atomic and aggregate from everywhere. *)

val init : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [init ~jobs n f] is [[| f 0; ...; f (n-1) |]], evaluated by up to
    [jobs] domains ([{!default_jobs} ()] when omitted).  Work is dealt
    in chunks off a shared counter, so uneven per-element cost balances
    dynamically.
    @raise Invalid_argument when [n < 0] or [jobs < 1]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f a] is [Array.map f a] with the same pool, ordering and
    exception semantics as {!init}. *)

val list_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [List.map] through {!map} (the list is arrayed first; element order
    is preserved). *)

val try_init : ?jobs:int -> int -> (int -> 'a) -> ('a, exn) result array
(** {!init} with per-element fault containment: element [i] is
    [Ok (f i)], or [Error e] when [f i] raised [e].  The batch always
    completes; no exception propagates.  Used by campaign runners that
    must survive one faulted item. *)

(** Resident worker pool for long-running dispatch loops.

    {!init} spawns its domains per call, which is the right trade for a
    few coarse batches (fuzz campaigns, Pareto sweeps) but not for a
    daemon dispatching thousands of small batches.  A [Pool.t] spawns
    its workers once at {!Pool.create} and parks them between batches on
    a condition variable; each {!Pool.init} wakes them, deals the same
    chunked work queue as the per-call path, and waits for quiescence
    before returning.

    All contracts of the per-call API hold unchanged: determinism in the
    element order, lowest-index exception propagation, sequential
    degradation when called from a worker domain, and clamping to the
    recommended count.  A pool is driven from one domain at a time —
    it is a fork-join accelerator, not a concurrent task queue. *)
module Pool : sig
  type t

  val create : ?jobs:int -> unit -> t
  (** Spawn a resident pool of up to [jobs] workers (defaulting to
      [{!default_jobs} ()], clamped to the recommended count).  Created
      from a worker domain, the pool is sequential (width 1): domains
      are never spawned from domains.
      @raise Invalid_argument when [jobs < 1]. *)

  val jobs : t -> int
  (** Effective parallel width (after clamping), including the calling
      domain.  [1] means sequential. *)

  val init : t -> int -> (int -> 'a) -> 'a array
  (** As {!Par.init} but on the resident workers.  After {!shutdown},
      runs sequentially.
      @raise Invalid_argument when [n < 0]. *)

  val shutdown : t -> unit
  (** Stop and join the workers.  Idempotent; subsequent {!init} calls
      degrade to sequential evaluation rather than failing. *)
end
