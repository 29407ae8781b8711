(** The dispatch core of the daemon: one batch of decoded solve
    requests in, one reply payload per request out, in order.

    Per batch:
    + every request probes the {!Serve_cache} (hit → its stored payload,
      verbatim — byte-identical to the cold solve that filled it);
    + the misses are deduplicated by canonical key, so [k] copies of the
      same problem in one batch cost one solve;
    + every unique miss that resolves to a solver and passes its
      breaker is one {!Guard.solve_with} call (the daemon policy, with
      the request's [deadline_s] if it carries one), all of them
      distributed across the resident {!Par.Pool} in one
      [Par.Pool.init].  Pool workers are long-lived domains, so each
      worker's [Scratch] arena and cached flow tables persist
      {e across items and across batches}: after the first item of
      comparable size, every kernel solve on that worker runs on the
      warm allocation profile (see scratch.mli).  Arenas never affect
      values, so replies stay pool-invariant;
    + successful payloads are inserted into the cache; errors are not
      (a deadline miss must not poison the key for a patient caller).

    Nothing raises out of [run]: solver faults, capability mismatches
    and deadline expiries all come back as {!Serve_protocol.error_payload}
    rows.  Replies are a pure function of the request batch (given a
    fixed registry and healthy solvers), independent of pool width —
    the [Par] determinism contract extended to the service boundary.

    {2 Circuit breakers}

    A {!state} carries one {!Guard_breaker} registry across batches.
    Before dispatch, each unique request asks the breaker whether its
    resolved solver may take work; an open breaker reroutes the request
    to the first healthy solver in {!Engine.supporting} order (the
    reply is tagged with a [breaker.degraded] diagnostic and {e not}
    cached — a warm reply must stay byte-identical to the healthy cold
    solve), or, with no healthy alternative, answers a typed
    {!Serve_protocol.degraded_payload}.  After dispatch, in request
    order, clean answers record success and
    [solver-fault]/[no-convergence] outcomes (or a Guard fallback
    rescue, which means the solver itself produced nothing) record
    failure; request-indicting classes are neutral. *)

type state
(** Cross-batch supervision state (currently: the circuit breakers). *)

val create_state : ?now:(unit -> float) -> ?breaker:Guard_breaker.config option -> unit -> state
(** [breaker] defaults to [Some Guard_breaker.default_config]; pass
    [None] to disable breaking entirely.  [now] is the breaker clock
    (injectable for tests). *)

val breaker_of : state -> Guard_breaker.t option
(** The live breaker registry, for health reporting. *)

val run :
  pool:Par.Pool.t ->
  cache:Serve_cache.t ->
  policy:Guard.policy ->
  ?state:state ->
  ?on_insert:(canon:string -> (string * Obs_json.t) list -> unit) ->
  Serve_protocol.solve_request array ->
  (string * Obs_json.t) list array
(** [run ~pool ~cache ~policy reqs] is the reply payload (sans ["id"])
    for each request, index-aligned with [reqs].  [policy] is the
    daemon-wide base; a request's [deadline_s] overrides the policy's
    deadline for that request only.  [state] (default: no breakers)
    persists breaker decisions across calls; [on_insert] fires once per
    fresh cache insert with the canonical key and stored payload — the
    journal's write-ahead hook. *)
