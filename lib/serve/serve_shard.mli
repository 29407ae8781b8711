(** Shared-nothing sharded front end for the solve service.

    A {!t} owns [N] shards, each a private {!Serve_cache} LRU plus a
    resident {!Par.Pool} slice (≈ 1/N of the requested width).  The
    router dispatches every solve by the Lamping–Veach jump consistent
    hash of its {!Serve_key} canonical key, so a repeated request
    always lands on the shard that cached it, and cache lookups,
    deduplication and pool dispatch all proceed with zero cross-shard
    synchronization.  Because each request's reply depends only on its
    own canonical problem (the {!Serve_batch} determinism contract),
    replies are byte-identical across shard counts — the
    [serve:shard-transparent] fuzz property.

    Admission control bounds each shard's per-batch inflight depth
    ([max_inflight]); excess requests are shed with a typed
    {!Serve_protocol.busy_payload} reply rather than queued unboundedly
    ([serve.shed] counter, [serve.inflight] gauge).

    With [cache_file], persistence is crash-safe ({!Serve_journal}):
    every cache insert is appended to a CRC-framed write-ahead journal
    (flushed once per batch; fsynced under [fsync]), {!create} replays
    checkpoint ∪ journal — re-routed by the {e current} shard count, so
    a store written at one [--shards] value warms any other — and
    lag-triggered compaction, one bounded {!Serve_journal.step} per
    batch (whole at {!shutdown}), folds the journal into an atomically
    rewritten checkpoint.  A SIGKILL loses at most the in-flight batch;
    torn or corrupt lines are skipped on replay, never fatal, and a
    journal I/O error is counted, never raised into a batch.

    One {!Serve_batch} supervision state (circuit breakers) is shared
    across shards — the router drives every shard from one loop, so a
    solver that melts down trips a single breaker for the whole
    daemon; the ["health"] op reports per-shard inflight, cache
    occupancy, journal counters and breaker states. *)

type t

type stats = {
  cache : Serve_cache.stats;  (** summed over shards *)
  per_shard : Serve_cache.stats array;
  jobs : int;  (** total pool width over shards *)
  shards : int;
  requests : int;
  batches : int;
  shed : int;  (** requests refused by admission control *)
  max_inflight : int;  (** 0 = unbounded *)
}

val create :
  ?jobs:int ->
  ?shards:int ->
  ?cache_capacity:int ->
  ?max_inflight:int ->
  ?policy:Guard.policy ->
  ?cache_file:string ->
  ?fsync:bool ->
  ?compact_every:int ->
  ?breaker:Guard_breaker.config option ->
  ?breaker_now:(unit -> float) ->
  unit ->
  t
(** [jobs] is the total pool width to slice across [shards] (default
    {!Par.default_jobs}; each shard gets at least 1); [cache_capacity]
    bounds each shard's LRU (default 256); [max_inflight] bounds each
    shard's per-batch solve depth (default 0 = unbounded).
    [cache_file] roots the {!Serve_journal} store: the checkpoint lives
    there, the journal beside it at [.journal], and both are replayed
    immediately (corrupt lines skipped).  [fsync] (default false) makes
    the per-batch journal flush power-loss durable; [compact_every]
    (default 1024) is the journal lag that triggers compaction.
    [breaker] configures the shared circuit breakers
    (default {!Guard_breaker.default_config}; [None] disables);
    [breaker_now] injects the breaker clock for tests.
    @raise Invalid_argument when [shards < 1], [jobs < 1] or
    [max_inflight < 0]. *)

val route : hash:int64 -> shards:int -> int
(** The jump consistent hash: deterministic in [(hash, shards)] alone
    and monotone in [shards] — growing the count only moves keys onto
    the new shard.  In [\[0, shards)].
    @raise Invalid_argument when [shards < 1]. *)

val handle_batch : t -> string list -> string list
(** One reply line per request line, in order: decode, route, admit or
    shed, per-shard batch dispatch, journal flush and one compaction
    step, ops answered after solves.  Never raises on request content
    or on a journal I/O error. *)

val handle_line : t -> string -> string
(** [handle_batch] of a singleton. *)

val stats : t -> stats

val journal_stats : t -> Serve_journal.stats option
(** Durability counters ([None] without [cache_file]). *)

val stopping : t -> bool
(** Set by a ["shutdown"] request; the {!Serve} transports exit their
    loop once the reply is flushed. *)

val shutdown : t -> unit
(** Compact (fold all live entries into the checkpoint by atomic
    rename + fsync, and truncate the journal; nothing without
    [cache_file]), close the journal, then stop every shard's pool
    workers.  Idempotent; the {!Serve} transports call it on exit. *)

val abort : t -> unit
(** Stop the pools {e without} compacting — on-disk state is left
    exactly as the last batch flushed it, as a SIGKILL would.  For
    crash-recovery tests and benchmarks. *)
