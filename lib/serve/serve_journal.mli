(** Crash-safe persistence for the serve caches: a write-ahead append
    journal over an atomically rewritten checkpoint.

    PR 9's [--cache-file] snapshot only survived a {e clean} shutdown —
    a SIGKILL lost every warm entry.  The journal closes that gap with
    the classic crash-only discipline:

    - every cached ok-reply is {!append}ed to [<path>.journal] as one
      CRC-32-framed NDJSON line the moment it enters the LRU;
    - {!replay} at startup reads the checkpoint at [<path>] first, then
      the journal over it (later lines win), so recovery is
      checkpoint ∪ journal;
    - a torn, truncated or bit-flipped line — the expected debris of a
      crash mid-write — fails its CRC and is skipped, never fatal;
      everything before it still loads ([skipped_corrupt] counts the
      debris);
    - {!compact} folds the live entries into a fresh checkpoint written
      via tmp + fsync(file) + rename + fsync(dir) — the rename can't
      survive a power cut with empty contents — then truncates the
      journal.

    Durability is tiered: {!flush} (once per batch) pushes appends into
    the OS page cache, which survives SIGKILL — the kill-chaos drill's
    failure mode — losing at most the in-flight batch.  [fsync:true]
    additionally fsyncs per flush for power-loss durability, at a
    per-batch fsync cost.

    Framing: each line is [{"crc":"xxxxxxxx","entry":E}] where [E] is
    [{"canon":...,"payload":{...}}] and the CRC-32 (IEEE) is computed
    over the {e raw bytes} of [E] exactly as they appear on disk — the
    reader checksums the substring before parsing it, so JSON
    pretty-printing never enters the integrity argument.

    Counters (mirrored to [Obs] as [serve.journal.*]): [appends],
    [replayed], [skipped_corrupt], [compactions]. *)

type t

type stats = {
  appends : int;  (** entries appended since open *)
  replayed : int;  (** entries recovered by {!replay} *)
  skipped_corrupt : int;  (** lines dropped by CRC/parse during replay *)
  compactions : int;  (** checkpoints rewritten *)
  lag : int;  (** journal entries not yet folded into the checkpoint *)
}

val crc32 : string -> int
(** CRC-32 (IEEE 802.3, poly 0xEDB88320) of the string, in [0, 2^32).
    [crc32 "123456789" = 0xCBF43926]. *)

val encode_line : canon:string -> (string * Obs_json.t) list -> string
(** One framed journal/checkpoint line (no trailing newline). *)

val decode_line : string -> (string * (string * Obs_json.t) list) option
(** [Some (canon, payload)] iff the frame is intact: prefix shape, CRC
    over the raw entry bytes, and entry parse all pass.  Any corruption
    — truncation, bit flips, garbage — yields [None], never raises. *)

val open_ : ?fsync:bool -> ?compact_every:int -> path:string -> unit -> t
(** Open the store rooted at [path] (the checkpoint file; the journal
    lives at [path ^ ".journal"]).  Neither file need exist.  The
    journal is opened for append.  [fsync] (default false) upgrades
    {!flush} to power-loss durability; [compact_every] (default 1024)
    is the append lag at which {!needs_compact} trips (0 = never).
    @raise Sys_error when the journal cannot be opened for append. *)

val replay : t -> (canon:string -> (string * Obs_json.t) list -> unit) -> unit
(** Feed every intact entry — checkpoint first, then journal — to the
    callback in file order (so an entry re-appended after the
    checkpoint replays last and wins the LRU recency it had).  Corrupt
    lines are counted and skipped.  Call once, before appending. *)

val append : t -> canon:string -> (string * Obs_json.t) list -> unit
(** Buffer one entry onto the journal.  Cheap; durability comes from
    {!flush}. *)

val flush : t -> unit
(** Push buffered appends to the OS (plus fsync when the store was
    opened with [fsync:true]).  Call once per served batch.  A flush
    with appends to push counts one [serve.journal.flushes]; every
    fsync, here or in a checkpoint, counts one [serve.journal.fsyncs]. *)

val needs_compact : t -> bool
(** True when the journal lag has reached [compact_every]. *)

val compact : t -> entries:(string * (string * Obs_json.t) list) list -> unit
(** Atomically rewrite the checkpoint with [entries] (order preserved —
    pass LRU→MRU so recency survives replay) and truncate the journal.
    The checkpoint goes through tmp + fsync + rename + directory fsync,
    so a crash at any point leaves either the old or the new
    checkpoint, never a torn one. *)

val write_checkpoint : path:string -> entries:(string * (string * Obs_json.t) list) list -> unit
(** The durable checkpoint writer alone (used by {!compact}; exposed
    for tests and for snapshot writers without a journal). *)

val stats : t -> stats

val close : t -> unit
(** {!flush}, then close the journal fd.  No compaction — closing
    without {!compact} models a crash for tests. *)
