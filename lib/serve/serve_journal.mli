(** Crash-safe persistence for the serve caches: a write-ahead append
    journal over an atomically rewritten checkpoint.

    PR 9's [--cache-file] snapshot only survived a {e clean} shutdown —
    a SIGKILL lost every warm entry.  The journal closes that gap with
    the classic crash-only discipline.

    {2 Files}

    A store rooted at [<path>] is up to four files:
    - [<path>], the checkpoint: the live entries at the last
      compaction, least recently used first;
    - [<path>.journal], the journal: one line per cache insert since
      then;
    - [<path>.journal.old], the rotated journal, present only while a
      compaction folds it into a new checkpoint (or after a crash or an
      I/O error interrupted one);
    - [<path>.tmp], the next checkpoint while it is being written.  It
      is never read.

    {!replay} reads [<path>], then [<path>.journal.old], then
    [<path>.journal], feeding every intact line to the callback in file
    order (later lines win).  A torn, truncated or bit-flipped line —
    the expected debris of a crash mid-write — fails its CRC and is
    skipped, never fatal; everything before it still loads
    ([skipped_corrupt] counts the debris).

    {2 Appends and flushes}

    Every cached ok-reply is {!append}ed to the journal's buffer as one
    CRC-32-framed NDJSON line the moment it enters the LRU.  {!flush}
    (once per batch) writes the buffer into the OS page cache, which
    survives SIGKILL — the kill-chaos drill's failure mode — losing at
    most the in-flight batch.  [fsync:true] additionally fsyncs per
    flush for power-loss durability, at a per-batch fsync cost.

    {2 Compaction in steps}

    Once the lag (entries not yet folded into the checkpoint) reaches
    [compact_every], {!step} folds the journal into a new checkpoint,
    one bounded step per call, and the daemon calls it once per batch
    after the batch's flush:
    + trigger: rename the journal to [.journal.old], open an empty
      journal (fsyncing the directory under [fsync:true], so the new
      name is durable before an fsynced append lands in it), take the
      live entries as the snapshot and open the tmp;
    + one step per slice: write the next 32 snapshot lines to the tmp;
    + flush and fsync the tmp;
    + rename the tmp over [<path>], fsync the directory, and unlink
      [.journal.old].

    A compaction of [live] entries thus takes [⌈live/32⌉ + 3] steps,
    writes at most 32 checkpoint lines in any one of them
    ([serve.journal.checkpoint_lines]) and fsyncs twice (the tmp and
    the directory), three times under [fsync:true].  Entries inserted
    meanwhile go to the new journal, which replays after the new
    checkpoint.

    {!compact} runs every step at once through the same checkpoint
    writer, then unlinks [.journal.old] and truncates the journal.  It
    serves shutdown, callers that compact whole, and a trigger that
    finds a [.journal.old] left by a crash or an I/O error.

    {2 Size}

    Without I/O errors, a store whose cache holds at most [L] entries,
    compacted every [K] appends by one {!step} per batch of at most [b]
    appends, never holds more than [2L + K + 2b(⌈L/32⌉ + 3)] lines over
    its four files: [L] each in the checkpoint and the tmp, and in the
    two journals at most [K - 1 + b] or [b(⌈L/32⌉ + 3)] lines before
    the trigger plus [b(⌈L/32⌉ + 2)] after it.

    {2 Crashes}

    A crash at any point leaves a store whose replay raises nothing,
    recovers only entries that were inserted, with their bytes, and
    counts only torn lines as corrupt.  Every entry that was live at
    the crash and whose line was flushed comes back — except between
    the checkpoint's rename and the unlink of [.journal.old] (for
    {!compact}: the journal's truncate), when pre-snapshot lines replay
    over the new checkpoint and may evict from a full cache entries the
    checkpoint holds.  A crash mid-write can leave the journal ending
    inside a line: {!open_} starts the next append on a line of its
    own, so the torn line stays one skipped line.

    {2 I/O errors}

    {!append}, {!flush} and {!step} never raise on an I/O failure
    ([Sys_error] or [Unix_error]); each counts one [errors]
    ([serve.journal.errors]).  A failed flush keeps the unwritten bytes
    buffered for the next one (up to 1 MiB; past that they are dropped,
    and the next compaction's snapshot still holds the entries).  A
    failed step abandons the in-flight compaction: the tmp is removed,
    [.journal.old] stays for replay, and the next attempt, a whole
    {!compact}, waits for another [compact_every] appends.

    Framing: each line is [{"crc":"xxxxxxxx","entry":E}] where [E] is
    [{"canon":...,"payload":{...}}] and the CRC-32 (IEEE) is computed
    over the {e raw bytes} of [E] exactly as they appear on disk — the
    reader checksums the substring before parsing it, so JSON
    pretty-printing never enters the integrity argument.

    Counters (mirrored to [Obs] as [serve.journal.*]): [appends],
    [replayed], [skipped_corrupt], [compactions], [errors]; [Obs] also
    counts [flushes], [fsyncs] and [checkpoint_lines].  Fault sites
    ({!Fault.enter}, all named [serve_journal.*]): [append]; [flush]
    before each write of the journal and [flush_fsync]; the rotation's
    [rotate], [reopen], [rotate_fsync] and [snapshot] (opening the
    tmp); [slice] before each write of the tmp; [tmp_fsync]; [rename];
    [dir_fsync]; [unlink]; and {!compact}'s [truncate].  At [flush] and
    [slice], {!Fault.observe_float} may shorten the write to model a
    short write. *)

type t

type stats = {
  appends : int;  (** entries appended since open *)
  replayed : int;  (** entries recovered by {!replay} *)
  skipped_corrupt : int;  (** lines dropped by CRC/parse during replay *)
  compactions : int;  (** checkpoints rewritten *)
  lag : int;  (** journal entries not yet folded into the checkpoint *)
  errors : int;  (** I/O failures contained by {!append}, {!flush} and {!step} *)
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
    lives at [path ^ ".journal"]).  No file need exist.  [fsync]
    (default false) upgrades {!flush} to power-loss durability;
    [compact_every] (default 1024) is the append lag at which
    {!needs_compact} trips (0 = never).
    @raise Sys_error when the journal cannot be opened for append. *)

val replay : t -> (canon:string -> (string * Obs_json.t) list -> unit) -> unit
(** Feed every intact entry — checkpoint, rotated journal, journal — to
    the callback in file order (so an entry re-appended after the
    checkpoint replays last and wins the LRU recency it had).  Corrupt
    lines are counted and skipped.  Call once, before appending. *)

val append : t -> canon:string -> (string * Obs_json.t) list -> unit
(** Buffer one entry for the journal.  Does no I/O; durability comes
    from {!flush}. *)

val flush : t -> unit
(** Write buffered appends to the OS (plus fsync when the store was
    opened with [fsync:true]).  Call once per served batch.  A flush
    with appends to write counts one [serve.journal.flushes]; every
    fsync, here or in a compaction, counts one [serve.journal.fsyncs]. *)

val needs_compact : t -> bool
(** True when the lag has reached [compact_every] (or, after a failed
    compaction, [compact_every] more appends). *)

val step : t -> entries:(unit -> (string * (string * Obs_json.t) list) list) -> unit
(** Advance compaction by one step: start one when {!needs_compact}
    holds and none is in flight (calling [entries] for the snapshot,
    LRU→MRU), else write the next slice, fsync the tmp, or install the
    checkpoint.  Call once per batch, after {!flush}. *)

val compact : t -> entries:(string * (string * Obs_json.t) list) list -> unit
(** Abandon any in-flight compaction, then atomically rewrite the
    checkpoint with [entries] (order preserved — pass LRU→MRU so
    recency survives replay), unlink the rotated journal and truncate
    the journal.  The checkpoint goes through tmp + fsync + rename +
    directory fsync, so a crash at any point leaves either the old or
    the new checkpoint, never a torn one.
    @raise Sys_error or [Unix.Unix_error] on an I/O failure. *)

val write_checkpoint : path:string -> entries:(string * (string * Obs_json.t) list) list -> unit
(** The durable checkpoint writer alone (used by {!compact}; exposed
    for tests and for snapshot writers without a journal). *)

val stats : t -> stats

val close : t -> unit
(** {!flush}, abandon any in-flight compaction, then close the journal.
    No compaction. *)

val drop : t -> unit
(** Close every file without writing what is buffered: the on-disk
    state a SIGKILL leaves. *)
