(** The client side of the serve daemon, behind [pasched client], [soak]
    and [sim --emit-requests].

    An exchange is a [string list -> string list]: request lines in,
    one reply line per request out, in order.  A socket round trip and
    {!Serve_shard.handle_batch} are both exchanges, so one soak loop
    drives a daemon and an in-process front end alike. *)

type conn
(** A connected socket and the bytes read past the last reply (they may
    belong to a later exchange); every byte is scanned once. *)

val of_fd : Unix.file_descr -> conn
(** Also ignores SIGPIPE: a write to a vanished daemon raises [EPIPE]. *)

val connect : string -> conn
(** @raise Failure ["cannot connect to PATH: REASON"]. *)

val close : conn -> unit
val send : conn -> string list -> unit

val read_reply : conn -> string
(** @raise Failure when the daemon closes the connection mid-reply. *)

val round_trip : conn -> string list -> string list

val with_connection : socket:string -> ((string list -> string list) -> 'a) -> 'a
(** [f exchange] over one persistent connection, opened on first use and
    closed when [f] ends.  A failed exchange drops it (a half-read reply
    set is garbage) and the next one reconnects. *)

val exchange : socket:string -> string list -> string list
(** One round trip on a fresh connection. *)

type daemon

val start : exe:string -> socket:string -> string list -> daemon
(** Spawn [exe serve --socket socket ARGS] with stdin and stdout on
    /dev/null, then ping it every 50 ms for up to 10 s; one that never
    answers is killed.  @raise Failure ["daemon never answered on PATH"]. *)

val stop : ?kill:bool -> daemon -> Unix.process_status option
(** Reap the daemon, SIGKILLed first when [kill]; [None] once stopped. *)

type backoff
(** Capped exponential backoff with decorrelated jitter: each sleep is
    uniform in [[base, 3 × previous]], clamped to the cap, so retrying
    clients spread apart instead of re-creating the overload that shed
    them. *)

val backoff : ?cap_ms:float -> ?seed:int -> base_ms:float -> unit -> backoff
(** [cap_ms] defaults to [10_000.], [seed] (the jitter stream) to 0.
    @raise Invalid_argument when [base_ms <= 0] or [cap_ms < base_ms]. *)

val next_ms : backoff -> float

val is_transient : string -> bool
(** True exactly for ["busy"] and ["degraded"] replies, whose
    conditions clear on their own. *)

val with_retry :
  backoff -> retries:int -> (string list -> string list) -> string list -> string list
(** Exchange, then spend up to [retries] further attempts, each after a
    {!next_ms} sleep: a transport failure ([Failure] or [Unix_error])
    resends the whole set, transient replies resend just their lines
    and are merged back into their slots (safe: requests are idempotent
    by canonical key).  An exhausted budget returns the last replies or
    re-raises the last failure. *)

val exit_code : string -> int
(** 0 for an ["ok"] reply, else {!Guard_error.class_exit_code} of its class. *)

val trace_requests : alpha:float -> batch:int -> Workload.Stream.t -> string Seq.t
(** Consecutive [batch]-job makespan solve requests cut from the stream
    (Bunde's IncMerge workload): ids from 0, releases relative to each
    request's first job, budget twice its work.  Consumes the stream. *)

type soak = {
  ok : int;
  busy : int;  (** busy or degraded *)
  errors : int;  (** error replies and unparseable lines *)
  latency : Streaming_metrics.snapshot;
      (** seconds; a window's requests share its send-to-last-reply time *)
  wall_s : float;
}

val soak : window:int -> exchange:(string list -> string list) -> string list -> soak
(** Exchange the lines [window] at a time and tally the replies.
    @raise Invalid_argument when [window < 1]. *)

type chaos = {
  killed_window : int;
  pre_cache : int;  (** cache entries just before the kill *)
  post_cache : int;  (** and after the restart *)
  replayed : int;  (** journal entries the restart replayed *)
  skipped_corrupt : int;
  warm_fraction : float;  (** [post_cache / pre_cache], 1 when nothing was cached *)
  rechecked : int;
  mismatches : int;  (** rechecked replies that differ from the pre-kill ones *)
  soak : soak;
}

val chaos :
  exe:string -> socket:string -> cache_file:string -> shards:int -> cache_capacity:int ->
  max_inflight:int -> window:int -> retries:int -> backoff:backoff -> kill_at:float ->
  string list -> chaos
(** The kill-recovery drill: {!start} a journaled daemon, soak it
    through {!with_retry}, SIGKILL and restart it before window
    [kill_at × windows], resend up to 512 requests answered ok before
    the kill and compare the replies byte for byte, then shut it down.
    The daemon is killed and reaped on every exit path; judging the
    counts is the caller's business.
    @raise Invalid_argument when [window < 1], before any daemon starts. *)
