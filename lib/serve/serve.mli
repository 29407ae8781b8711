(** The daemon's transports: newline-delimited requests in, one reply
    line per request out, over stdin/stdout or a Unix domain socket.

    Both run a {!Serve_shard.t} — the whole request path (decode,
    route, admit, cache, dispatch, encode, journal) is
    {!Serve_shard.handle_batch}; the transports only frame lines into
    batches and write the replies back.  Each loop ends once
    {!Serve_shard.stopping} reports a ["shutdown"] op (the stdin loop
    also at EOF), and then calls {!Serve_shard.shutdown}.  The daemon
    never dies on request content: malformed lines, solver faults and
    deadline expiries all become typed error replies (see
    {!Serve_protocol}). *)

val run_pipe : ?max_batch:int -> Serve_shard.t -> unit
(** Serve newline-delimited requests from stdin to stdout until EOF or
    a ["shutdown"] op.  Reads are drained greedily, so lines already
    buffered by the kernel form one batch (up to [max_batch], default
    32) — a client that writes [k] requests at once gets them
    deduplicated and pool-dispatched together.  An unterminated final
    line is still served. *)

val run_socket : ?max_batch:int -> ?backlog:int -> path:string -> Serve_shard.t -> unit
(** Serve over a Unix domain socket at [path] (created at start,
    unlinked on exit; an existing stale socket file is replaced;
    [backlog], default 16, is the [listen] queue depth).  Multiplexes
    clients with [select]; each client's buffered complete lines form
    one batch, and replies go back on that client's connection.
    Hardened against client death: SIGPIPE is ignored and every
    [select]/[read]/[write]/[accept] retries EINTR, so a client that
    disconnects mid-reply (or a stray signal) costs one connection,
    never the daemon.
    Replies are buffered per client and flushed through the [select]
    writable set — a slow reader never stalls the event loop, and a
    client holding more than 64 MiB of undrained replies is dropped.
    A ["shutdown"] from any client stops the daemon; its pending
    replies get a bounded best-effort flush before the fds close. *)
