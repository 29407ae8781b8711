(** Span-based tracing with nesting, exported as Chrome [trace_event]
    JSON.

    A {e span} covers one dynamic extent — a solver call, a merge
    phase, a simulator run.  Spans nest: entering a span while another
    is open records the child at depth+1.  Each completed span becomes
    one {e complete event} ([ph = "X"]) with a begin timestamp and a
    duration in microseconds, all on one pid/tid, which
    [about://tracing] and {{:https://ui.perfetto.dev}Perfetto} render
    as a flame graph by timestamp containment.

    Like {!Obs_metrics} this module is unconditional — gating on the
    global enabled flag is {!Obs}'s job.  The event buffer grows
    geometrically up to {!set_max_events} (default one million);
    further events are counted in {!dropped_events} rather than
    recorded, so a runaway loop cannot exhaust memory.

    Timestamps come from {!Obs_clock} and are rebased to the first
    span opened after a {!clear}, so traces start near [ts = 0]. *)

type event = {
  name : string;
  ts_us : float;  (** span start, microseconds since the trace epoch *)
  dur_us : float;  (** span duration in microseconds, [>= 0.] *)
  depth : int;  (** nesting depth at entry; 0 for a root span *)
  args : (string * string) list;  (** user key/value annotations *)
}
(** One completed span.  For any two events [a], [b] produced by
    well-bracketed spans on this single-threaded recorder, if
    [b.depth > a.depth] and their intervals overlap then [b]'s
    interval is contained in [a]'s. *)

val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] inside a span, exiting it even if
    [f] raises (the exception is re-raised). *)

val events : unit -> event list
(** [events ()] lists completed spans in completion order (children
    before their parents, since children exit first). *)

val clear : unit -> unit
(** [clear ()] discards all events, resets the depth and the dropped
    count, and re-arms the epoch to the next span. *)

val set_max_events : int -> unit
(** [set_max_events n] caps the buffer at [n] events ([n >= 0];
    default 1_000_000).  Events beyond the cap are dropped, not
    recorded. *)

val dropped_events : unit -> int
(** [dropped_events ()] is how many spans were discarded because the
    buffer was full since the last {!clear}. *)

val to_json : unit -> Obs_json.t
(** [to_json ()] is the trace as a Chrome [trace_event] document: an
    object with a [traceEvents] list (one process-name metadata event
    followed by one ["ph" = "X"] event per completed span, each
    carrying [name]/[cat]/[ts]/[dur]/[pid]/[tid] and its [depth] under
    [args]) and a [displayTimeUnit].  Load the serialized form in
    [about://tracing] or Perfetto. *)
