(** The observability facade: metrics, tracing and timers behind one
    global on/off switch.

    This is the only module instrumented code should touch.  Usage
    pattern, at module initialization:

    {[
      let c_rounds = Obs.counter "incmerge.merge_rounds"
    ]}

    and on the measured path:

    {[
      Obs.span "incmerge.solve" @@ fun () ->
        ...
        Obs.add c_rounds merges_this_call;
        ...
    ]}

    {2 Disabled mode}

    Instrumentation is {e off} by default.  While off, every operation
    in this module short-circuits on a single boolean load — no clock
    read, no allocation, no registry access — so instrumented hot
    paths run at their uninstrumented speed (the benchmark harness
    verifies the whole-suite overhead stays under noise).  Turning the
    switch on ({!set_enabled}) activates all call sites at once.

    Handle creation ({!counter}, {!gauge}, {!histogram}) interns
    unconditionally, so handles made while disabled work once enabled.

    {2 Parallel domains}

    Counter and gauge updates are atomic (see {!Obs_metrics}) and
    record correctly from [Par] pool workers.  Trace spans and
    histograms use unsynchronized shared state, so {!span} and
    {!observe} become no-ops on worker domains (they still run
    [f], of course) — the recorded trace reflects the main domain
    only, while counters aggregate across all domains.

    See {!Obs_metrics} for instrument semantics, {!Obs_trace} for the
    span model and Chrome export, and {!Obs_report} for the text
    report. *)

val enabled : unit -> bool
(** [enabled ()] is the current state of the global switch. *)

val set_enabled : bool -> unit
(** [set_enabled b] turns instrumentation on or off, process-wide. *)

val reset : unit -> unit
(** [reset ()] zeroes all metrics and discards all trace events
    (handles stay valid).  Call before a measured region to get a
    clean report for just that region. *)

type counter = Obs_metrics.counter
type gauge = Obs_metrics.gauge
type histogram = Obs_metrics.histogram

val counter : string -> counter
(** [counter name] interns a counter handle (see
    {!Obs_metrics.counter}); independent of the enabled switch. *)

val gauge : string -> gauge
val histogram : string -> histogram

val incr : counter -> unit
(** [incr c] adds one — when enabled; otherwise does nothing. *)

val add : counter -> int -> unit
(** [add c k] adds [k] — when enabled.  Preferred in loops: count
    locally, [add] once. *)

val set : gauge -> float -> unit
(** [set g v] records [v] — when enabled. *)

val observe : histogram -> float -> unit
(** [observe h v] folds [v] into [h] — when enabled and on the main
    domain; otherwise does nothing. *)

val span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()] inside a trace span named [name] (see
    {!Obs_trace.with_span}); when disabled, or on a [Par] worker
    domain, it is exactly [f ()]. *)

val snapshot : unit -> Obs_metrics.snapshot
(** [snapshot ()] is {!Obs_metrics.snapshot} (always available, even
    while disabled — counters will simply read zero). *)

val trace_events : unit -> Obs_trace.event list
(** [trace_events ()] is {!Obs_trace.events}. *)

val metrics_report : unit -> string
(** [metrics_report ()] renders the current registry and spans with
    {!Obs_report.render}. *)

val trace_json_string : unit -> string
(** [trace_json_string ()] is the recorded trace serialized in Chrome
    [trace_event] format (see {!Obs_trace.to_json}). *)

val write_trace : string -> unit
(** [write_trace path] writes {!trace_json_string} to [path] followed
    by a newline, creating or truncating the file. *)
