(* The facade: one global switch in front of the unconditional
   machinery in Obs_metrics / Obs_trace.

   Every operation here starts with [if not !on then ...], so with
   instrumentation disabled an instrumented hot path pays one load and
   one conditional branch per call site — nothing is allocated, no
   clock is read, no hash table is touched.  Instrumented modules
   additionally batch loop-iteration counts into a local int and call
   [add] once per solve, so even the branch is off the innermost
   loops. *)

let on = ref false

let enabled () = !on
let set_enabled b = on := b

let reset () =
  Obs_metrics.reset ();
  Obs_trace.clear ()

type counter = Obs_metrics.counter
type gauge = Obs_metrics.gauge
type histogram = Obs_metrics.histogram

let counter = Obs_metrics.counter
let gauge = Obs_metrics.gauge
let histogram = Obs_metrics.histogram

let incr c = if !on then Obs_metrics.incr c
let add c k = if !on then Obs_metrics.add c k
let set g v = if !on then Obs_metrics.set g v

(* Counters and gauges are atomic, so they record from pool workers
   too.  Histograms and trace spans update unsynchronized shared state
   (several mutable fields; the global span buffer), so on a worker
   domain they degrade to no-ops rather than race — the main domain
   still sees its own spans and timings, and parallel sections appear
   in the metrics via the atomic counters. *)
let main_domain () = not (Par.on_worker_domain ())

let observe h v = if !on && main_domain () then Obs_metrics.observe h v

let span ?args name f =
  if !on && main_domain () then Obs_trace.with_span ?args name f else f ()

let snapshot = Obs_metrics.snapshot
let trace_events = Obs_trace.events

let metrics_report () = Obs_report.render (Obs_metrics.snapshot ()) (Obs_trace.events ())

let trace_json_string () = Obs_json.to_string (Obs_trace.to_json ())

let write_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (trace_json_string ());
      output_char oc '\n')
