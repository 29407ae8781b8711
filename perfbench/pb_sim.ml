(* sim_trace: Sim.run_stream over the `pasched sim` defaults — a
   diurnal (base 1, amplitude 0.8, period 1000) / Pareto(2.2, 0.5)
   Workload.Stream on one processor under the constant 2.0 policy at
   P = σ³ — in traces of [trace_jobs] jobs.  No serve layer runs. *)

open Pb_util

let trace_jobs = 1_000_000

(* jobs per latency sample, about half a millisecond of work *)
let chunk = 1_000

let model = Power_model.alpha 3.0
let policy = Sim.constant_policy 2.0

let stream ~seed ~jobs =
  Workload.Stream.make ~seed ~limit:jobs
    ~size:(Workload.Stream.Pareto { shape = 2.2; scale = 0.5 })
    (Workload.Stream.Diurnal { base = 1.0; amplitude = 0.8; period = 1000.0 })

(* stream seeds come from the benchmark's generator *)
let trace_seeds ~seed =
  let r = rng ~seed ~tag:30 in
  fun () -> Int64.to_int (Int64.shift_right_logical (next r) 2)

(* The wrapped pull function counts jobs and sums their work for the
   energy identity; [on_chunk] fires every [chunk] jobs.  The work sum
   lives in a float array so the wrapper allocates nothing. *)
type pulls = { mutable pulled : int; work : Float.Array.t }

let wrap ~on_chunk pull =
  let p = { pulled = 0; work = Float.Array.make 1 0.0 } in
  let f () =
    match pull () with
    | Some (j : Job.t) as r ->
      Float.Array.unsafe_set p.work 0 (Float.Array.unsafe_get p.work 0 +. j.Job.work);
      p.pulled <- p.pulled + 1;
      if p.pulled mod chunk = 0 then on_chunk ();
      r
    | None -> None
  in
  (p, f)

let check ~jobs p report = Pb_check.sim_ok ~jobs ~pulled:p.pulled ~work:(Float.Array.get p.work 0) report

(* the untimed warm-up operation of set-up *)
let warm_up () =
  let p, pull = wrap ~on_chunk:ignore (Workload.Stream.pull_fn (stream ~seed:1 ~jobs:2_000)) in
  match check ~jobs:2_000 p (Sim.run_stream model policy pull) with
  | Ok () -> ()
  | Error e -> fail "warm-up simulation: %s" e

(* Timed phase, in the worker process: whole traces until [seconds].
   A trace's samples are one latency group. *)
let timed ~seed ~seconds =
  let next_seed = trace_seeds ~seed in
  let chunk_ms = Array.make (trace_jobs / chunk) 0.0 and groups = grouped () in
  let attempted = ref 0 and failed = ref 0 and correct = ref 0 and traces = ref 0 and notes = ref [] in
  let elapsed = ref 0 and budget = int_of_float (seconds *. 1e9) in
  while !elapsed < budget do
    let mark = ref 0 and k = ref 0 in
    let on_chunk () =
      let t = now_ns () in
      chunk_ms.(!k) <- ms_of_ns (t - !mark);
      incr k;
      mark := t
    in
    let p, pull = wrap ~on_chunk (Workload.Stream.pull_fn (stream ~seed:(next_seed ()) ~jobs:trace_jobs)) in
    let t0 = now_ns () in
    mark := t0;
    let report = Sim.run_stream model policy pull in
    let dt = now_ns () - t0 in
    elapsed := !elapsed + dt;
    add_group groups chunk_ms;
    attempted := !attempted + trace_jobs;
    incr traces;
    match check ~jobs:trace_jobs p report with
    | Ok () -> correct := !correct + trace_jobs
    | Error e ->
      failed := !failed + trace_jobs;
      notes := e :: !notes
  done;
  let open Obs_json in
  worker_result ~attempted:!attempted ~failed:!failed
    ~ops_per_s:(float_of_int !correct /. s_of_ns !elapsed)
    ~latency:(grouped_percentiles groups)
    [
      ("latency_sample", String (Printf.sprintf "%d simulated jobs" chunk));
      ("traces", Int !traces);
      ("trace_jobs", Int trace_jobs);
      ("timed_s", Float (s_of_ns !elapsed));
      ("failures", List (List.map (fun s -> String s) !notes));
    ]

(* ---------------- traced run ---------------- *)

(* Each trace runs twice on the same stream seed: untraced, then with
   every pull timed and its allocation counted.  Per-pull spans would
   outgrow memory at this length, so one pull in [span_every] is kept
   as a span; the totals come from every pull.  The number of traces
   is fixed by --seconds (one per 5 s, at least two), not timed, so
   the same seed and length repeat the same counts. *)
let span_every = 4096

let traced_traces seconds = Int.max 2 (int_of_float (seconds /. 5.0))

type pull_acc = { ns : Float.Array.t; words : Float.Array.t }

let run_traced ~seed ~seconds ~trace_file =
  let next_seed = trace_seeds ~seed in
  let tr = Pb_trace.create () in
  let jobs = ref 0 and failed = ref 0 and traces = ref 0 in
  let untraced_ns = ref 0 and traced_ns = ref 0 in
  let acc = { ns = Float.Array.make 1 0.0; words = Float.Array.make 1 0.0 } in
  let run_words = ref 0.0 and events = ref 0 in
  let failures = ref [] in
  let checked name p report =
    match check ~jobs:trace_jobs p report with
    | Ok () -> true
    | Error e ->
      failures := (name ^ ": " ^ e) :: !failures;
      false
  in
  let events_counter = Obs.counter "sim.events_dispatched" in
  Obs_trace.set_max_events 0;
  for _ = 1 to traced_traces seconds do
    let s = next_seed () in
    (* untraced *)
    let p, pull = wrap ~on_chunk:ignore (Workload.Stream.pull_fn (stream ~seed:s ~jobs:trace_jobs)) in
    let t0 = now_ns () in
    let report = Sim.run_stream model policy pull in
    let du = now_ns () - t0 in
    untraced_ns := !untraced_ns + du;
    let untraced_ok = checked "untraced" p report in
    (* traced *)
    let src = Workload.Stream.pull_fn (stream ~seed:s ~jobs:trace_jobs) in
    let n = ref 0 in
    let timed_pull () =
      let w0 = Gc.minor_words () in
      let a = now_ns () in
      let r = src () in
      let b = now_ns () in
      Float.Array.unsafe_set acc.words 0 (Float.Array.unsafe_get acc.words 0 +. (Gc.minor_words () -. w0));
      Float.Array.unsafe_set acc.ns 0 (Float.Array.unsafe_get acc.ns 0 +. float_of_int (b - a));
      incr n;
      if !n mod span_every = 0 then Pb_trace.record tr "workload.stream.pull" ~req:!traces ~t0:a ~t1:b;
      r
    in
    let p, pull = wrap ~on_chunk:ignore timed_pull in
    Obs.set_enabled true;
    let e0 = Obs_metrics.value events_counter in
    let w0 = Gc.minor_words () in
    let id = Pb_trace.enter tr "sim.run_stream" ~req:!traces in
    let report = Sim.run_stream model policy pull in
    Pb_trace.leave tr id;
    run_words := !run_words +. (Gc.minor_words () -. w0);
    events := !events + Obs_metrics.value events_counter - e0;
    Obs.set_enabled false;
    traced_ns := !traced_ns + Pb_trace.duration tr id;
    if not (checked "traced" p report && untraced_ok) then failed := !failed + trace_jobs;
    jobs := !jobs + trace_jobs;
    incr traces
  done;
  Pb_trace.write_chrome tr trace_file;
  let jobs_f = float_of_int !jobs in
  let pull_ns = Float.Array.get acc.ns 0 and pull_words = Float.Array.get acc.words 0 in
  let metrics =
    [
      m "workload.stream.pull_ns" (pull_ns /. jobs_f);
      m "workload.stream.words_per_job" (pull_words /. jobs_f);
      m "sim.self_ns" ((float_of_int !traced_ns -. pull_ns) /. jobs_f);
      m "sim.events_per_job" (float_of_int !events /. jobs_f);
      m "sim.words_per_job" ((!run_words -. pull_words) /. jobs_f);
      m "sim.top_heap_mb"
        (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
      m "trace.overhead_pct"
        (100.0 *. float_of_int (!traced_ns - !untraced_ns) /. float_of_int !untraced_ns);
    ]
  in
  let details =
    let open Obs_json in
    [
      ("traces", Int !traces);
      ("jobs", Int !jobs);
      ("spans", Int tr.Pb_trace.n);
      ("pull_span_every", Int span_every);
      ("trace_file", String trace_file);
      ("failures", List (List.map (fun s -> String s) !failures));
    ]
  in
  (!jobs, !failed, metrics, details)
