(* Fuzz properties for the trace-scale streaming simulation stack.

   The streaming pipeline re-derives results the materialized stack
   already computes, so every claim here is differential:

   - the Event_queue drains in (time, insertion) order whatever
     the interleaving of adds and pops;
   - Streaming_metrics agrees with a direct fold over the same
     observations to 1e-9;
   - a constant-speed Sim.run_stream over an instance's jobs agrees
     with Online_driver.run — single FIFO server, identical
     completions;
   - streams are replayable: the same (seed, spec) yields the same
     jobs whether pulled one by one or materialized. *)

let tol = 1e-9

let close = Oracle.close ~tol

(* queue drain order: feed case-derived (time, index) pairs through an
   add/pop interleaving driven by the same randomness, then check the
   drained tail is sorted by time with insertion order breaking ties *)
let queue_drain c =
  let n = Stdlib.min 64 (Stdlib.max 8 (Instance.n c.Oracle.inst * 4)) in
  let q = Event_queue.of_capacity 4 in
  let added = ref [] in
  let popped = ref [] in
  for i = 0 to n - 1 do
    (* coarse time grid on purpose: ties must happen for the seq
       tie-break to be exercised; the value is the insertion index, so
       equal-time events must drain in increasing value *)
    let t = Float.of_int (int_of_float (8.0 *. Oracle.aux_float c ~salt:0x51e4 ~index:i)) in
    Event_queue.add q t i;
    added := (t, i) :: !added;
    (* interleaved pops move entries through every heap level *)
    if Oracle.aux_float c ~salt:0x9051 ~index:i < 0.4 && not (Event_queue.is_empty q) then begin
      let t = Event_queue.min_time q in
      popped := (t, Event_queue.pop q) :: !popped
    end
  done;
  let tail = Event_queue.drain q in
  let all = List.rev !popped @ tail in
  let rec sorted = function
    | (t1, v1) :: ((t2, v2) :: _ as rest) ->
      (t1 < t2 || (t1 = t2 && v1 < v2)) && sorted rest
    | _ -> true
  in
  if List.length all <> n then Oracle.Fail "drain lost or duplicated events"
  else if List.sort compare all <> List.sort compare !added then
    Oracle.Fail "drained events are not the added events"
  else if not (sorted tail) then Oracle.Fail "final drain violates (time, insertion) order"
  else Oracle.Pass

(* Streaming_metrics vs a direct fold over the same flows *)
let metrics_exact c =
  let inst = c.Oracle.inst in
  if Instance.is_empty inst then Oracle.Skip "empty instance"
  else begin
    let m = Streaming_metrics.create () in
    let jobs = Instance.jobs inst in
    let flows =
      Array.map
        (fun (j : Job.t) ->
          let flow = j.Job.work +. Oracle.aux_float c ~salt:0x3a1f ~index:j.Job.id in
          Streaming_metrics.observe m ~release:j.Job.release ~completion:(j.Job.release +. flow);
          flow)
        jobs
    in
    let n = Array.length flows in
    let total = Array.fold_left ( +. ) 0.0 flows in
    let mean = total /. float_of_int n in
    let fmax = Array.fold_left Float.max Float.neg_infinity flows in
    let s = Streaming_metrics.snapshot m in
    if s.Streaming_metrics.jobs <> n then Oracle.Fail "job count drifted"
    else if not (close s.Streaming_metrics.flow_total total) then
      Oracle.fail_eq "streamed flow total" ~expected:total ~got:s.Streaming_metrics.flow_total
    else if not (close s.Streaming_metrics.flow_mean mean) then
      Oracle.fail_eq "streamed flow mean" ~expected:mean ~got:s.Streaming_metrics.flow_mean
    else if not (close s.Streaming_metrics.flow_max fmax) then
      Oracle.fail_eq "streamed flow max" ~expected:fmax ~got:s.Streaming_metrics.flow_max
    else Oracle.Pass
  end

(* constant-speed agreement: Sim.run_stream (multi-server machinery at
   width 1, streaming) vs Online_driver.run (materialized) *)
let stream_vs_driver c =
  let inst = c.Oracle.inst in
  if Instance.is_empty inst then Oracle.Skip "empty instance"
  else begin
    let model = Oracle.model c in
    let speed = 0.5 +. Oracle.aux_float c ~salt:0x5bee ~index:0 in
    let driver = Online_driver.run model inst (Online_driver.constant_speed speed) in
    let sim =
      Sim.run_stream model (Sim.constant_policy speed)
        (Workload.Stream.pull_fn (Workload.Stream.of_instance inst))
    in
    if not (close sim.Sim.metrics.Streaming_metrics.makespan driver.Online_driver.makespan)
    then
      Oracle.fail_eq "Sim.run_stream makespan differs from the online driver"
        ~expected:driver.Online_driver.makespan ~got:sim.Sim.metrics.Streaming_metrics.makespan
    else if not (close sim.Sim.metrics.Streaming_metrics.energy driver.Online_driver.energy) then
      Oracle.fail_eq "Sim.run_stream energy differs from the online driver"
        ~expected:driver.Online_driver.energy ~got:sim.Sim.metrics.Streaming_metrics.energy
    else if
      not (close sim.Sim.metrics.Streaming_metrics.flow_total driver.Online_driver.total_flow)
    then
      Oracle.fail_eq "Sim.run_stream flow differs from the online driver"
        ~expected:driver.Online_driver.total_flow
        ~got:sim.Sim.metrics.Streaming_metrics.flow_total
    else Oracle.Pass
  end

(* replayability: same (seed, spec) → same jobs, pulled or materialized *)
let stream_replay c =
  let n = Stdlib.min 48 (Stdlib.max 4 (Instance.n c.Oracle.inst * 4)) in
  let spec () =
    Workload.Stream.make ~seed:c.Oracle.seed ~limit:n
      ~size:(Workload.Stream.Pareto { shape = 1.5; scale = 1.0 })
      (Workload.Stream.Diurnal { base = 1.0; amplitude = 0.8; period = 16.0 })
  in
  let a = Workload.Stream.take (spec ()) n in
  let b = Instance.jobs (Workload.Stream.to_instance (spec ())) in
  if List.length a <> Array.length b then Oracle.Fail "replay produced a different job count"
  else if List.for_all2 Job.equal a (Array.to_list b) then Oracle.Pass
  else Oracle.Fail "replayed stream differs from its materialization"

let props =
  [
    {
      Oracle.name = "sim:queue-drain";
      doc = "pooled Event_queue drains sorted by time, ties by insertion";
      run = queue_drain;
    };
    {
      Oracle.name = "sim:metrics-exact";
      doc = "Streaming_metrics totals agree with a direct fold to 1e-9";
      run = metrics_exact;
    };
    {
      Oracle.name = "sim:stream-vs-driver";
      doc = "constant-speed run_stream agrees with the materialized online driver";
      run = stream_vs_driver;
    };
    {
      Oracle.name = "sim:stream-replay";
      doc = "streams are replayable: pull-by-pull equals materialized per seed";
      run = stream_replay;
    };
  ]

let registered = ref false

let register () =
  if not !registered then begin
    registered := true;
    List.iter Oracle.register props
  end
