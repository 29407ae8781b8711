(* Tests for the trace-scale streaming stack: the event queue,
   constant-memory metrics, pull-based workload streams, and the
   streaming simulators' agreement with the materialized ones. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ---------- Event_queue: pooling, clear, of_capacity ---------- *)

let test_queue_of_capacity () =
  let q = Event_queue.of_capacity 2 in
  check_bool "empty" true (Event_queue.is_empty q);
  for i = 0 to 99 do
    Event_queue.add q (float_of_int (100 - i)) i
  done;
  check_int "size" 100 (Event_queue.size q);
  let drained = Event_queue.drain q in
  check_int "drained all" 100 (List.length drained);
  check_bool "sorted" true
    (List.sort compare (List.map fst drained) = List.map fst drained);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Event_queue.of_capacity: negative capacity") (fun () ->
      ignore (Event_queue.of_capacity (-1)))

let test_queue_clear () =
  let q = Event_queue.create () in
  Event_queue.add q 2.0 1;
  Event_queue.add q 1.0 0;
  Event_queue.clear q;
  check_bool "cleared" true (Event_queue.is_empty q);
  check_int "size 0" 0 (Event_queue.size q);
  Alcotest.check_raises "no earliest time" (Invalid_argument "Event_queue.min_time: empty queue")
    (fun () -> ignore (Event_queue.min_time q));
  (* the tie-break counter restarts too: insertion order is fresh *)
  Event_queue.add q 5.0 1;
  Event_queue.add q 5.0 0;
  Alcotest.(check (list int)) "fresh order" [ 1; 0 ]
    (List.map snd (Event_queue.drain q))

(* allocated minor words of [f ()], exactly *)
let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_queue_pooling_no_alloc () =
  (* steady-state add plus pop allocates nothing: times sit unboxed in
     the heap's arrays and pop returns the payload alone.  The times are
     boxed once up front (a list's floats are), so the loop measures the
     queue, not the boxing of its arguments. *)
  let q = Event_queue.of_capacity 16 in
  for i = 0 to 15 do
    Event_queue.add q (float_of_int i) i
  done;
  for _ = 0 to 7 do
    ignore (Event_queue.pop q)
  done;
  let times = List.init 97 float_of_int in
  let rec go k = function
    | [] -> if k > 0 then go k times
    | t :: rest ->
      Event_queue.add q t k;
      ignore (Event_queue.pop q);
      go (k - 1) rest
  in
  let allocated = words (fun () -> go 10_000 times) in
  Alcotest.(check (float 0.0)) "words for 10k add/pop pairs" 0.0 allocated

let prop_queue_interleaved =
  QCheck.Test.make ~count:300 ~name:"pooled queue: interleaved add/pop preserves order and content"
    QCheck.(list_of_size (Gen.int_range 0 120) (pair (int_range 0 15) bool))
    (fun ops ->
      let q = Event_queue.of_capacity 1 in
      let added = ref [] in
      let popped = ref [] in
      let k = ref 0 in
      List.iter
        (fun (t, do_pop) ->
          Event_queue.add q (float_of_int t) !k;
          added := (float_of_int t, !k) :: !added;
          incr k;
          if do_pop then
            let t = Event_queue.min_time q in
            popped := (t, Event_queue.pop q) :: !popped)
        ops;
      let tail = Event_queue.drain q in
      let all = List.rev !popped @ tail in
      let rec tail_sorted = function
        | (t1, v1) :: ((t2, v2) :: _ as rest) ->
          (t1 < t2 || (t1 = t2 && v1 < v2)) && tail_sorted rest
        | _ -> true
      in
      List.length all = List.length !added
      && List.sort compare all = List.sort compare !added
      && tail_sorted tail)

let prop_queue_heap_property =
  QCheck.Test.make ~count:200 ~name:"pooled queue: pop is always the minimum of the live set"
    QCheck.(list_of_size (Gen.int_range 1 80) (float_range 0.0 50.0))
    (fun times ->
      (* maintain a reference multiset; each pop must return its min *)
      let q = Event_queue.create () in
      let live = ref [] in
      let ok = ref true in
      List.iteri
        (fun i t ->
          Event_queue.add q t i;
          live := t :: !live;
          if i mod 3 = 0 then begin
            let got = Event_queue.min_time q in
            ignore (Event_queue.pop q);
            let m = List.fold_left Float.min Float.infinity !live in
            if got <> m then ok := false;
            live :=
              (let rec drop = function
                 | [] -> []
                 | x :: rest -> if x = m then rest else x :: drop rest
               in
               drop !live)
          end)
        times;
      !ok)

(* ---------- Streaming_metrics vs exact ---------- *)

let test_welford_exact () =
  let xs = [ 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0 ] in
  let w = Streaming_metrics.Welford.create () in
  List.iter (Streaming_metrics.Welford.add w) xs;
  let n = float_of_int (List.length xs) in
  let total = List.fold_left ( +. ) 0.0 xs in
  let mean = total /. n in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. (n -. 1.0)
  in
  check_int "count" 8 (Streaming_metrics.Welford.count w);
  checkf "sum" total (Streaming_metrics.Welford.sum w);
  checkf "mean" mean (Streaming_metrics.Welford.mean w);
  checkf "variance" var (Streaming_metrics.Welford.variance w);
  checkf "min" 1.0 (Streaming_metrics.Welford.minimum w);
  checkf "max" 9.0 (Streaming_metrics.Welford.maximum w);
  Streaming_metrics.Welford.clear w;
  check_int "cleared" 0 (Streaming_metrics.Welford.count w);
  checkf "cleared mean" 0.0 (Streaming_metrics.Welford.mean w)

let test_p2_small_exact () =
  (* with at most 5 observations the P² estimate is the exact
     interpolated quantile *)
  let p = Streaming_metrics.P2.create 0.5 in
  List.iter (Streaming_metrics.P2.add p) [ 9.0; 1.0; 5.0 ];
  checkf "median of 3" 5.0 (Streaming_metrics.P2.quantile p);
  Streaming_metrics.P2.add p 3.0;
  checkf "median of 4" 4.0 (Streaming_metrics.P2.quantile p);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Streaming_metrics.P2.create: q outside [0, 1]") (fun () ->
      ignore (Streaming_metrics.P2.create 1.5))

let test_observe_no_alloc () =
  (* past the five-observation bootstrap, observing allocates nothing;
     release and completion arrive boxed, as a Job.t's fields do *)
  let rng = Rng.make 5 in
  let obs =
    List.init 1000 (fun i ->
        let release = float_of_int i in
        (release, release +. Rng.float rng 4.0))
  in
  let m = Streaming_metrics.create () in
  let observe (release, completion) = Streaming_metrics.observe m ~release ~completion in
  let feed () = List.iter observe obs in
  feed ();
  Alcotest.(check (float 0.0)) "words for 10k observations" 0.0
    (words (fun () -> for _ = 1 to 10 do feed () done));
  check_int "all observed" 11_000 (Streaming_metrics.jobs m)

let prop_p2_bracketed =
  QCheck.Test.make ~count:200 ~name:"P2 estimate stays within observed range"
    QCheck.(pair (float_range 0.05 0.95) (list_of_size (Gen.int_range 6 400) (float_range 0.0 100.0)))
    (fun (q, xs) ->
      let p = Streaming_metrics.P2.create q in
      List.iter (Streaming_metrics.P2.add p) xs;
      let est = Streaming_metrics.P2.quantile p in
      let lo = List.fold_left Float.min Float.infinity xs in
      let hi = List.fold_left Float.max Float.neg_infinity xs in
      est >= lo -. 1e-9 && est <= hi +. 1e-9)

let prop_p2_accuracy =
  (* on a large uniform sample the P² median lands near the true one *)
  QCheck.Test.make ~count:20 ~name:"P2 median within 10% on uniform samples"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Rng.make seed in
      let p = Streaming_metrics.P2.create 0.5 in
      for _ = 1 to 5_000 do
        Streaming_metrics.P2.add p (Rng.float rng 1.0)
      done;
      Float.abs (Streaming_metrics.P2.quantile p -. 0.5) < 0.05)

let test_aggregate_metrics_exact () =
  let inst = Workload.heavy_tailed ~seed:7 ~n:64 ~shape:1.8 ~scale:1.0 (Workload.Poisson 2.0) in
  let out = Online_driver.run Power_model.cube inst (Online_driver.constant_speed 3.0) in
  let m = Streaming_metrics.create () in
  List.iter
    (fun ((j : Job.t), c) -> Streaming_metrics.observe m ~release:j.Job.release ~completion:c)
    out.Online_driver.completions;
  let s = Streaming_metrics.snapshot m in
  check_int "jobs" 64 s.Streaming_metrics.jobs;
  checkf "total flow" out.Online_driver.total_flow s.Streaming_metrics.flow_total;
  checkf "makespan" out.Online_driver.makespan s.Streaming_metrics.makespan;
  let flows =
    List.map (fun ((j : Job.t), c) -> c -. j.Job.release) out.Online_driver.completions
  in
  checkf "mean" (out.Online_driver.total_flow /. 64.0) s.Streaming_metrics.flow_mean;
  checkf "max" (List.fold_left Float.max 0.0 flows) s.Streaming_metrics.flow_max;
  Alcotest.check_raises "negative flow rejected"
    (Invalid_argument "Streaming_metrics.observe: completion precedes release") (fun () ->
      Streaming_metrics.observe m ~release:2.0 ~completion:1.0)

(* ---------- Workload.Stream ---------- *)

let stream_spec seed =
  Workload.Stream.make ~seed ~limit:200
    ~size:(Workload.Stream.Pareto { shape = 2.2; scale = 0.5 })
    (Workload.Stream.Diurnal { base = 1.0; amplitude = 0.8; period = 50.0 })

let test_stream_deterministic () =
  let a = Workload.Stream.take (stream_spec 11) 200 in
  let b = Workload.Stream.take (stream_spec 11) 200 in
  let c = Workload.Stream.take (stream_spec 12) 200 in
  check_int "limit respected" 200 (List.length a);
  check_bool "same seed, same jobs" true (List.for_all2 Job.equal a b);
  check_bool "different seed, different jobs" true
    (not (List.for_all2 Job.equal a c))

let bench_size = Workload.Stream.Pareto { shape = 2.2; scale = 0.5 }
let bench_process = Workload.Stream.Diurnal { base = 1.0; amplitude = 0.8; period = 1000.0 }
let bench_stream ~seed n = Workload.Stream.make ~seed ~limit:n ~size:bench_size bench_process

(* minor words per job of pulling [s] dry *)
let pull_words n s =
  let rec drain () = match Workload.Stream.next s with None -> () | Some _ -> drain () in
  words drain /. float_of_int n

let test_stream_pull_alloc () =
  (* a pull allocates the job it returns and nothing else: the Some,
     the record and its two boxed floats, 10 words; a fixed size is
     shared, 8 *)
  let n = 20_000 in
  Alcotest.(check (float 0.0)) "words per job on the bench trace" 10.0
    (pull_words n (bench_stream ~seed:42 n));
  List.iter
    (fun process ->
      List.iter
        (fun size ->
          let w = pull_words n (Workload.Stream.make ~seed:3 ~limit:n ~size process) in
          check_bool (Printf.sprintf "at most 10 words per job (%.3f)" w) true (w <= 10.0))
        [
          Workload.Stream.Fixed_size 1.0;
          Workload.Stream.Uniform_size { lo = 0.5; hi = 2.0 };
          Workload.Stream.Pareto { shape = 1.5; scale = 1.0 };
        ])
    [
      Workload.Stream.Poisson_process 2.0;
      Workload.Stream.Diurnal { base = 1.0; amplitude = 0.9; period = 20.0 };
      Workload.Stream.Mmpp { rate_on = 5.0; rate_off = 0.0; mean_on = 4.0; mean_off = 16.0 };
      Workload.Stream.Mmpp { rate_on = 4.0; rate_off = 0.2; mean_on = 20.0; mean_off = 80.0 };
      Workload.Stream.Staircase_process 0.5;
    ]

let test_stream_monotone_releases () =
  List.iter
    (fun process ->
      let s =
        Workload.Stream.make ~seed:5 ~limit:300 ~size:(Workload.Stream.Fixed_size 1.0) process
      in
      let jobs = Workload.Stream.take s 300 in
      let rec mono = function
        | (a : Job.t) :: (b :: _ as rest) -> a.Job.release <= b.Job.release && mono rest
        | _ -> true
      in
      check_bool "monotone releases" true (mono jobs);
      check_bool "nonnegative" true
        (List.for_all (fun (j : Job.t) -> j.Job.release >= 0.0 && j.Job.work > 0.0) jobs))
    [
      Workload.Stream.Poisson_process 2.0;
      Workload.Stream.Diurnal { base = 1.0; amplitude = 0.9; period = 20.0 };
      Workload.Stream.Mmpp { rate_on = 5.0; rate_off = 0.0; mean_on = 4.0; mean_off = 16.0 };
      Workload.Stream.Staircase_process 0.5;
    ]

let test_stream_materialize_equals_pull () =
  let pulled = Workload.Stream.take (stream_spec 3) 200 in
  let inst = Workload.Stream.to_instance (stream_spec 3) in
  check_int "same count" 200 (Instance.n inst);
  List.iteri
    (fun i j -> check_bool "same job" true (Job.equal j (Instance.job inst i)))
    pulled

let test_array_generators_on_stream_path () =
  (* the array generators are rebased on Stream.of_array →
     Stream.to_instance; their output must match a direct
     materialization of the same draws *)
  let seed = 9 and n = 40 in
  let arrival = Workload.Poisson 1.5 in
  let inst = Workload.equal_work ~seed ~n ~work:2.0 arrival in
  let rs = Workload.releases ~seed arrival n in
  check_int "n" n (Instance.n inst);
  Array.iteri
    (fun i r ->
      let j = Instance.job inst i in
      checkf "release preserved" r j.Job.release;
      checkf "work preserved" 2.0 j.Job.work)
    rs;
  (* streaming an instance back out is the identity *)
  let round = Workload.Stream.to_instance (Workload.Stream.of_instance inst) in
  check_bool "of_instance round-trip" true
    (Array.for_all2 Job.equal (Instance.jobs inst) (Instance.jobs round))

let test_deadline_arrays_agree () =
  let a =
    Workload.deadline_jobs_arrays ~seed:21 ~n:30 ~work:(0.5, 3.0) ~slack:(0.5, 4.0)
      (Workload.Poisson 1.0)
  in
  let boxed =
    Workload.deadline_jobs ~seed:21 ~n:30 ~work:(0.5, 3.0) ~slack:(0.5, 4.0) (Workload.Poisson 1.0)
  in
  check_int "columns length" 30 (Array.length a.Workload.release);
  List.iteri
    (fun i (r, d, w) ->
      checkf "release" a.Workload.release.(i) r;
      checkf "deadline" a.Workload.deadline.(i) d;
      checkf "work" a.Workload.work.(i) w;
      check_bool "deadline after release" true (d > r))
    boxed

let test_stream_with_deadlines () =
  let s = stream_spec 4 in
  let next = Workload.Stream.with_deadlines ~seed:4 ~slack:(0.5, 4.0) s in
  let rec go k =
    if k > 0 then
      match next () with
      | None -> Alcotest.fail "stream dried up early"
      | Some (j, d) ->
        check_bool "deadline beyond release" true (d >= j.Job.release +. (0.5 *. j.Job.work));
        go (k - 1)
  in
  go 100

(* ---------- streaming simulators ---------- *)

let test_run_stream_agrees_with_driver () =
  let inst = Workload.heavy_tailed ~seed:13 ~n:80 ~shape:2.0 ~scale:1.0 (Workload.Poisson 1.0) in
  let model = Power_model.cube in
  let speed = 2.0 in
  let driver = Online_driver.run model inst (Online_driver.constant_speed speed) in
  let sim =
    Sim.run_stream model (Sim.constant_policy speed)
      (Workload.Stream.pull_fn (Workload.Stream.of_instance inst))
  in
  check_int "jobs" 80 sim.Sim.metrics.Streaming_metrics.jobs;
  checkf "sim makespan" driver.Online_driver.makespan sim.Sim.metrics.Streaming_metrics.makespan;
  checkf "sim energy" driver.Online_driver.energy sim.Sim.metrics.Streaming_metrics.energy;
  checkf "sim flow" driver.Online_driver.total_flow sim.Sim.metrics.Streaming_metrics.flow_total

let test_run_stream_multiproc_conserves () =
  (* work conservation across widths: all jobs complete, released work
     equals the instance total, energy = work·speed^(α−1) at constant
     speed regardless of the number of servers *)
  let inst = Workload.heavy_tailed ~seed:17 ~n:120 ~shape:2.0 ~scale:1.0 (Workload.Poisson 2.0) in
  let total = Instance.total_work inst in
  let speed = 2.0 in
  List.iter
    (fun procs ->
      let config = { Sim.default_stream_config with Sim.procs } in
      let r =
        Sim.run_stream ~config Power_model.cube (Sim.constant_policy speed)
          (Workload.Stream.pull_fn (Workload.Stream.of_instance inst))
      in
      check_int "all jobs" 120 r.Sim.metrics.Streaming_metrics.jobs;
      checkf "released work" total r.Sim.metrics.Streaming_metrics.released_work;
      Alcotest.(check (float 1e-6))
        "energy is work * speed^2" (total *. speed *. speed)
        r.Sim.metrics.Streaming_metrics.energy)
    [ 1; 2; 4 ]

let test_run_stream_rejects_no_procs () =
  (* a width below 1 is refused, not clamped to one processor *)
  List.iter
    (fun procs ->
      let config = { Sim.default_stream_config with Sim.procs } in
      match
        Sim.run_stream ~config Power_model.cube (Sim.constant_policy 2.0)
          (Workload.Stream.pull_fn (Workload.Stream.of_instance Instance.figure1))
      with
      | _ -> Alcotest.failf "procs %d was accepted" procs
      | exception Invalid_argument _ -> ())
    [ 0; -1 ]

let test_run_stream_rejects_bad_overheads () =
  (* negative switch costs and non-positive thermal constants are
     refused before the source is pulled, with the messages of
     Processor.create and Thermal *)
  let pulled = ref false in
  let pull () =
    pulled := true;
    None
  in
  let base = Sim.default_stream_config in
  List.iter
    (fun (config, msg) ->
      Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
          ignore (Sim.run_stream ~config Power_model.cube (Sim.constant_policy 2.0) pull)))
    [
      ( { base with Sim.base = { Sim.default_config with Sim.switch_time = -0.01 } },
        "Processor.create: negative switch overhead" );
      ( { base with Sim.base = { Sim.default_config with Sim.switch_energy = -1.0 } },
        "Processor.create: negative switch overhead" );
      ({ base with Sim.thermal = Some (0.3, 0.0) }, "Thermal: heating and cooling must be positive");
      ({ base with Sim.thermal = Some (-1.0, 0.1) }, "Thermal: heating and cooling must be positive");
    ];
  check_bool "the source was never pulled" false !pulled

let test_run_stream_levels_and_switches () =
  let inst = Instance.of_pairs [ (0.0, 1.0); (0.5, 1.0); (4.0, 1.0) ] in
  let config =
    {
      Sim.base = { Sim.levels = Some Discrete_levels.athlon64; switch_time = 0.1; switch_energy = 0.5 };
      procs = 1;
      thermal = Some (1.0, 0.5);
      watermark_every = 0;
    }
  in
  (* requested 1.9 rounds up to level 2.0; requested 3.0 exceeds the
     top level and clamps down *)
  let r =
    Sim.run_stream ~config Power_model.cube (Sim.constant_policy 1.9)
      (Workload.Stream.pull_fn (Workload.Stream.of_instance inst))
  in
  check_int "one switch (idle to 2.0, then steady)" 1 r.Sim.stream_switches;
  check_int "no clamps" 0 r.Sim.clamps;
  let r2 =
    Sim.run_stream ~config Power_model.cube (Sim.constant_policy 3.0)
      (Workload.Stream.pull_fn (Workload.Stream.of_instance inst))
  in
  check_int "every dispatch clamps" 3 r2.Sim.clamps;
  (match r2.Sim.peak_temperature with
  | Some t -> check_bool "bounded by steady state" true (t > 0.0 && t <= 1.0 *. 8.0 /. 0.5 +. 1e-9)
  | None -> Alcotest.fail "thermal enabled but no peak reported");
  (* at speed 2.0 for all three jobs: makespan = last completion *)
  check_bool "horizon reached" true (r.Sim.horizon >= 4.0)

let test_run_stream_watermarks () =
  let hits = ref [] in
  let config = { Sim.default_stream_config with Sim.watermark_every = 10 } in
  let s =
    Workload.Stream.make ~seed:2 ~limit:35 ~size:(Workload.Stream.Fixed_size 1.0)
      (Workload.Stream.Poisson_process 1.0)
  in
  let _ =
    Sim.run_stream ~config
      ~watermark:(fun snap -> hits := snap.Streaming_metrics.jobs :: !hits)
      Power_model.cube (Sim.constant_policy 2.0) (Workload.Stream.pull_fn s)
  in
  Alcotest.(check (list int)) "watermarks at every 10 completions" [ 10; 20; 30 ] (List.rev !hits)

let test_run_stream_jobs_invariant () =
  (* seed fan-out through Par must give identical reports at any
     worker count — the CLI's --seeds determinism contract *)
  let run_one seed =
    let s =
      Workload.Stream.make ~seed ~limit:500
        ~size:(Workload.Stream.Pareto { shape = 2.2; scale = 0.5 })
        (Workload.Stream.Diurnal { base = 1.0; amplitude = 0.8; period = 100.0 })
    in
    let r = Sim.run_stream Power_model.cube (Sim.constant_policy 2.0) (Workload.Stream.pull_fn s) in
    r.Sim.metrics
  in
  let seeds = [ 41; 42; 43; 44 ] in
  let sequential = Par.list_map ~jobs:1 run_one seeds in
  let parallel = Par.list_map ~jobs:4 run_one seeds in
  check_bool "jobs-invariant" true (sequential = parallel)

let test_run_stream_bench_trace () =
  (* the trace bench workload: 10^5 diurnal jobs with Pareto(2.2, 0.5)
     sizes at constant speed 2.0 — every job is exactly one arrival
     and one completion event *)
  let s =
    Workload.Stream.make ~seed:42 ~limit:100_000
      ~size:(Workload.Stream.Pareto { shape = 2.2; scale = 0.5 })
      (Workload.Stream.Diurnal { base = 1.0; amplitude = 0.8; period = 1000.0 })
  in
  let events = Obs.counter "sim.events_dispatched" in
  Obs.set_enabled true;
  let before = Obs_metrics.value events in
  let r =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () ->
        Sim.run_stream Power_model.cube (Sim.constant_policy 2.0) (Workload.Stream.pull_fn s))
  in
  check_int "all jobs complete" 100_000 r.Sim.metrics.Streaming_metrics.jobs;
  check_int "two events per job" 200_000 (Obs_metrics.value events - before)

let test_run_stream_alloc () =
  (* Sim.run_stream boxes two floats a job: the policy's ~backlog and
     the completion time shared by the event queue and observe.  Its
     words are the run's minus the pulls' (exactly 10 a job, pinned
     above); the difference of two trace lengths cancels the set-up,
     since both traces peak within one ring-buffer doubling *)
  let sim_words n =
    let r = ref None in
    let w =
      words (fun () ->
          r :=
            Some
              (Sim.run_stream Power_model.cube (Sim.constant_policy 2.0)
                 (Workload.Stream.pull_fn (bench_stream ~seed:42 n))))
    in
    match !r with
    | Some r ->
      check_int "all jobs complete" n r.Sim.metrics.Streaming_metrics.jobs;
      check_bool
        (Printf.sprintf "peak backlog %d needs exactly one doubling" r.Sim.max_backlog)
        true
        (r.Sim.max_backlog > 64 && r.Sim.max_backlog <= 128);
      w -. (10.0 *. float_of_int n)
    | None -> assert false
  in
  let n = 100_000 in
  let short = sim_words n and long = sim_words (2 * n) in
  Alcotest.(check (float 0.0)) "words per job" 4.0 ((long -. short) /. float_of_int n)

let test_avr_policy () =
  (* the floor: an idle-ish backlog never drops the speed below base *)
  let p = Sim.avr_policy ~base:1.5 ~window:10.0 in
  checkf "floored at base" 1.5 (p.Sim.choose ~queued:1 ~backlog:0.5);
  (* density tracking: speed is exactly backlog/window above the floor,
     independent of the queue count *)
  checkf "tracks density" 5.0 (p.Sim.choose ~queued:3 ~backlog:50.0);
  checkf "queue count is ignored" 5.0 (p.Sim.choose ~queued:1000 ~backlog:50.0);
  (match Sim.avr_policy ~base:0.0 ~window:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "base 0 must be rejected");
  (match Sim.avr_policy ~base:1.0 ~window:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "window 0 must be rejected");
  (* a full streaming run completes every job under the avr policy *)
  let s =
    Workload.Stream.make ~seed:7 ~limit:400
      ~size:(Workload.Stream.Pareto { shape = 2.2; scale = 0.5 })
      (Workload.Stream.Diurnal { base = 1.0; amplitude = 0.8; period = 100.0 })
  in
  let r =
    Sim.run_stream Power_model.cube
      (Sim.avr_policy ~base:1.0 ~window:10.0)
      (Workload.Stream.pull_fn s)
  in
  check_int "all jobs complete" 400 r.Sim.metrics.Streaming_metrics.jobs;
  check_bool "finite flow tail" true (Float.is_finite r.Sim.metrics.Streaming_metrics.flow_p99)

let test_compete_measure_stream () =
  let s =
    Workload.Stream.make ~seed:6 ~limit:240
      ~size:(Workload.Stream.Uniform_size { lo = 0.5; hi = 3.0 })
      (Workload.Stream.Poisson_process 1.0)
  in
  let summaries = Compete.measure_stream ~seed:6 ~windows:10 ~window:24 ~alpha:3.0 s in
  check_int "two algorithms" 2 (List.length summaries);
  List.iter
    (fun (sm : Compete.summary) ->
      check_int "all windows measured" 10 sm.Compete.trials;
      check_bool "ratio at least 1" true (sm.Compete.mean_ratio >= 1.0 -. 1e-9);
      check_bool "max at least mean" true (sm.Compete.max_ratio >= sm.Compete.mean_ratio -. 1e-12);
      check_bool "within theoretical bound" true
        (sm.Compete.max_ratio <= sm.Compete.theoretical_bound +. 1e-6))
    summaries

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "stream"
    [
      ( "event-queue",
        [
          Alcotest.test_case "of_capacity" `Quick test_queue_of_capacity;
          Alcotest.test_case "clear" `Quick test_queue_clear;
          Alcotest.test_case "pooling allocation" `Quick test_queue_pooling_no_alloc;
        ] );
      qsuite "event-queue-fuzz" [ prop_queue_interleaved; prop_queue_heap_property ];
      ( "streaming-metrics",
        [
          Alcotest.test_case "welford exact" `Quick test_welford_exact;
          Alcotest.test_case "p2 small exact" `Quick test_p2_small_exact;
          Alcotest.test_case "aggregate vs driver" `Quick test_aggregate_metrics_exact;
          Alcotest.test_case "observe allocation" `Quick test_observe_no_alloc;
        ] );
      qsuite "streaming-metrics-fuzz" [ prop_p2_bracketed; prop_p2_accuracy ];
      ( "workload-stream",
        [
          Alcotest.test_case "deterministic" `Quick test_stream_deterministic;
          Alcotest.test_case "monotone releases" `Quick test_stream_monotone_releases;
          Alcotest.test_case "materialize equals pull" `Quick test_stream_materialize_equals_pull;
          Alcotest.test_case "array generators on stream path" `Quick
            test_array_generators_on_stream_path;
          Alcotest.test_case "deadline arrays agree" `Quick test_deadline_arrays_agree;
          Alcotest.test_case "stream deadlines" `Quick test_stream_with_deadlines;
          Alcotest.test_case "pull allocation" `Quick test_stream_pull_alloc;
        ] );
      ( "run-stream",
        [
          Alcotest.test_case "agrees with online driver" `Quick test_run_stream_agrees_with_driver;
          Alcotest.test_case "multi-proc conservation" `Quick test_run_stream_multiproc_conserves;
          Alcotest.test_case "procs < 1 rejected" `Quick test_run_stream_rejects_no_procs;
          Alcotest.test_case "bad overheads rejected" `Quick test_run_stream_rejects_bad_overheads;
          Alcotest.test_case "levels, switches, thermal" `Quick test_run_stream_levels_and_switches;
          Alcotest.test_case "watermarks" `Quick test_run_stream_watermarks;
          Alcotest.test_case "seed fan-out jobs-invariant" `Quick test_run_stream_jobs_invariant;
          Alcotest.test_case "bench trace event count" `Quick test_run_stream_bench_trace;
          Alcotest.test_case "per-job allocation" `Quick test_run_stream_alloc;
          Alcotest.test_case "avr policy" `Quick test_avr_policy;
          Alcotest.test_case "compete measure_stream" `Quick test_compete_measure_stream;
        ] );
    ]
