(* Reproduction harness.

   Regenerates every figure of the paper (it has three figures and no
   tables) plus one section per theorem-level claim, the simulator and
   extension ablations, and two trace-scale runs whose [failwith]
   checks guard constant memory and the daemon under load.  Usage:

     dune exec bench/main.exe            # every section, in the order below
     dune exec bench/main.exe fig1 perf  # selected sections

   Sections: trace fig1 fig2 fig3 thm1 thm8 thm10 thm11 perf sim online
   ext serve_soak_100k.  [trace] comes first so that a bare run measures
   its peak heap on a fresh process.  An unknown section exits 2 before
   anything runs. *)

let cube = Power_model.cube
let fig1_instance = Instance.figure1

let header title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

(* ---------------------------------------------------------------- *)
(* FIG1: energy vs makespan for the non-dominated schedules of
   r = (0,5,6), w = (5,2,1), power = speed^3.  Paper: curve from
   (6, ~9.24) to (21, ~6.35) with configuration changes at E=8, 17. *)

let section_fig1 () =
  header "FIG1  energy vs makespan (paper Figure 1)";
  let f = Frontier.build cube fig1_instance in
  Printf.printf "breakpoints (paper: 8 and 17): %s\n"
    (String.concat ", " (List.map (Printf.sprintf "%.6f") (Frontier.breakpoints f)));
  Printf.printf "%-10s %-12s\n" "energy" "makespan";
  List.iter
    (fun (e, m) -> Printf.printf "%-10.3f %-12.6f\n" e m)
    (Frontier.sample f ~lo:6.0 ~hi:21.0 ~n:61);
  Printf.printf "corner values: M(6)=%.4f (paper axis ~9.25)  M(21)=%.4f (paper axis ~6.25)\n"
    (Frontier.makespan_at f 6.0) (Frontier.makespan_at f 21.0)

let section_fig2 () =
  header "FIG2  energy vs dM/dE (paper Figure 2)";
  let f = Frontier.build cube fig1_instance in
  Printf.printf "%-10s %-12s\n" "energy" "dM/dE";
  List.iter
    (fun i ->
      let e = 6.0 +. (float_of_int i *. 0.25) in
      Printf.printf "%-10.3f %-12.6f\n" e (Frontier.deriv1_at f e))
    (List.init 61 Fun.id);
  Printf.printf "range check: d1(6)=%.4f (paper ~-0.77), d1(21)=%.4f (paper approaching 0)\n"
    (Frontier.deriv1_at f 6.0) (Frontier.deriv1_at f 21.0)

let section_fig3 () =
  header "FIG3  energy vs d2M/dE2 (paper Figure 3; jumps at E=8 and 17)";
  let f = Frontier.build cube fig1_instance in
  Printf.printf "%-10s %-12s\n" "energy" "d2M/dE2";
  List.iter
    (fun i ->
      let e = 6.0 +. (float_of_int i *. 0.25) in
      Printf.printf "%-10.3f %-12.6f\n" e (Frontier.deriv2_at f e))
    (List.init 61 Fun.id);
  List.iter
    (fun e ->
      Printf.printf "jump at E=%g: below=%.6f above=%.6f\n" e
        (Frontier.deriv2_at f (e -. 1e-6))
        (Frontier.deriv2_at f (e +. 1e-6)))
    [ 8.0; 17.0 ]

(* ---------------------------------------------------------------- *)
(* THM1: Theorem 1 speed relations on random equal-work instances. *)

let section_thm1 () =
  header "THM1  PUW speed relations hold in flow-optimal schedules";
  let trials = 50 in
  let ok = ref 0 in
  for seed = 1 to trials do
    let inst = Workload.equal_work ~seed ~n:8 ~work:1.0 (Workload.Poisson 1.0) in
    let sol = Flow.solve_budget ~alpha:3.0 ~energy:(8.0 +. float_of_int seed) inst in
    if Flow.theorem1_holds ~alpha:3.0 inst sol then incr ok
  done;
  Printf.printf "relations verified on %d/%d random instances\n" !ok trials

(* ---------------------------------------------------------------- *)
(* THM8: the degree-12 polynomial and the boundary window. *)

let section_thm8 () =
  header "THM8  impossibility machinery (paper Section 4)";
  let derived = Flow_hardness.derived_polynomial ~energy:(Rat.of_int 9) in
  Printf.printf "derived polynomial (E=9):\n  %s\n" (Qpoly.to_string ~var:"s2" derived);
  Printf.printf "paper polynomial:\n  %s\n" (Qpoly.to_string ~var:"s2" Flow_hardness.paper_polynomial);
  Printf.printf "derivation matches paper (up to constant): %b\n"
    (Flow_hardness.proportional derived Flow_hardness.paper_polynomial);
  let roots = Flow_hardness.boundary_roots ~energy:9.0 in
  Printf.printf "Sturm-certified roots in (1,2) at E=9: %s\n"
    (String.concat ", " (List.map (Printf.sprintf "%.9f") roots));
  let mlo, mhi = Flow_hardness.measured_window () in
  let alo, ahi = Flow_hardness.analytic_window () in
  Printf.printf "boundary-configuration window: measured (%.4f, %.4f)  closed-form (%.4f, %.4f)\n"
    mlo mhi alo ahi;
  Printf.printf "paper reports (~8.43, ~11.54); upper endpoint agrees, lower is %.4f here —\n" mlo;
  let at9 = Flow.solve_budget ~alpha:3.0 ~energy:9.0 Instance.theorem8 in
  Printf.printf
    "at E=9 the optimum has C2=%.6f > 1 with flow %.6f (boundary stationary point: 2.4948)\n"
    at9.Flow.completions.(1) at9.Flow.flow;
  List.iter
    (fun e ->
      let sigma2 = Flow_hardness.sigma2_numeric ~energy:e in
      let roots = Flow_hardness.boundary_roots ~energy:e in
      Printf.printf "E=%-6g solver sigma2=%.9f  certified roots in (1,2): %s\n" e sigma2
        (String.concat ", " (List.map (Printf.sprintf "%.9f") roots)))
    [ 10.5; 11.0; 11.4 ];
  (* flow frontier around the window *)
  Printf.printf "%-10s %-12s %-12s\n" "energy" "flow" "C2";
  List.iter
    (fun (e, f) ->
      let c2 = (Flow.solve_budget ~alpha:3.0 ~energy:e Instance.theorem8).Flow.completions.(1) in
      Printf.printf "%-10.3f %-12.6f %-12.6f\n" e f c2)
    (Flow_frontier.curve ~alpha:3.0 Instance.theorem8 ~e_lo:8.0 ~e_hi:13.0 ~n:11)

(* ---------------------------------------------------------------- *)
(* THM10: cyclic assignment vs brute force for equal-work jobs. *)

let section_thm10 () =
  header "THM10  cyclic distribution is optimal for equal-work jobs";
  Printf.printf "%-6s %-4s %-10s %-14s %-14s %-10s\n" "n" "m" "energy" "cyclic" "brute-opt" "ratio";
  List.iter
    (fun (n, m, seed) ->
      let inst = Workload.equal_work ~seed ~n ~work:1.0 (Workload.Poisson 1.0) in
      let e = 4.0 +. float_of_int n in
      let cyc = Multi.makespan cube ~m ~energy:e inst in
      let opt = Multi.brute_makespan cube ~m ~energy:e inst in
      Printf.printf "%-6d %-4d %-10.2f %-14.8f %-14.8f %-10.6f\n" n m e cyc opt (cyc /. opt))
    [ (4, 2, 11); (5, 2, 12); (6, 2, 13); (6, 3, 14); (7, 2, 15); (7, 3, 16) ];
  Printf.printf "\nflow version (Multi_flow):\n";
  Printf.printf "%-6s %-4s %-10s %-14s %-14s\n" "n" "m" "energy" "cyclic" "brute-opt";
  List.iter
    (fun (n, m, seed) ->
      let inst = Workload.equal_work ~seed ~n ~work:1.0 (Workload.Poisson 1.0) in
      let e = 4.0 +. float_of_int n in
      let cyc = (Multi_flow.solve_budget ~alpha:3.0 ~m ~energy:e inst).Multi_flow.flow in
      let opt = Multi_flow.brute_flow ~alpha:3.0 ~m ~energy:e inst in
      Printf.printf "%-6d %-4d %-10.2f %-14.8f %-14.8f\n" n m e cyc opt)
    [ (4, 2, 21); (5, 2, 22); (6, 2, 23); (6, 3, 24) ]

(* ---------------------------------------------------------------- *)
(* THM11: the Partition reduction. *)

let section_thm11 () =
  header "THM11  NP-hardness reduction from Partition";
  Printf.printf "%-28s %-10s %-12s %-12s\n" "multiset" "partition?" "via-schedule" "agree";
  List.iter
    (fun values ->
      let p = Partition_solver.exists values in
      let s = Hardness.decide_via_scheduling cube values in
      Printf.printf "%-28s %-10b %-12b %-12b\n"
        ("[" ^ String.concat ";" (List.map string_of_int values) ^ "]")
        p s (p = s))
    [ [ 1; 2; 3 ]; [ 1; 2; 4 ]; [ 2; 2; 2 ]; [ 5; 4; 3; 2; 2 ]; [ 3; 3; 5; 7 ]; [ 8; 7; 6; 5; 4; 2 ] ];
  (* heuristic ladder on larger instances *)
  Printf.printf "\nheuristics on random instances (difference achieved; 0 = perfect):\n";
  Printf.printf "%-6s %-8s %-10s %-10s %-8s\n" "n" "max_val" "greedy" "KK" "exact?";
  List.iter
    (fun (n, mv, seed) ->
      let inst = Workload.partition_style ~seed ~n ~max_value:mv in
      let values =
        Array.to_list (Array.map (fun (j : Job.t) -> int_of_float j.Job.work) (Instance.jobs inst))
      in
      Printf.printf "%-6d %-8d %-10d %-10d %-8b\n" n mv
        (Partition_solver.greedy_difference values)
        (Partition_solver.karmarkar_karp values)
        (Partition_solver.exists values))
    [ (10, 50, 1); (14, 100, 2); (18, 200, 3); (22, 400, 4) ]

(* ---------------------------------------------------------------- *)
(* PERF: IncMerge linear time vs the quadratic DP baseline. *)

(* wall clock, not [Sys.time]: CPU time sums across domains, so it
   cannot show a parallel speedup (and overstates contended sections) *)
let time_best ~reps f =
  let best = ref Float.infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    let t1 = Unix.gettimeofday () in
    if t1 -. t0 < !best then best := t1 -. t0
  done;
  !best

let section_perf () =
  header "PERF  IncMerge (linear) vs DP baseline (quadratic+)";
  let sizes = [ 64; 128; 256; 512; 1024; 2048 ] in
  Printf.printf "%-8s %-14s %-14s %-14s\n" "n" "incmerge(s)" "dp(s)" "flow(s)";
  let im_pts = ref [] and dp_pts = ref [] in
  List.iter
    (fun n ->
      let inst = Workload.uniform_work ~seed:n ~n ~lo:0.5 ~hi:2.0 (Workload.Poisson 1.0) in
      let e = float_of_int n *. 1.5 in
      let t_im = time_best ~reps:5 (fun () -> Incmerge.makespan cube ~energy:e inst) in
      (* one untimed call first: a single cold timing per size bent the
         fitted slope below 2 *)
      let t_dp =
        if n <= 1024 then begin
          let dp () = Dp_makespan.makespan cube ~energy:e inst in
          ignore (Sys.opaque_identity (dp ()));
          time_best ~reps:5 dp
        end
        else Float.nan
      in
      let flow_inst = Workload.equal_work ~seed:n ~n ~work:1.0 (Workload.Poisson 1.0) in
      let t_flow =
        if n <= 512 then time_best ~reps:1 (fun () -> Flow.solve_budget ~alpha:3.0 ~energy:e flow_inst)
        else Float.nan
      in
      im_pts := (float_of_int n, Float.max t_im 1e-9) :: !im_pts;
      if not (Float.is_nan t_dp) then dp_pts := (float_of_int n, Float.max t_dp 1e-9) :: !dp_pts;
      Printf.printf "%-8d %-14.6f %-14.6f %-14.6f\n" n t_im t_dp t_flow)
    sizes;
  Printf.printf "log-log slope dp: %.2f (expect >= 2; incmerge is too fast to slope-fit reliably,\n"
    (Stats.loglog_slope (Array.of_list !dp_pts));
  Printf.printf "see the Bechamel numbers below for its per-size cost)\n";
  (* Bechamel micro-benchmarks, one per experiment driver *)
  Printf.printf "\nBechamel (ns/run, OLS):\n";
  let open Bechamel in
  let inst512 = Workload.uniform_work ~seed:9 ~n:512 ~lo:0.5 ~hi:2.0 (Workload.Poisson 1.0) in
  let inst4096 = Workload.uniform_work ~seed:9 ~n:4096 ~lo:0.5 ~hi:2.0 (Workload.Poisson 1.0) in
  let equal256 = Workload.equal_work ~seed:9 ~n:256 ~work:1.0 (Workload.Poisson 1.0) in
  let fig1 = fig1_instance in
  let tests =
    Test.make_grouped ~name:"pasched"
      [
        Test.make ~name:"fig1/frontier-build" (Staged.stage (fun () -> Frontier.build cube fig1));
        Test.make ~name:"perf/incmerge-512"
          (Staged.stage (fun () -> Incmerge.makespan cube ~energy:700.0 inst512));
        Test.make ~name:"perf/incmerge-4096"
          (Staged.stage (fun () -> Incmerge.makespan cube ~energy:6000.0 inst4096));
        Test.make ~name:"thm8/flow-budget-256"
          (Staged.stage (fun () -> Flow.solve_budget ~alpha:3.0 ~energy:300.0 equal256));
        Test.make ~name:"thm10/multi-makespan"
          (Staged.stage (fun () -> Multi.makespan cube ~m:4 ~energy:300.0 equal256));
        Test.make ~name:"thm11/partition-dp-200"
          (Staged.stage
             (let inst = Workload.partition_style ~seed:5 ~n:200 ~max_value:500 in
              let values =
                Array.to_list
                  (Array.map (fun (j : Job.t) -> int_of_float j.Job.work) (Instance.jobs inst))
              in
              fun () -> Partition_solver.exists values));
        Test.make ~name:"yds/optimal-40"
          (Staged.stage
             (let jobs =
                Djob.of_triples
                  (Workload.deadline_jobs ~seed:3 ~n:40 ~work:(0.5, 2.0) ~slack:(0.5, 3.0)
                     (Workload.Poisson 1.0))
              in
              fun () -> Yds.solve cube jobs));
      ]
  in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some (est :: _) -> Printf.printf "  %-30s %14.0f ns/run\n" name est
      | _ -> Printf.printf "  %-30s (no estimate)\n" name)
    (List.sort compare rows)

(* ---------------------------------------------------------------- *)
(* SIM: idealized model vs discrete levels vs switch overhead. *)

let section_sim () =
  header "SIM  simulator: idealized vs discrete levels vs switch overhead";
  let inst = Workload.uniform_work ~seed:4 ~n:12 ~lo:0.5 ~hi:2.5 (Workload.Poisson 0.7) in
  let e = 30.0 in
  let plan = Incmerge.solve cube ~energy:e inst in
  let ideal = Sim.run cube inst plan in
  Printf.printf "idealized: makespan=%.4f energy=%.4f (plan: %.4f / %.4f) agree=%b\n"
    ideal.Sim.makespan ideal.Sim.energy (Metrics.makespan plan) (Schedule.energy cube plan)
    (Sim.agrees_with_plan ideal cube plan);
  Printf.printf "\n%-26s %-12s %-12s %-10s\n" "config" "makespan" "energy" "switches";
  List.iter
    (fun (name, config) ->
      let r = Sim.run ~config cube inst plan in
      Printf.printf "%-26s %-12.4f %-12.4f %-10d\n" name r.Sim.makespan r.Sim.energy r.Sim.switches)
    [
      ("continuous, free switch", Sim.default_config);
      ("athlon64 levels", { Sim.default_config with Sim.levels = Some Discrete_levels.athlon64 });
      ( "fine levels (12)",
        {
          Sim.default_config with
          Sim.levels = Some (Discrete_levels.create (List.init 12 (fun i -> 0.25 *. float_of_int (i + 1))));
        } );
      ("switch 0.05s/0.02J", { Sim.default_config with Sim.switch_time = 0.05; switch_energy = 0.02 });
    ];
  Printf.printf "\ntwo-level emulation energy overhead vs number of levels:\n";
  Printf.printf "%-10s %-12s\n" "levels" "overhead";
  List.iter
    (fun k ->
      let levels =
        Discrete_levels.create (List.init k (fun i -> 3.0 *. float_of_int (i + 1) /. float_of_int k))
      in
      let r = Sim.run ~config:{ Sim.default_config with Sim.levels = Some levels } cube inst plan in
      Printf.printf "%-10d %-12.6f\n" k ((r.Sim.energy -. e) /. e))
    [ 2; 3; 4; 6; 8; 12; 24; 48 ]

(* ---------------------------------------------------------------- *)
(* ONLINE: empirical competitive behaviour (paper Section 6 + YDS). *)

let section_online () =
  header "ONLINE  makespan heuristics and deadline algorithms";
  Printf.printf "online makespan (competitive ratio vs offline IncMerge):\n";
  Printf.printf "%-14s %-14s %-14s\n" "instance" "race" "hedged-0.5";
  List.iter
    (fun seed ->
      let inst = Workload.equal_work ~seed ~n:6 ~work:1.0 (Workload.Poisson 0.5) in
      let e = 10.0 in
      let r1 =
        Online_makespan.competitive_ratio cube (Online_makespan.race cube ~budget:e) ~energy:e inst
      in
      let r2 =
        Online_makespan.competitive_ratio cube
          (Online_makespan.hedged cube ~budget:e ~reserve:0.5)
          ~energy:e inst
      in
      Printf.printf "seed-%-9d %-14.4f %-14.4f\n" seed r1 r2)
    [ 1; 2; 3; 4; 5 ];
  Printf.printf "\ndeadline algorithms (energy ratio vs YDS; alpha = 3):\n";
  let summaries = Compete.measure ~seed:7 ~trials:20 ~n:8 ~alpha:3.0 () in
  Printf.printf "%-6s %-12s %-12s %-16s\n" "alg" "mean" "max" "theory bound";
  List.iter
    (fun s ->
      Printf.printf "%-6s %-12.4f %-12.4f %-16.1f\n" s.Compete.algorithm s.Compete.mean_ratio
        s.Compete.max_ratio s.Compete.theoretical_bound)
    summaries

(* ---------------------------------------------------------------- *)
(* EXT: ablations for the section-6 extensions. *)

let section_ext () =
  header "EXT  section-6 extensions: discrete levels, precedence, temperature";
  (* discrete-level ablation: how the achievable makespan degrades as
     the level set coarsens, at a fixed budget *)
  let inst = Workload.uniform_work ~seed:8 ~n:10 ~lo:0.5 ~hi:2.0 (Workload.Poisson 0.8) in
  let e = 25.0 in
  let continuous = Incmerge.makespan cube ~energy:e inst in
  Printf.printf "discrete-level ablation (budget %.0f, continuous makespan %.4f):\n" e continuous;
  Printf.printf "%-10s %-12s %-12s\n" "levels" "makespan" "vs cont.";
  List.iter
    (fun k ->
      (* levels from 0.25 to 5.0 so even coarse sets keep a low floor *)
      let levels =
        Discrete_levels.create
          (List.init k (fun i -> 0.25 +. (4.75 *. float_of_int i /. float_of_int (k - 1))))
      in
      let m = Discrete_makespan.makespan cube levels ~energy:e inst in
      Printf.printf "%-10d %-12.4f %+.3f%%\n" k m (100.0 *. ((m /. continuous) -. 1.0)))
    [ 3; 5; 8; 16; 32; 64; 128 ];
  (* precedence: uniform vs critical boost vs lower bound *)
  Printf.printf "\nprecedence (m=3, alpha=3): uniform vs critical-boost vs lower bound:\n";
  Printf.printf "%-8s %-12s %-12s %-12s\n" "seed" "uniform" "boost" "bound";
  List.iter
    (fun seed ->
      let d = Dag.random ~seed ~n:18 ~layers:4 ~edge_prob:0.4 ~work_range:(0.5, 2.5) in
      let u = Precedence.uniform ~alpha:3.0 ~m:3 ~energy:40.0 d in
      let b = Precedence.critical_boost ~alpha:3.0 ~m:3 ~energy:40.0 d in
      Printf.printf "%-8d %-12.4f %-12.4f %-12.4f\n" seed u.Precedence.makespan
        b.Precedence.makespan
        (Precedence.lower_bound ~alpha:3.0 ~m:3 ~energy:40.0 d))
    [ 1; 2; 3; 4 ];
  (* temperature: same work/window, racing vs smoothing (Bansal et al.) *)
  Printf.printf "\npeak temperature, same work in the same window (heating 1, cooling 0.5):\n";
  Printf.printf "%-26s %-12s %-12s\n" "profile" "peak temp" "energy";
  List.iter
    (fun (name, profile) ->
      Printf.printf "%-26s %-12.4f %-12.4f\n" name
        (Thermal.max_temperature cube ~heating:1.0 ~cooling:0.5 profile)
        (Speed_profile.energy cube profile))
    [
      ("slow and steady (s=1, 8s)", Speed_profile.of_segments [ { Speed_profile.t0 = 0.0; t1 = 8.0; speed = 1.0 } ]);
      ( "race then idle (s=2, 4s)",
        Speed_profile.of_segments [ { Speed_profile.t0 = 0.0; t1 = 4.0; speed = 2.0 } ] );
      ( "two bursts",
        Speed_profile.of_segments
          [
            { Speed_profile.t0 = 0.0; t1 = 2.0; speed = 2.0 };
            { Speed_profile.t0 = 4.0; t1 = 6.0; speed = 2.0 };
          ] );
    ]

(* ---------------------------------------------------------------- *)
(* TRACE: trace-scale streaming simulation (constant-memory sweep over
   synthetic arrival processes, plus windowed competitive ratios). *)

let trace_stream ~seed ~n kind =
  let size = Workload.Stream.Pareto { shape = 2.2; scale = 0.5 } in
  let process =
    match kind with
    | `Diurnal -> Workload.Stream.Diurnal { base = 1.0; amplitude = 0.8; period = 1000.0 }
    | `Mmpp ->
      Workload.Stream.Mmpp { rate_on = 4.0; rate_off = 0.2; mean_on = 20.0; mean_off = 80.0 }
    | `Poisson -> Workload.Stream.Poisson_process 1.0
  in
  Workload.Stream.make ~seed ~limit:n ~size process

let run_trace ~n kind () =
  Sim.run_stream cube (Sim.constant_policy 2.0)
    (Workload.Stream.pull_fn (trace_stream ~seed:42 ~n kind))

let top_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words

(* the mark as the runtime starts it, before any section runs: 0 on
   OCaml 5, the initial major heap chunk on 4.14 *)
let top_heap_at_startup = top_heap_words ()

let section_trace () =
  header "TRACE  streaming simulation over synthetic traces";
  (* constant-memory assertion: a 10x longer trace must not grow the
     peak heap.  If live memory scaled with trace length, 10^6 jobs
     would need at least two floats per job (~4M words); the budget of
     1M extra words over the 10^5-job peak cleanly separates constant
     from linear behaviour.  [top_heap_words] is a process-wide
     high-water mark, so this runs before anything else in the section
     and fails when earlier work raised the mark above the 10^5-job
     run's peak: growth up to that mark would not show. *)
  let peak_start = top_heap_words () in
  ignore (Sys.opaque_identity (run_trace ~n:100_000 `Diurnal ()));
  Gc.compact ();
  let peak_small = top_heap_words () in
  if peak_small <= peak_start && peak_start > top_heap_at_startup then
    failwith
      (Printf.sprintf
         "trace bench: earlier work left the heap high-water mark at %d words, above the \
          10^5-job run's peak, so growth cannot be seen; run this section first, in its own \
          process"
         peak_start);
  ignore (Sys.opaque_identity (run_trace ~n:1_000_000 `Diurnal ()));
  let peak_large = top_heap_words () in
  let delta = peak_large - peak_small in
  let budget = 1_000_000 in
  Printf.printf
    "constant-memory: top_heap %d -> %d words over 1e5 diurnal jobs, growth 1e5 -> 1e6 = %d \
     words (budget %d): %b\n\n"
    peak_start peak_small delta budget (delta < budget);
  if delta >= budget then failwith "trace bench: peak heap grew with trace length";
  Printf.printf "Pareto(2.2, 0.5) sizes, constant-2.0 policy, seed 42\n\n";
  Printf.printf "%-10s %-10s %-12s %-12s %-10s %-12s %-12s\n" "process" "jobs" "seconds"
    "jobs/sec" "flow mean" "flow p99" "backlog max";
  let n = 100_000 in
  List.iter
    (fun (name, kind) ->
      let t = time_best ~reps:3 (run_trace ~n kind) in
      let r = run_trace ~n kind () in
      let m = r.Sim.metrics in
      Printf.printf "%-10s %-10d %-12.4f %-12.0f %-10.4f %-12.4f %-12d\n" name n t
        (float_of_int n /. t)
        m.Streaming_metrics.flow_mean m.Streaming_metrics.flow_p99 r.Sim.max_backlog)
    [ ("poisson", `Poisson); ("diurnal", `Diurnal); ("mmpp", `Mmpp) ];
  (* trace-scale wall-clock budget: 10^7 jobs must stream through in
     bounded time.  The budget (60 s) is ~10x the typical container
     wall clock, so it only trips on a complexity regression (the sweep
     is O(n) — superlinear behaviour blows straight through 60 s), not
     on machine noise. *)
  let t10m_start = Unix.gettimeofday () in
  let r10m = run_trace ~n:10_000_000 `Diurnal () in
  let t10m = Unix.gettimeofday () -. t10m_start in
  let wall_budget = 60.0 in
  Printf.printf
    "\n10^7-job diurnal sweep: %.2f s (%.0f jobs/sec, budget %.0f s): %b  flow p99 %.4f\n" t10m
    (10_000_000.0 /. t10m) wall_budget (t10m < wall_budget)
    r10m.Sim.metrics.Streaming_metrics.flow_p99;
  if r10m.Sim.metrics.Streaming_metrics.jobs <> 10_000_000 then
    failwith "trace bench: 10^7-job sweep lost jobs";
  if t10m >= wall_budget then failwith "trace bench: 10^7-job sweep blew the wall-clock budget";
  (* windowed competitive ratios vs the offline optimum *)
  Printf.printf "\nwindowed competitive ratios (diurnal, 20 windows x 64 jobs, alpha 3):\n";
  Printf.printf "%-6s %-12s %-12s %-12s %-8s\n" "alg" "mean ratio" "max ratio" "bound" "windows";
  List.iter
    (fun (s : Compete.summary) ->
      Printf.printf "%-6s %-12.4f %-12.4f %-12.4g %-8d\n" s.Compete.algorithm s.Compete.mean_ratio
        s.Compete.max_ratio s.Compete.theoretical_bound s.Compete.trials)
    (Compete.measure_stream ~seed:42 ~windows:20 ~window:64 ~alpha:3.0
       (trace_stream ~seed:42 ~n:2000 `Diurnal))

(* ---------------------------------------------------------------- *)
(* SERVE_SOAK_100K: 10^5 emitted-trace requests through a 2-shard
   Serve_shard with admission control, in process: latency
   percentiles, shed counts, and liveness asserted.  The input is
   `pasched sim --count 500000 --emit-requests 5`. *)

let soak_request_lines =
  lazy
    (List.of_seq
       (Serve_client.trace_requests ~alpha:3.0 ~batch:5
          (Workload.Stream.make ~seed:42 ~limit:500_000
             ~size:(Workload.Stream.Pareto { shape = 2.2; scale = 0.5 })
             (Workload.Stream.Diurnal { base = 1.0; amplitude = 0.8; period = 1000.0 }))))

let section_serve_soak_100k () =
  header "SERVE_SOAK_100K  10^5 trace requests through 2 shards, max_inflight 24";
  Builtin.init ();
  let lines = Lazy.force soak_request_lines in
  let n = List.length lines in
  if n < 100_000 then failwith "serve_soak: trace emitted fewer than 10^5 requests";
  let t = Serve_shard.create ~jobs:1 ~shards:2 ~max_inflight:24 ~cache_capacity:1024 () in
  let { Serve_client.ok; busy; errors = err; latency = s; wall_s = wall; _ } =
    Serve_client.soak ~window:64 ~exchange:(Serve_shard.handle_batch t) lines
  in
  let alive =
    Serve_protocol.reply_status (Serve_shard.handle_line t {|{"op":"ping"}|}) = Some "ok"
  in
  let st = Serve_shard.stats t in
  Serve_shard.shutdown t;
  Printf.printf "soak: requests %d ok %d busy %d error %d shed %d\n" n ok busy err
    st.Serve_shard.shed;
  Printf.printf "soak: latency_s p50 %.6g p95 %.6g p99 %.6g max %.6g mean %.6g\n"
    s.Streaming_metrics.flow_p50 s.Streaming_metrics.flow_p95 s.Streaming_metrics.flow_p99
    s.Streaming_metrics.flow_max s.Streaming_metrics.flow_mean;
  Printf.printf "soak: wall_s %.3f throughput_rps %.1f\n" wall (float_of_int n /. wall);
  if ok + busy + err <> n then failwith "serve_soak: requests went unanswered";
  if err > 0 then failwith "serve_soak: error replies under clean load";
  if busy = 0 then failwith "serve_soak: admission control never shed at max_inflight 24";
  if ok = 0 then failwith "serve_soak: nothing was admitted";
  if not (Float.is_finite s.Streaming_metrics.flow_p99) then
    failwith "serve_soak: p99 latency is not finite";
  if not alive then failwith "serve_soak: daemon dead after the soak"

let sections =
  [
    ("trace", section_trace);
    ("fig1", section_fig1);
    ("fig2", section_fig2);
    ("fig3", section_fig3);
    ("thm1", section_thm1);
    ("thm8", section_thm8);
    ("thm10", section_thm10);
    ("thm11", section_thm11);
    ("perf", section_perf);
    ("sim", section_sim);
    ("online", section_online);
    ("ext", section_ext);
    ("serve_soak_100k", section_serve_soak_100k);
  ]

(* ---------------------------------------------------------------- *)
(* Entry point: every argument names a section, run in the order given
   (all of them when there is none). *)

let () =
  let requested = List.tl (Array.to_list Sys.argv) in
  (match List.filter (fun name -> not (List.mem_assoc name sections)) requested with
  | [] -> ()
  | unknown ->
    Printf.eprintf "unknown section(s) %s (known: %s)\n" (String.concat " " unknown)
      (String.concat " " (List.map fst sections));
    exit 2);
  let chosen =
    if requested = [] then List.map snd sections
    else List.map (fun name -> List.assoc name sections) requested
  in
  List.iter (fun f -> f ()) chosen
