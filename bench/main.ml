(* Benchmark & reproduction harness.

   Regenerates every figure of the paper (it has three figures and no
   tables) plus one section per theorem-level claim, and times the
   algorithms with Bechamel.  Usage:

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe fig1 perf  # selected sections

   Sections: fig1 fig2 fig3 thm1 thm8 thm10 thm11 perf sim online ext fuzz registry

   The [registry] section is not hand-listed: it enumerates the
   pasched.engine solver registry, so newly registered solvers are
   benchmarked without touching this file. *)

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
      let t_dp =
        if n <= 512 then time_best ~reps:1 (fun () -> Dp_makespan.makespan cube ~energy:e inst)
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
(* FUZZ: throughput of the property-based differential tester. *)

let section_fuzz () =
  header "FUZZ  pasched.check throughput (cases and property-checks per second)";
  (* warm-up covers any lazy initialization *)
  ignore (Runner.run ~seed:1 ~runs:20 ());
  let campaign runs =
    let t0 = Unix.gettimeofday () in
    let s = Runner.run ~seed:42 ~runs () in
    let dt = Unix.gettimeofday () -. t0 in
    (s, dt)
  in
  Printf.printf "%-8s %-10s %-12s %-14s %-14s %-10s\n" "runs" "checks" "seconds" "cases/s" "checks/s" "failures";
  List.iter
    (fun runs ->
      let s, dt = campaign runs in
      Printf.printf "%-8d %-10d %-12.4f %-14.0f %-14.0f %-10d\n" runs s.Runner.checks dt
        (float_of_int s.Runner.cases /. dt)
        (float_of_int s.Runner.checks /. dt)
        (List.length s.Runner.failures))
    [ 100; 500; 2000 ];
  (* per-property cost at a fixed campaign *)
  Printf.printf "\nper-property time, 300 cases each:\n";
  Printf.printf "%-26s %-12s %-12s\n" "property" "seconds" "checks/s";
  List.iter
    (fun (p : Oracle.property) ->
      let t0 = Unix.gettimeofday () in
      let s = Runner.run ~props:[ p.Oracle.name ] ~seed:42 ~runs:300 () in
      let dt = Unix.gettimeofday () -. t0 in
      Printf.printf "%-26s %-12.4f %-12.0f\n" p.Oracle.name dt (float_of_int s.Runner.checks /. dt))
    (Properties.registered ())

(* ---------------------------------------------------------------- *)
(* PAR: the multicore execution layer.  The table times

     curve cold jobs=1   per-point cold-start solve_budget (no warm
                         speed), sequential
     curve warm jobs=1   warm-started Flow_frontier.curve, 1 domain
     curve warm jobs=4   the same curve at 4 domains
     fuzz jobs=1/4       the fuzz campaign at 1 vs 4 domains

   warm vs cold isolates the algorithmic win (same core count; the
   rootfind.newton_iters line shows the per-point iteration drop);
   jobs 4 vs jobs 1 isolates the parallel win, which requires a
   multi-core machine to show a speedup. *)

let par_curve_inst = lazy (Workload.equal_work ~seed:11 ~n:48 ~work:1.0 (Workload.Poisson 1.0))

let par_curve_args = (40.0, 400.0, 240)

let run_curve_cold ~jobs () =
  let inst = Lazy.force par_curve_inst in
  let e_lo, e_hi, n = par_curve_args in
  ignore
    (Sys.opaque_identity
       (Par.init ~jobs n (fun i ->
            let e = e_lo +. ((e_hi -. e_lo) *. float_of_int i /. float_of_int (n - 1)) in
            (Flow.solve_budget ~alpha:3.0 ~energy:e inst).Flow.flow)))

let run_curve ~jobs () =
  let inst = Lazy.force par_curve_inst in
  let e_lo, e_hi, n = par_curve_args in
  ignore (Sys.opaque_identity (Flow_frontier.curve ~jobs ~alpha:3.0 inst ~e_lo ~e_hi ~n))

let run_fuzz ~jobs () = ignore (Sys.opaque_identity (Runner.run ~jobs ~seed:42 ~runs:150 ()))

let section_par () =
  header "PAR  multicore execution layer (pasched.par)";
  Printf.printf "backend: %s   recommended jobs: %d   default jobs: %d\n" Par.backend
    (Par.recommended_jobs ()) (Par.default_jobs ());
  let t_cold = time_best ~reps:3 (run_curve_cold ~jobs:1) in
  let t_c1 = time_best ~reps:3 (run_curve ~jobs:1) in
  let t_c4 = time_best ~reps:3 (run_curve ~jobs:4) in
  let t_f1 = time_best ~reps:2 (run_fuzz ~jobs:1) in
  let t_f4 = time_best ~reps:2 (run_fuzz ~jobs:4) in
  let _, _, npts = par_curve_args in
  Printf.printf "\n%-34s %-12s %-10s\n" "workload" "seconds" "speedup";
  Printf.printf "%-34s %-12.4f %-10s\n"
    (Printf.sprintf "curve n=%d cold jobs=1" npts)
    t_cold "1.00x (baseline)";
  Printf.printf "%-34s %-12.4f %-10s\n"
    (Printf.sprintf "curve n=%d warm jobs=1" npts)
    t_c1
    (Printf.sprintf "%.2fx vs cold" (t_cold /. t_c1));
  Printf.printf "%-34s %-12.4f %-10s\n"
    (Printf.sprintf "curve n=%d warm jobs=4" npts)
    t_c4
    (Printf.sprintf "%.2fx vs jobs=1" (t_c1 /. t_c4));
  Printf.printf "%-34s %-12.4f %-10s\n" "fuzz runs=150 jobs=1" t_f1 "1.00x (baseline)";
  Printf.printf "%-34s %-12.4f %-10s\n" "fuzz runs=150 jobs=4" t_f4
    (Printf.sprintf "%.2fx vs jobs=1" (t_f1 /. t_f4));
  (* determinism spot checks: byte-identical results at any width *)
  let inst = Lazy.force par_curve_inst in
  let e_lo, e_hi, n = par_curve_args in
  let c1 = Flow_frontier.curve ~jobs:1 ~alpha:3.0 inst ~e_lo ~e_hi ~n in
  let c4 = Flow_frontier.curve ~jobs:4 ~alpha:3.0 inst ~e_lo ~e_hi ~n in
  let f1 = Runner.run ~jobs:1 ~seed:42 ~runs:150 () in
  let f4 = Runner.run ~jobs:4 ~seed:42 ~runs:150 () in
  Printf.printf "\ncurve jobs=1 equals jobs=4 (bitwise): %b\n" (c1 = c4);
  Printf.printf "fuzz summary jobs=1 equals jobs=4: %b\n" (f1 = f4);
  (* warm-start effect in Newton iterations (the outer search and the
     pinned windows alike), via the obs counters *)
  let was_on = Obs.enabled () in
  Obs.set_enabled true;
  let newton_iters = Obs.counter "rootfind.newton_iters" in
  let iters_of f =
    let v0 = Obs_metrics.value newton_iters in
    f ();
    Obs_metrics.value newton_iters - v0
  in
  let it_cold = iters_of (run_curve_cold ~jobs:1) in
  let it_warm = iters_of (run_curve ~jobs:1) in
  Obs.set_enabled was_on;
  Printf.printf "\nrootfind.newton_iters over %d points: cold=%d (%.1f/pt)  warm=%d (%.1f/pt)\n" npts
    it_cold
    (float_of_int it_cold /. float_of_int npts)
    it_warm
    (float_of_int it_warm /. float_of_int npts)

(* ---------------------------------------------------------------- *)
(* REGISTRY: time every solver in the pasched.engine registry on a
   capability-matched instance.  Nothing here names a solver: the
   instance, problem and timing are derived from the registered
   capability, so a newly registered solver shows up on the next run. *)

let section_registry () =
  header "REGISTRY  every pasched.engine solver, capability-matched instance";
  Builtin.init ();
  let alpha = 3.0 in
  let requires cap r = List.mem r cap.Capability.requires in
  let bench_one solver =
    let cap = Engine.capability_of solver in
    let procs = match cap.Capability.settings with Capability.Uni_only -> 1 | _ -> 2 in
    let n =
      List.fold_left
        (fun acc -> function Capability.Max_jobs k -> Stdlib.min acc k | _ -> acc)
        64 cap.Capability.requires
    in
    let inst =
      if requires cap Capability.Equal_work then
        Workload.equal_work ~seed:17 ~n ~work:1.0 (Workload.Poisson 1.0)
      else Workload.uniform_work ~seed:17 ~n ~lo:0.5 ~hi:2.0 (Workload.Poisson 1.0)
    in
    let inst =
      if requires cap Capability.Common_release then
        Instance.of_pairs
          (Array.to_list (Array.map (fun (j : Job.t) -> (0.0, j.Job.work)) (Instance.jobs inst)))
      else inst
    in
    let energy = 1.5 *. float_of_int n in
    let mode =
      match cap.Capability.modes with
      | Capability.Target_mode :: _ ->
        Problem.Target (Incmerge.makespan (Power_model.alpha alpha) ~energy inst)
      | Capability.Feasible_mode :: _ -> Problem.Feasible
      | _ -> Problem.Budget energy
    in
    let speed_cap = if requires cap Capability.Needs_speed_cap then Some 2.0 else None in
    let levels =
      if requires cap Capability.Needs_levels then
        Some (List.init 8 (fun i -> 0.5 *. float_of_int (i + 1)))
      else None
    in
    let weights =
      if requires cap Capability.Needs_weights then
        Some (Array.init n (fun i -> 1.0 +. float_of_int (i mod 3)))
      else None
    in
    let deadlines =
      if requires cap Capability.Needs_deadlines then
        Some
          (Array.map
             (fun (j : Job.t) -> j.Job.release +. (3.0 *. j.Job.work))
             (Instance.jobs inst))
      else None
    in
    let problem =
      Problem.make ~procs ?speed_cap ?levels ?weights ?deadlines
        ~objective:cap.Capability.objective ~mode ~alpha ()
    in
    (* per-solve time of the one solve entry point, best of 3 passes
       of 4 solves *)
    let solves = 4 in
    let t =
      time_best ~reps:3 (fun () ->
          for _ = 1 to solves do
            ignore (Sys.opaque_identity (Engine.solve_with solver problem inst))
          done)
      /. float_of_int solves
    in
    let r = Engine.solve_with solver problem inst in
    let value =
      match r.Solve_result.pareto with
      | Some p -> p.Solve_result.value_at energy
      | None -> r.Solve_result.value
    in
    Printf.sprintf "%-18s %-9s %-6d %-3d %-14.6f %-14.6f %-12.6f\n" (Engine.name_of solver)
      (Problem.objective_to_string cap.Capability.objective)
      n procs value r.Solve_result.energy t
  in
  Printf.printf "%-18s %-9s %-6s %-3s %-14s %-14s %-12s\n" "solver" "class" "n" "m" "value" "energy"
    "seconds";
  (* rows are computed across domains (row text is a pure function of
     the solver) and printed in registry order afterwards; note that at
     jobs > 1 the per-row timings share cores and so overstate each
     other — treat them as per-solver sanity numbers, not absolutes *)
  List.iter print_string (Par.list_map bench_one (Engine.all ()))

(* ---------------------------------------------------------------- *)
(* SERVE: the scheduling service.  Each row times 4 passes of a
   64-request batch through one session of a one-shard Serve_shard (the
   daemon's default).  Session setup, the warm rows' priming pass and
   shutdown run outside the timed region:

     cold cache   every pass carries fresh budgets, so the LRU never
                  hits — pure batched-solve throughput through the
                  daemon path
     warm cache   every pass repeats the primed batch — pure cache-hit
                  throughput, 256 hits and no solver call

   warm vs cold isolates the cache win; jobs 4 vs jobs 1 isolates the
   pool win (needs a multi-core machine — widths are clamped to the
   hardware recommendation).  test/test_serve.ml pins the counters of
   this workload. *)

let serve_batchsize = 64
let serve_passes = 4

let serve_jobs_json =
  lazy
    (let inst = Workload.equal_work ~seed:29 ~n:64 ~work:1.0 (Workload.Poisson 1.0) in
     let pair (j : Job.t) = Printf.sprintf "[%.17g,%.17g]" j.Job.release j.Job.work in
     "["
     ^ String.concat "," (Array.to_list (Array.map pair (Instance.jobs inst)))
     ^ "]")

(* flow-under-budget requests: each one runs the rootfinding solver,
   so per-request solver work dwarfs protocol decode/encode — that is
   what the cache elides.  The budget varies per request and per pass,
   so cold passes never repeat a cache key. *)
let serve_request ~pass i =
  Printf.sprintf {|{"id":%d,"objective":"flow","budget":%.17g,"jobs":%s}|} i
    (40.0 +. (0.25 *. float_of_int i) +. (100.0 *. float_of_int pass))
    (Lazy.force serve_jobs_json)

let serve_batch_lines pass = List.init serve_batchsize (serve_request ~pass)

(* best of two sessions, timing the passes only *)
let time_serve ~jobs ~warm =
  let batches =
    List.init serve_passes (fun p -> serve_batch_lines (if warm then 0 else p + 1))
  in
  let session () =
    let t = Serve_shard.create ~jobs ~cache_capacity:(2 * serve_batchsize) () in
    if warm then ignore (Serve_shard.handle_batch t (serve_batch_lines 0));
    let t0 = Unix.gettimeofday () in
    List.iter (fun b -> ignore (Sys.opaque_identity (Serve_shard.handle_batch t b))) batches;
    let dt = Unix.gettimeofday () -. t0 in
    Serve_shard.shutdown t;
    dt
  in
  Float.min (session ()) (session ())

let section_serve () =
  header "SERVE  scheduling-as-a-service (pasched.serve)";
  Builtin.init ();
  let solves = serve_batchsize * serve_passes in
  Printf.printf "batch=%d passes=%d timed requests/row=%d   pool backend: %s\n\n" serve_batchsize
    serve_passes solves Par.backend;
  Printf.printf "%-26s %-12s %-14s\n" "configuration" "seconds" "requests/sec";
  List.iter
    (fun (label, jobs, warm) ->
      let t = time_serve ~jobs ~warm in
      Printf.printf "%-26s %-12.4f %-14.0f\n" label t (float_of_int solves /. t))
    [
      ("cold cache, jobs=1", 1, false);
      ("cold cache, jobs=4", 4, false);
      ("warm cache, jobs=1", 1, true);
      ("warm cache, jobs=4", 4, true);
    ];
  (* cache behaviour sanity: a warm section's measured passes are all
     hits, and replies are independent of the pool width *)
  let t1 = Serve_shard.create ~jobs:1 ~cache_capacity:(2 * serve_batchsize) () in
  let t4 = Serve_shard.create ~jobs:4 ~cache_capacity:(2 * serve_batchsize) () in
  let cold1 = Serve_shard.handle_batch t1 (serve_batch_lines 0) in
  let cold4 = Serve_shard.handle_batch t4 (serve_batch_lines 0) in
  let warm1 = Serve_shard.handle_batch t1 (serve_batch_lines 0) in
  let st = Serve_shard.stats t1 in
  Serve_shard.shutdown t1;
  Serve_shard.shutdown t4;
  Printf.printf "\nwarm pass served from cache: %b (hits=%d misses=%d)\n"
    (st.Serve_shard.cache.Serve_cache.hits = serve_batchsize)
    st.Serve_shard.cache.Serve_cache.hits st.Serve_shard.cache.Serve_cache.misses;
  Printf.printf "warm replies byte-identical to cold: %b\n" (cold1 = warm1);
  Printf.printf "replies jobs=1 equal jobs=4: %b\n" (cold1 = cold4)

(* ---------------------------------------------------------------- *)
(* SERVE_SHARD: the sharded front end (PR9).  Sections gated by
   bench/baseline.json:

     serve_shard_{1,2,4}  the serve workload (4 cold passes of a
                          64-request flow-budget batch, plus one warm
                          repeat) through Serve_shard at 1/2/4 shards —
                          shard routing and per-shard caches must not
                          cost throughput on a single box

   and one run by the same CI step:

     serve_soak_100k      10^5 emitted-trace requests through 2 shards
                          with admission control: latency percentiles,
                          shed counts, and liveness asserted

   test/test_serve.ml pins the cache and shed counters of these
   workloads. *)

let run_serve_shard ~shards () =
  let t = Serve_shard.create ~jobs:1 ~shards ~cache_capacity:(2 * serve_batchsize) () in
  for p = 1 to serve_passes do
    ignore (Sys.opaque_identity (Serve_shard.handle_batch t (serve_batch_lines p)))
  done;
  (* one warm repeat: the cache must answer regardless of shard count *)
  ignore (Sys.opaque_identity (Serve_shard.handle_batch t (serve_batch_lines serve_passes)));
  Serve_shard.shutdown t

(* the serve-daemon soak input: `pasched sim --count 500000
   --emit-requests 5` *)
let soak_request_lines =
  lazy
    (List.of_seq
       (Serve_client.trace_requests ~alpha:3.0 ~batch:5
          (Workload.Stream.make ~seed:42 ~limit:500_000
             ~size:(Workload.Stream.Pareto { shape = 2.2; scale = 0.5 })
             (Workload.Stream.Diurnal { base = 1.0; amplitude = 0.8; period = 1000.0 }))))

let run_serve_soak_100k () =
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

let section_serve_shard () =
  header "SERVE_SHARD  multi-shard dispatch, admission control, soak (PR9)";
  Builtin.init ();
  let solves = serve_batchsize * (serve_passes + 1) in
  Printf.printf "batch=%d passes=%d+1 warm   jump-hash routing on the canonical key\n\n"
    serve_batchsize serve_passes;
  Printf.printf "%-26s %-12s %-14s\n" "configuration" "seconds" "requests/sec";
  List.iter
    (fun shards ->
      let t = time_best ~reps:2 (run_serve_shard ~shards) in
      Printf.printf "%-26s %-12.4f %-14.0f\n"
        (Printf.sprintf "shards=%d" shards)
        t
        (float_of_int solves /. t))
    [ 1; 2; 4 ];
  (* shard transparency: byte-identical replies at every shard count,
     repeats hit the cache *)
  let run_replies shards =
    let t = Serve_shard.create ~jobs:1 ~shards ~cache_capacity:(2 * serve_batchsize) () in
    let cold = Serve_shard.handle_batch t (serve_batch_lines 0) in
    let warm = Serve_shard.handle_batch t (serve_batch_lines 0) in
    let st = Serve_shard.stats t in
    Serve_shard.shutdown t;
    (cold, warm, st)
  in
  let c1, w1, st1 = run_replies 1 in
  let c4, w4, st4 = run_replies 4 in
  Printf.printf "\nreplies shards=1 equal shards=4: %b\n" (c1 = c4 && w1 = w4);
  Printf.printf "warm pass served from cache at both counts: %b (hits %d and %d)\n"
    (st1.Serve_shard.cache.Serve_cache.hits = serve_batchsize
    && st4.Serve_shard.cache.Serve_cache.hits = serve_batchsize)
    st1.Serve_shard.cache.Serve_cache.hits st4.Serve_shard.cache.Serve_cache.hits;
  (* snapshot round-trip: persist at 1 shard, warm at 4 *)
  let file = Filename.temp_file "pasched_bench" ".cache" in
  let t1 = Serve_shard.create ~jobs:1 ~shards:1 ~cache_capacity:256 ~cache_file:file () in
  ignore (Serve_shard.handle_batch t1 (serve_batch_lines 0));
  Serve_shard.shutdown t1;
  let t4 = Serve_shard.create ~jobs:1 ~shards:4 ~cache_capacity:256 ~cache_file:file () in
  ignore (Serve_shard.handle_batch t4 (serve_batch_lines 0));
  let warmed = (Serve_shard.stats t4).Serve_shard.cache.Serve_cache.hits in
  Serve_shard.shutdown t4;
  Sys.remove file;
  Printf.printf "snapshot 1 shard -> warm 4 shards: %d/%d hits: %b\n" warmed serve_batchsize
    (warmed = serve_batchsize);
  if c1 <> c4 || w1 <> w4 then failwith "serve_shard: replies differ across shard counts";
  if warmed <> serve_batchsize then failwith "serve_shard: snapshot failed to warm the restart"

(* ---------------------------------------------------------------- *)
(* SERVE_RECOVERY: crash-safe persistence (PR10).  Sections gated by
   bench/baseline.json:

     serve_recovery_replay  append 10^4 entries to a journal, then
                            replay them into a fresh LRU — the write
                            path and the startup cost of warm recovery
                            in one deterministic loop
     serve_recovery_cold    the run_serve workload through a journaled
                            Serve_shard, ended by abort (no
                            compaction) — prices the per-batch
                            append+flush overhead against the
                            unjournaled serve_shard sections
     serve_recovery_warm    restart over exactly that crash debris:
                            replay the journal, serve the same batch —
                            every request must hit the recovered cache,
                            with zero solver re-entry

   test/test_serve.ml pins the journal counters of the cold workload. *)

let recovery_entries = 10_000

let with_recovery_store f =
  let path = Filename.temp_file "pasched_bench_recovery" ".cache" in
  Sys.remove path;
  let cleanup () =
    List.iter
      (fun file -> try Sys.remove file with Sys_error _ -> ())
      [ path; path ^ ".journal"; path ^ ".tmp" ]
  in
  Fun.protect ~finally:cleanup (fun () -> f path)

let run_serve_recovery_replay () =
  with_recovery_store @@ fun path ->
  let payload i =
    [ ("status", Obs_json.String "ok"); ("value", Obs_json.Float (float_of_int i)) ]
  in
  let j = Serve_journal.open_ ~compact_every:0 ~path () in
  for i = 0 to recovery_entries - 1 do
    Serve_journal.append j ~canon:(Printf.sprintf "bench-key-%d" i) (payload i)
  done;
  (* close without compaction: the on-disk state a SIGKILL leaves *)
  Serve_journal.close j;
  let j2 = Serve_journal.open_ ~compact_every:0 ~path () in
  let cache = Serve_cache.create ~capacity:recovery_entries in
  Serve_journal.replay j2 (fun ~canon payload ->
      Serve_cache.insert cache ~hash:(Serve_key.hash canon) ~canon payload);
  let st = Serve_journal.stats j2 in
  Serve_journal.close j2;
  if st.Serve_journal.replayed <> recovery_entries then
    failwith "serve_recovery_replay: journal lost entries";
  if st.Serve_journal.skipped_corrupt <> 0 then
    failwith "serve_recovery_replay: clean journal read as corrupt";
  if (Serve_cache.stats cache).Serve_cache.size <> recovery_entries then
    failwith "serve_recovery_replay: replay did not fill the cache"

let run_serve_recovery_cold () =
  with_recovery_store @@ fun path ->
  let t =
    Serve_shard.create ~jobs:1 ~shards:2 ~cache_capacity:(2 * serve_batchsize)
      ~cache_file:path ()
  in
  for p = 1 to serve_passes do
    ignore (Sys.opaque_identity (Serve_shard.handle_batch t (serve_batch_lines p)))
  done;
  Serve_shard.abort t

let run_serve_recovery_warm () =
  with_recovery_store @@ fun path ->
  let t =
    Serve_shard.create ~jobs:1 ~shards:2 ~cache_capacity:(2 * serve_batchsize)
      ~cache_file:path ()
  in
  ignore (Serve_shard.handle_batch t (serve_batch_lines 0));
  Serve_shard.abort t;
  (* the restart: journal-only recovery (abort never checkpoints) *)
  let t2 =
    Serve_shard.create ~jobs:1 ~shards:2 ~cache_capacity:(2 * serve_batchsize)
      ~cache_file:path ()
  in
  (match Serve_shard.journal_stats t2 with
  | Some js when js.Serve_journal.replayed = serve_batchsize -> ()
  | Some js ->
    Serve_shard.shutdown t2;
    failwith
      (Printf.sprintf "serve_recovery_warm: replayed %d of %d entries"
         js.Serve_journal.replayed serve_batchsize)
  | None ->
    Serve_shard.shutdown t2;
    failwith "serve_recovery_warm: no journal stats");
  ignore (Sys.opaque_identity (Serve_shard.handle_batch t2 (serve_batch_lines 0)));
  let hits = (Serve_shard.stats t2).Serve_shard.cache.Serve_cache.hits in
  Serve_shard.shutdown t2;
  if hits <> serve_batchsize then
    failwith
      (Printf.sprintf "serve_recovery_warm: %d/%d post-crash hits" hits serve_batchsize)

(* ---------------------------------------------------------------- *)
(* GUARD: supervision overhead of pasched.guard.  The guard-off path
   adds one disarmed-hook load per instrumented-loop iteration plus a
   constant-size wrapper per call, so a supervised solve must time
   within noise of the raw Engine.solve_with it wraps.  A ratio that
   drifts well past ~1.05 on the hot solvers is a regression in the
   Fault hook or in the Guard wrapper itself.  test/test_guard.ml
   checks that the default policy solves these cases cleanly. *)

let section_guard () =
  header "GUARD  supervision overhead (Guard.solve_with vs raw Engine.solve_with)";
  Builtin.init ();
  let alpha = 3.0 in
  let inst = Workload.equal_work ~seed:23 ~n:48 ~work:1.0 (Workload.Poisson 1.0) in
  let energy = 1.5 *. float_of_int (Instance.n inst) in
  let cases =
    [
      ("incmerge", Problem.make ~objective:Problem.Makespan ~mode:(Problem.Budget energy) ~alpha ());
      ("flow", Problem.make ~objective:Problem.Total_flow ~mode:(Problem.Budget energy) ~alpha ());
    ]
  in
  let reps = 5 and inner = 20 in
  Printf.printf "%-12s %-12s %-12s %-8s\n" "solver" "raw_s" "guarded_s" "ratio";
  List.iter
    (fun (name, problem) ->
      let solver =
        match Engine.find name with
        | Some s -> s
        | None -> failwith ("guard bench: unknown solver " ^ name)
      in
      let raw () =
        for _ = 1 to inner do
          ignore (Sys.opaque_identity (Engine.solve_with solver problem inst))
        done
      in
      let guarded () =
        for _ = 1 to inner do
          ignore (Sys.opaque_identity (Guard.solve_with ~policy:Guard.off solver problem inst))
        done
      in
      (* warm-up covers lazy caches on both paths *)
      raw ();
      guarded ();
      let t_raw = time_best ~reps raw in
      let t_guard = time_best ~reps guarded in
      Printf.printf "%-12s %-12.6f %-12.6f %-8.3f\n" name (t_raw /. float_of_int inner)
        (t_guard /. float_of_int inner) (t_guard /. t_raw))
    cases

(* ---------------------------------------------------------------- *)
(* KERNEL: single-core throughput of the unboxed solver hot paths
   (PR7).  The kernel section plus four single-workload sections, all
   gated by bench/baseline.json:

     kernel_flow_cold   cold-start Flow.solve_budget per budget —
                        the flow-budget microbench on the new
                        Scratch-arena eval-only path
     kernel_flow_warm   the same budgets warm-chained in 16-point
                        chunks (the Flow_frontier.curve discipline)
     kernel_flow_legacy the same cold workload on Kernel_ref.Legacy,
                        the frozen PR6-era solver — so the artifact
                        carries its own before/after ratio, measured
                        in-process on the same machine
     kernel_frontier    Frontier.build + a makespan_at query storm on
                        the unboxed segment arrays

   The kernel section fails unless cold runs at least 3x legacy and
   warm within 1.2x of cold; test/test_kernel.ml holds the allocation
   relation on the same workload. *)

let kernel_inst = lazy (Workload.equal_work ~seed:7 ~n:64 ~work:1.0 (Workload.Poisson 1.0))
let kernel_budgets = 192
let kernel_budget i = 50.0 +. (2.5 *. float_of_int i)

let run_kernel_flow_cold () =
  let inst = Lazy.force kernel_inst in
  for i = 0 to kernel_budgets - 1 do
    ignore (Sys.opaque_identity (Flow.solve_budget ~alpha:3.0 ~energy:(kernel_budget i) inst))
  done

let run_kernel_flow_warm () =
  let inst = Lazy.force kernel_inst in
  let warm = ref None in
  for i = 0 to kernel_budgets - 1 do
    if i mod 16 = 0 then warm := None;
    let sol = Flow.solve_budget ?warm:!warm ~alpha:3.0 ~energy:(kernel_budget i) inst in
    warm := Some sol.Flow.last_speed;
    ignore (Sys.opaque_identity sol)
  done

let run_kernel_flow_legacy () =
  let inst = Lazy.force kernel_inst in
  for i = 0 to kernel_budgets - 1 do
    ignore
      (Sys.opaque_identity (Kernel_ref.Legacy.solve_budget ~alpha:3.0 ~energy:(kernel_budget i) inst))
  done

let kernel_frontier_inst = lazy (Workload.equal_work ~seed:13 ~n:2048 ~work:1.0 (Workload.Poisson 1.0))
let kernel_frontier_queries = 100_000

let run_kernel_frontier () =
  let inst = Lazy.force kernel_frontier_inst in
  let model = Power_model.alpha 3.0 in
  let f = Frontier.build model inst in
  let acc = ref 0.0 in
  for i = 0 to kernel_frontier_queries - 1 do
    let e = 10.0 +. (0.05 *. float_of_int i) in
    acc := !acc +. Frontier.makespan_at f e
  done;
  ignore (Sys.opaque_identity !acc)

(* allocated words across [f ()], same accounting as Obs_bench *)
let kernel_allocs f =
  let stat () =
    let g = Gc.quick_stat () in
    g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words
  in
  let a0 = stat () in
  f ();
  stat () -. a0

let section_kernel () =
  header "KERNEL  unboxed single-core hot paths (Scratch arena, PR7)";
  let solves = kernel_budgets in
  Printf.printf "flow-budget microbench: n=64 equal-work, %d budgets per pass\n\n" solves;
  (* warm the per-domain arena so growth doesn't land in a measured pass *)
  run_kernel_flow_cold ();
  run_kernel_flow_legacy ();
  let t_legacy = time_best ~reps:3 run_kernel_flow_legacy in
  let t_cold = time_best ~reps:3 run_kernel_flow_cold in
  let t_warm = time_best ~reps:3 run_kernel_flow_warm in
  let a_legacy = kernel_allocs run_kernel_flow_legacy /. float_of_int solves in
  let a_cold = kernel_allocs run_kernel_flow_cold /. float_of_int solves in
  let a_warm = kernel_allocs run_kernel_flow_warm /. float_of_int solves in
  let row label t a speedup =
    Printf.printf "%-26s %-12.4f %-12.0f %-16.0f %-10s\n" label t
      (float_of_int solves /. t)
      a speedup
  in
  Printf.printf "%-26s %-12s %-12s %-16s %-10s\n" "path" "seconds" "solves/sec" "allocs/solve (w)"
    "speedup";
  row "PR6-era (legacy), cold" t_legacy a_legacy "1.00x (baseline)";
  row "unboxed, cold" t_cold a_cold (Printf.sprintf "%.2fx" (t_legacy /. t_cold));
  row "unboxed, warm-chained" t_warm a_warm (Printf.sprintf "%.2fx" (t_legacy /. t_warm));
  (* the speedup must never cost a single ulp: the public results are
     bitwise identical to the boxed reference *)
  let inst = Lazy.force kernel_inst in
  let e_lo = kernel_budget 0 and e_hi = kernel_budget (kernel_budgets - 1) in
  let c_new = Flow_frontier.curve ~jobs:1 ~alpha:3.0 inst ~e_lo ~e_hi ~n:64 in
  let c_ref = Kernel_ref.curve ~alpha:3.0 inst ~e_lo ~e_hi ~n:64 in
  Printf.printf "\ncurve bitwise-identical to boxed reference: %b\n" (c_new = c_ref);
  let model = Power_model.alpha 3.0 in
  let fr_new = Frontier.build model inst in
  let fr_ref = Kernel_ref.frontier_build model inst in
  let s_new = Frontier.sample ~jobs:1 fr_new ~lo:e_lo ~hi:e_hi ~n:256 in
  let s_ref = Kernel_ref.sample fr_ref ~lo:e_lo ~hi:e_hi ~n:256 in
  Printf.printf "frontier sample bitwise-identical to boxed reference: %b\n" (s_new = s_ref);
  let t_frontier = time_best ~reps:3 run_kernel_frontier in
  Printf.printf "\nfrontier: build n=2048 + %d queries: %.4fs (%.0f queries/sec)\n"
    kernel_frontier_queries t_frontier
    (float_of_int kernel_frontier_queries /. t_frontier);
  if t_legacy /. t_cold < 3.0 then
    failwith (Printf.sprintf "kernel bench: cold is %.2fx legacy, below 3x" (t_legacy /. t_cold));
  if t_warm > 1.2 *. t_cold then
    failwith (Printf.sprintf "kernel bench: warm %.4fs slower than 1.2x cold %.4fs" t_warm t_cold)

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

let section_trace () =
  header "TRACE  streaming simulation over synthetic traces (PR8)";
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
  (* constant-memory assertion: a 10x longer trace must not grow the
     peak heap.  If live memory scaled with trace length, 10^6 jobs
     would need at least two floats per job (~4M words); the budget of
     1M extra words over the 10^5-job peak cleanly separates constant
     from linear behaviour.  The measurement is part of the artifact:
     run this section under --json and diff the printed delta. *)
  ignore (Sys.opaque_identity (run_trace ~n:100_000 `Diurnal ()));
  Gc.compact ();
  let peak_small = (Gc.quick_stat ()).Gc.top_heap_words in
  ignore (Sys.opaque_identity (run_trace ~n:1_000_000 `Diurnal ()));
  let peak_large = (Gc.quick_stat ()).Gc.top_heap_words in
  let delta = peak_large - peak_small in
  let budget = 1_000_000 in
  Printf.printf
    "\nconstant-memory: top_heap growth 1e5 -> 1e6 diurnal jobs = %d words (budget %d): %b\n"
    delta budget (delta < budget);
  if delta >= budget then failwith "trace bench: peak heap grew with trace length";
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

let sections =
  [
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
    ("fuzz", section_fuzz);
    ("par", section_par);
    ("registry", section_registry);
    ("guard", section_guard);
    ("serve", section_serve);
    ("serve_shard", section_serve_shard);
    ("serve_shard_1", run_serve_shard ~shards:1);
    ("serve_shard_2", run_serve_shard ~shards:2);
    ("serve_shard_4", run_serve_shard ~shards:4);
    ("serve_soak_100k", run_serve_soak_100k);
    ("serve_recovery_replay", run_serve_recovery_replay);
    ("serve_recovery_cold", run_serve_recovery_cold);
    ("serve_recovery_warm", run_serve_recovery_warm);
    ("kernel", section_kernel);
    ("kernel_flow_cold", run_kernel_flow_cold);
    ("kernel_flow_warm", run_kernel_flow_warm);
    ("kernel_flow_legacy", run_kernel_flow_legacy);
    ("kernel_frontier", run_kernel_frontier);
    ("trace", section_trace);
  ]

(* ---------------------------------------------------------------- *)
(* Entry point.  Plain arguments select sections (an unknown name
   exits 2 before anything runs); two flags control the
   machine-readable artifact:

     --json PATH   write a BENCH.json artifact (schema in Obs_bench)
     --obs         enable pasched.obs counters so the artifact's
                   per-section counter deltas are populated

   Without --obs the instrumentation stays compiled-away-cheap and the
   wall_s numbers are directly comparable to historical runs. *)

let git_commit () =
  match Sys.getenv_opt "GITHUB_SHA" with
  | Some sha when sha <> "" -> sha
  | _ -> (
    try
      let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "" in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, sha when sha <> "" -> sha
      | _ -> "unknown"
    with _ -> "unknown")

let iso8601_now () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
    t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec

let () =
  let json_path = ref None in
  let obs = ref false in
  let requested = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse rest
    | [ "--json" ] ->
      prerr_endline "--json requires a PATH argument";
      exit 2
    | "--obs" :: rest ->
      obs := true;
      parse rest
    | name :: rest ->
      requested := name :: !requested;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let requested = List.rev !requested in
  (match List.filter (fun name -> not (List.mem_assoc name sections)) requested with
  | [] -> ()
  | unknown ->
    Printf.eprintf "unknown section(s) %s (known: %s)\n" (String.concat " " unknown)
      (String.concat " " (List.map fst sections));
    exit 2);
  let chosen =
    if requested = [] then sections
    else List.map (fun name -> (name, List.assoc name sections)) requested
  in
  if !obs then Obs.set_enabled true;
  let results = List.map (fun (name, f) -> Obs_bench.measure ~name f) chosen in
  match !json_path with
  | None -> ()
  | Some path ->
    Obs_bench.write_file ~path ~commit:(git_commit ()) ~date:(iso8601_now ()) results;
    Printf.eprintf "bench: wrote %d section result(s) to %s\n%!" (List.length results) path
