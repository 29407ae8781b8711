(* Tests for the uniprocessor makespan solvers: IncMerge, the DP
   baseline, brute force, the non-dominated frontier (paper Figures 1-3),
   the server problem, and the bounded-speed extension. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))
let checkf6 = Alcotest.(check (float 1e-6))

let cube = Power_model.cube
let fig1 = Instance.figure1

(* ---------- IncMerge on the paper's instance ---------- *)

(* At E = 21 (above both breakpoints) the optimal configuration is three
   blocks: J1 at speed 1 (window [0,5]), J2 at speed 2 (window [5,6]),
   J3 alone with the remaining 8 units of energy -> speed sqrt 8. *)
let test_incmerge_fig1_high_energy () =
  let bs = Incmerge.blocks cube ~energy:21.0 fig1 in
  check_int "3 blocks" 3 (List.length bs);
  let speeds = List.map (fun b -> b.Block.speed) bs in
  (match speeds with
  | [ s1; s2; s3 ] ->
    checkf "block 1 speed" 1.0 s1;
    checkf "block 2 speed" 2.0 s2;
    checkf "block 3 speed" (Float.sqrt 8.0) s3
  | _ -> Alcotest.fail "expected 3 blocks");
  checkf "makespan" (6.0 +. (1.0 /. Float.sqrt 8.0)) (Incmerge.makespan cube ~energy:21.0 fig1)

(* Between the breakpoints (8 < E < 17) blocks J2 and J3 are merged. *)
let test_incmerge_fig1_mid_energy () =
  let bs = Incmerge.blocks cube ~energy:12.0 fig1 in
  check_int "2 blocks" 2 (List.length bs);
  (match bs with
  | [ b1; b2 ] ->
    checkf "block 1 speed" 1.0 b1.Block.speed;
    (* last block: work 3 from t=5, energy 12-5=7: speed sqrt(7/3) *)
    checkf "block 2 speed" (Float.sqrt (7.0 /. 3.0)) b2.Block.speed;
    checkf "block 2 start" 5.0 b2.Block.start
  | _ -> Alcotest.fail "expected 2 blocks")

(* Below E = 8 everything is one block. *)
let test_incmerge_fig1_low_energy () =
  let bs = Incmerge.blocks cube ~energy:6.0 fig1 in
  check_int "1 block" 1 (List.length bs);
  (match bs with
  | [ b ] ->
    checkf "speed" (Float.sqrt (6.0 /. 8.0)) b.Block.speed;
    checkf "makespan" (8.0 /. Float.sqrt (6.0 /. 8.0)) (Block.finish b)
  | _ -> Alcotest.fail "expected 1 block");
  (* the paper's Figure 1 lower-left corner: E=6 -> makespan about 9.24 *)
  check_bool "matches figure 1 corner" true
    (Float.abs (Incmerge.makespan cube ~energy:6.0 fig1 -. 9.2376) < 1e-3)

let test_incmerge_exact_budget () =
  List.iter
    (fun e ->
      let bs = Incmerge.blocks cube ~energy:e fig1 in
      checkf6 "budget exhausted" e (Incmerge.energy_used cube bs))
    [ 6.0; 7.9; 8.0; 8.1; 12.0; 17.0; 21.0; 100.0 ]

let test_incmerge_schedule_feasible () =
  List.iter
    (fun e ->
      let s = Incmerge.solve cube ~energy:e fig1 in
      (match Validate.check fig1 s with
      | Ok () -> ()
      | Error vs -> Alcotest.fail (String.concat "; " (List.map Validate.to_string vs)));
      checkf6 "schedule energy = budget" e (Schedule.energy cube s))
    [ 6.0; 12.0; 21.0 ]

let test_incmerge_degenerate () =
  check_int "empty instance" 0 (List.length (Incmerge.blocks cube ~energy:5.0 (Instance.create [])));
  let single = Instance.of_pairs [ (2.0, 4.0) ] in
  let bs = Incmerge.blocks cube ~energy:16.0 single in
  check_int "single job one block" 1 (List.length bs);
  (match bs with
  | [ b ] ->
    (* energy 16 = 4 * s^2 -> s = 2 *)
    checkf "speed" 2.0 b.Block.speed;
    checkf "start" 2.0 b.Block.start
  | _ -> Alcotest.fail "expected one block");
  Alcotest.check_raises "zero energy" (Invalid_argument "Incmerge.blocks: energy budget must be positive")
    (fun () -> ignore (Incmerge.blocks cube ~energy:0.0 single))

let test_incmerge_equal_releases () =
  (* all jobs released together: a single block *)
  let inst = Instance.of_pairs [ (0.0, 1.0); (0.0, 2.0); (0.0, 3.0) ] in
  let bs = Incmerge.blocks cube ~energy:6.0 inst in
  check_int "1 block" 1 (List.length bs);
  (match bs with
  | [ b ] -> checkf "speed from 6 = 6 s^2" 1.0 b.Block.speed
  | _ -> Alcotest.fail "one block")

(* ---------- lemma-level properties on random instances ---------- *)

let random_instance_gen =
  QCheck.Gen.(
    let* n = int_range 1 10 in
    let* gaps = list_size (return n) (float_range 0.0 4.0) in
    let* works = list_size (return n) (float_range 0.1 5.0) in
    let releases = List.fold_left (fun acc g -> match acc with [] -> [ g ] | r :: _ -> (r +. g) :: acc) [] gaps in
    return (List.combine (List.rev releases) works))

let arb_instance =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map (fun (r, w) -> Printf.sprintf "(%g,%g)" r w) l))
    random_instance_gen

let arb_instance_energy = QCheck.pair arb_instance QCheck.(float_range 0.5 60.0)

let prop_speeds_non_decreasing =
  QCheck.Test.make ~count:300 ~name:"lemma 6: block speeds non-decreasing" arb_instance_energy
    (fun (pairs, e) ->
      let inst = Instance.of_pairs pairs in
      let bs = Incmerge.blocks cube ~energy:e inst in
      let rec mono = function
        | a :: (b :: _ as rest) -> a.Block.speed <= b.Block.speed +. 1e-9 && mono rest
        | _ -> true
      in
      mono bs)

let prop_no_idle =
  QCheck.Test.make ~count:300 ~name:"lemma 4: no idle between first release and completion"
    arb_instance_energy
    (fun (pairs, e) ->
      let inst = Instance.of_pairs pairs in
      let bs = Incmerge.blocks cube ~energy:e inst in
      (* non-last blocks end exactly where the next begins *)
      let rec contiguous = function
        | a :: (b :: _ as rest) ->
          Float.abs (Block.finish a -. b.Block.start) <= 1e-6 *. (1.0 +. b.Block.start) && contiguous rest
        | _ -> true
      in
      contiguous bs)

let prop_feasible_and_budget =
  QCheck.Test.make ~count:300 ~name:"incmerge schedules feasible, budget exact" arb_instance_energy
    (fun (pairs, e) ->
      let inst = Instance.of_pairs pairs in
      let s = Incmerge.solve cube ~energy:e inst in
      Validate.is_feasible inst s && Float.abs (Schedule.energy cube s -. e) <= 1e-6 *. e)

let prop_incmerge_equals_dp =
  QCheck.Test.make ~count:200 ~name:"incmerge makespan = DP baseline" arb_instance_energy
    (fun (pairs, e) ->
      let inst = Instance.of_pairs pairs in
      let a = Incmerge.makespan cube ~energy:e inst in
      let b = Dp_makespan.makespan cube ~energy:e inst in
      Float.abs (a -. b) <= 1e-6 *. (1.0 +. a))

let prop_incmerge_equals_brute =
  QCheck.Test.make ~count:150 ~name:"incmerge makespan = brute force" arb_instance_energy
    (fun (pairs, e) ->
      let pairs = match pairs with _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: rest -> (match rest with [] -> pairs | _ -> List.filteri (fun i _ -> i < 8) pairs) | _ -> pairs in
      let inst = Instance.of_pairs pairs in
      let a = Incmerge.makespan cube ~energy:e inst in
      let b = Brute.makespan cube ~energy:e inst in
      Float.abs (a -. b) <= 1e-6 *. (1.0 +. a))

let prop_makespan_decreasing_in_energy =
  QCheck.Test.make ~count:200 ~name:"more energy never hurts makespan" arb_instance_energy
    (fun (pairs, e) ->
      let inst = Instance.of_pairs pairs in
      Incmerge.makespan cube ~energy:(e *. 1.25) inst <= Incmerge.makespan cube ~energy:e inst +. 1e-9)

let prop_alpha_generalizes =
  (* the lemmas hold for any strictly convex power; try alpha = 2 and 1.7 *)
  QCheck.Test.make ~count:100 ~name:"incmerge = brute under other alphas" arb_instance_energy
    (fun (pairs, e) ->
      let pairs = List.filteri (fun i _ -> i < 7) pairs in
      let inst = Instance.of_pairs pairs in
      List.for_all
        (fun a ->
          let m = Power_model.alpha a in
          Float.abs (Incmerge.makespan m ~energy:e inst -. Brute.makespan m ~energy:e inst)
          <= 1e-6 *. (1.0 +. Incmerge.makespan m ~energy:e inst))
        [ 2.0; 1.7 ])

let wireless = Power_model.custom ~name:"2^s-1" (fun s -> (2.0 ** s) -. 1.0)

let prop_custom_power_model =
  (* a non-polynomial convex power function: P(s) = 2^s - 1 (wireless).
     Unlike the alpha model it has P'(0) = ln 2 > 0, so only budgets
     above the energy floor are feasible. *)
  QCheck.Test.make ~count:60 ~name:"incmerge = brute under wireless power model"
    (QCheck.pair arb_instance QCheck.(float_range 2.0 30.0))
    (fun (pairs, e) ->
      let pairs = List.filteri (fun i _ -> i < 6) pairs in
      let inst = Instance.of_pairs pairs in
      let e = e +. (1.05 *. Power_model.energy_floor wireless ~work:(Instance.total_work inst)) in
      Float.abs (Incmerge.makespan wireless ~energy:e inst -. Brute.makespan wireless ~energy:e inst)
      <= 1e-5 *. (1.0 +. Incmerge.makespan wireless ~energy:e inst))

let test_energy_floor () =
  checkf "alpha model has zero floor" 0.0 (Power_model.energy_floor cube ~work:10.0);
  let floor = Power_model.energy_floor wireless ~work:10.0 in
  check_bool "wireless floor = 10 ln 2" true (Float.abs (floor -. (10.0 *. Float.log 2.0)) < 1e-4);
  let inst = Instance.of_pairs [ (0.0, 10.0) ] in
  Alcotest.check_raises "budget below floor rejected"
    (Invalid_argument "Incmerge.blocks: budget below the power model's energy floor")
    (fun () -> ignore (Incmerge.blocks wireless ~energy:(floor /. 2.0) inst));
  (* just above the floor is feasible, if very slow *)
  let m = Incmerge.makespan wireless ~energy:(floor *. 1.01) inst in
  check_bool "feasible just above floor" true (Float.is_finite m && m > 0.0)

(* ---------- frontier: the paper's Figures 1-3 ---------- *)

let test_frontier_breakpoints () =
  let f = Frontier.build cube fig1 in
  let bps = Frontier.breakpoints f in
  check_int "two configuration changes" 2 (List.length bps);
  (match bps with
  | [ b1; b2 ] ->
    checkf "first breakpoint at 8" 8.0 b1;
    checkf "second breakpoint at 17" 17.0 b2
  | _ -> Alcotest.fail "expected 2 breakpoints")

let test_frontier_figure1_values () =
  let f = Frontier.build cube fig1 in
  (* figure endpoints: E in [6, 21] *)
  check_bool "M(6) ~ 9.24" true (Float.abs (Frontier.makespan_at f 6.0 -. 9.2376) < 1e-3);
  checkf "M(17) = 6.5" 6.5 (Frontier.makespan_at f 17.0);
  checkf "M(21)" (6.0 +. (1.0 /. Float.sqrt 8.0)) (Frontier.makespan_at f 21.0);
  checkf "M(8): one/two-block boundary" (5.0 +. (3.0 /. Float.sqrt 1.0)) (Frontier.makespan_at f 8.0)

let test_frontier_matches_incmerge () =
  let f = Frontier.build cube fig1 in
  List.iter
    (fun e -> checkf6 "frontier = incmerge" (Incmerge.makespan cube ~energy:e fig1) (Frontier.makespan_at f e))
    [ 6.0; 7.0; 8.0; 9.0; 12.0; 16.9; 17.0; 17.1; 21.0; 50.0 ]

let test_frontier_c1_continuity () =
  (* figure 2: the first derivative is continuous across breakpoints *)
  let f = Frontier.build cube fig1 in
  List.iter
    (fun e ->
      let below = Frontier.deriv1_at f (e -. 1e-7) in
      let above = Frontier.deriv1_at f (e +. 1e-7) in
      check_bool "dM/dE continuous" true (Float.abs (below -. above) < 1e-4))
    [ 8.0; 17.0 ]

let test_frontier_c2_jumps () =
  (* figure 3: the second derivative jumps at the breakpoints *)
  let f = Frontier.build cube fig1 in
  List.iter
    (fun e ->
      let below = Frontier.deriv2_at f (e -. 1e-7) in
      let above = Frontier.deriv2_at f (e +. 1e-7) in
      check_bool "d2M/dE2 discontinuous" true (Float.abs (below -. above) > 1e-4))
    [ 8.0; 17.0 ]

let test_frontier_figure23_signs () =
  let f = Frontier.build cube fig1 in
  List.iter
    (fun e ->
      check_bool "dM/dE < 0" true (Frontier.deriv1_at f e < 0.0);
      check_bool "d2M/dE2 > 0" true (Frontier.deriv2_at f e > 0.0))
    [ 6.0; 7.5; 10.0; 14.0; 18.0; 21.0 ]

(* figure 2/3 ranges: dM/dE spans about [-0.8, 0] and d2M/dE2 about
   [0, 0.25] over E in [6, 21] *)
let test_frontier_figure23_ranges () =
  let f = Frontier.build cube fig1 in
  let d1_6 = Frontier.deriv1_at f 6.0 in
  let d2_6 = Frontier.deriv2_at f 6.0 in
  check_bool "d1(6) in [-0.8, -0.7]" true (d1_6 < -0.7 && d1_6 > -0.8);
  check_bool "d2(6) in [0.15, 0.25]" true (d2_6 > 0.15 && d2_6 < 0.25);
  check_bool "d1(21) near 0" true (Frontier.deriv1_at f 21.0 > -0.1);
  check_bool "d2(21) near 0" true (Frontier.deriv2_at f 21.0 < 0.05)

let test_server_round_trip () =
  let f = Frontier.build cube fig1 in
  List.iter
    (fun e ->
      let m = Frontier.makespan_at f e in
      checkf6 "E(M(E)) = E" e (Frontier.energy_for_makespan f m))
    [ 6.0; 8.0; 12.0; 17.0; 21.0; 40.0 ]

let test_server_module () =
  let e = Server.min_energy cube ~makespan:6.5 fig1 in
  checkf6 "server at M=6.5 needs E=17" 17.0 e;
  let s = Server.solve cube ~makespan:6.5 fig1 in
  check_bool "feasible" true (Validate.is_feasible fig1 s);
  checkf6 "achieves target" 6.5 (Metrics.makespan s);
  check_bool "infeasible target rejected" true (not (Server.feasible_makespan cube fig1 5.9));
  (match Server.min_energy cube ~makespan:5.9 fig1 with
  | _ -> Alcotest.fail "below-infimum target should raise Infeasible_target"
  | exception Frontier.Infeasible_target { target; infimum } ->
    checkf6 "payload echoes the target" 5.9 target;
    check_bool "payload carries the infimum" true (infimum >= 5.9))

let prop_frontier_matches_incmerge_random =
  QCheck.Test.make ~count:150 ~name:"frontier curve = incmerge at every budget" arb_instance_energy
    (fun (pairs, e) ->
      let inst = Instance.of_pairs pairs in
      let f = Frontier.build cube inst in
      let a = Frontier.makespan_at f e in
      let b = Incmerge.makespan cube ~energy:e inst in
      Float.abs (a -. b) <= 1e-6 *. (1.0 +. b))

let prop_frontier_convex_decreasing =
  QCheck.Test.make ~count:100 ~name:"frontier curve decreasing and convex in energy" arb_instance
    (fun pairs ->
      let inst = Instance.of_pairs pairs in
      let f = Frontier.build cube inst in
      let es = List.init 30 (fun i -> 0.5 +. (float_of_int i *. 0.7)) in
      let ms = List.map (Frontier.makespan_at f) es in
      let rec decreasing = function
        | a :: (b :: _ as rest) -> b <= a +. 1e-9 && decreasing rest
        | _ -> true
      in
      let rec convex = function
        | a :: (b :: (c :: _ as rest2)) -> b <= ((a +. c) /. 2.0) +. 1e-9 && convex (b :: rest2)
        | _ -> true
      in
      decreasing ms && convex ms)

let prop_server_laptop_duality =
  QCheck.Test.make ~count:150 ~name:"server and laptop are inverse" arb_instance_energy
    (fun (pairs, e) ->
      let inst = Instance.of_pairs pairs in
      let f = Frontier.build cube inst in
      let m = Frontier.makespan_at f e in
      Float.abs (Frontier.energy_for_makespan f m -. e) <= 1e-6 *. (1.0 +. e))

(* ---------- bounded speed extension ---------- *)

let test_bounded_no_cap_equals_incmerge () =
  let m1 = Bounded_speed.makespan cube ~energy:21.0 ~cap:1e9 fig1 in
  checkf6 "huge cap = unbounded" (Incmerge.makespan cube ~energy:21.0 fig1) m1;
  check_bool "cap does not bind" true (not (Bounded_speed.cap_binds cube ~energy:21.0 ~cap:1e9 fig1))

let test_bounded_cap_binds () =
  (* at E=21 the last block runs at sqrt 8 ~ 2.83; cap it at 2 *)
  check_bool "cap binds" true (Bounded_speed.cap_binds cube ~energy:21.0 ~cap:2.0 fig1);
  let m = Bounded_speed.makespan cube ~energy:21.0 ~cap:2.0 fig1 in
  check_bool "makespan worse than unbounded" true (m > Incmerge.makespan cube ~energy:21.0 fig1);
  let s = Bounded_speed.solve cube ~energy:21.0 ~cap:2.0 fig1 in
  check_bool "feasible" true (Validate.is_feasible fig1 s);
  check_bool "within budget" true (Schedule.energy cube s <= 21.0 +. 1e-6);
  List.iter
    (fun e -> check_bool "speeds capped" true (e.Schedule.speed <= 2.0 +. 1e-9))
    (Schedule.entries s)

let test_bounded_single_spill_exact () =
  (* two jobs, second released late, cap forces the last block to 1;
     leftover energy accelerates block 1 up to the release boundary *)
  let inst = Instance.of_pairs [ (0.0, 2.0); (4.0, 4.0) ] in
  (* unbounded at E=30: block1 speed 0.5 (window 4), remaining 29 for
     block2: speed sqrt(29/4) ~ 2.69 > cap=1.5 *)
  let cap = 1.5 in
  let m = Bounded_speed.makespan cube ~energy:30.0 ~cap inst in
  (* block2 at cap from t=4: 4/1.5 duration -> 6.667; block1 cannot help
     because block2 starts at its release *)
  checkf6 "single spill exact" (4.0 +. (4.0 /. cap)) m

let prop_bounded_monotone_in_cap =
  QCheck.Test.make ~count:100 ~name:"bounded-speed makespan decreasing in cap" arb_instance_energy
    (fun (pairs, e) ->
      let inst = Instance.of_pairs pairs in
      let m1 = Bounded_speed.makespan cube ~energy:e ~cap:1.0 inst in
      let m2 = Bounded_speed.makespan cube ~energy:e ~cap:2.0 inst in
      let m3 = Bounded_speed.makespan cube ~energy:e ~cap:1e6 inst in
      m2 <= m1 +. 1e-9 && m3 <= m2 +. 1e-9
      && Float.abs (m3 -. Incmerge.makespan cube ~energy:e inst) <= 1e-6 *. (1.0 +. m3))

let prop_bounded_feasible =
  QCheck.Test.make ~count:100 ~name:"bounded-speed schedules feasible and within budget"
    arb_instance_energy
    (fun (pairs, e) ->
      let inst = Instance.of_pairs pairs in
      let s = Bounded_speed.solve cube ~energy:e ~cap:1.3 inst in
      Validate.is_feasible inst s
      && Schedule.energy cube s <= e *. (1.0 +. 1e-6)
      && List.for_all (fun en -> en.Schedule.speed <= 1.3 +. 1e-9) (Schedule.entries s))

(* ---------- simulator agreement ---------- *)

let test_sim_replays_incmerge () =
  List.iter
    (fun e ->
      let plan = Incmerge.solve cube ~energy:e fig1 in
      let report = Sim.run cube fig1 plan in
      check_bool "simulation matches analytic plan" true (Sim.agrees_with_plan report cube plan))
    [ 6.0; 12.0; 21.0 ]

let prop_sim_agrees_with_plans =
  QCheck.Test.make ~count:150 ~name:"simulator replay = analytic schedule" arb_instance_energy
    (fun (pairs, e) ->
      let inst = Instance.of_pairs pairs in
      let plan = Incmerge.solve cube ~energy:e inst in
      let report = Sim.run cube inst plan in
      Sim.agrees_with_plan report cube plan)

let test_sim_discrete_levels_cost_energy () =
  let plan = Incmerge.solve cube ~energy:12.0 fig1 in
  let levels = Discrete_levels.create [ 0.25; 0.5; 1.0; 1.5; 2.0; 3.0 ] in
  let report = Sim.run ~config:{ Sim.default_config with levels = Some levels } cube fig1 plan in
  (* same completion times (two-level emulation preserves durations)… *)
  checkf6 "makespan preserved" (Metrics.makespan plan) report.Sim.makespan;
  (* …but strictly more energy by convexity *)
  check_bool "energy overhead positive" true (report.Sim.energy > Schedule.energy cube plan +. 1e-9)

let test_sim_switch_overhead () =
  let plan = Incmerge.solve cube ~energy:21.0 fig1 in
  let report =
    Sim.run ~config:{ Sim.default_config with switch_time = 0.1; switch_energy = 0.05 } cube fig1 plan
  in
  (* three blocks -> three switches from idle/previous speeds *)
  check_bool "switches counted" true (report.Sim.switches >= 3);
  check_bool "makespan grows" true (report.Sim.makespan > Metrics.makespan plan);
  check_bool "energy grows" true (report.Sim.energy > Schedule.energy cube plan)


let test_incmerge_large_scale () =
  (* linear-time claim exercised at scale: 100k jobs in well under a
     second, with the budget exactly exhausted and blocks well-formed *)
  let n = 100_000 in
  let inst = Workload.uniform_work ~seed:1 ~n ~lo:0.5 ~hi:2.0 (Workload.Poisson 1.0) in
  let t0 = Sys.time () in
  let bs = Incmerge.blocks cube ~energy:(float_of_int n) inst in
  let elapsed = Sys.time () -. t0 in
  check_bool "fast enough (linear)" true (elapsed < 2.0);
  checkf6 "budget exhausted" (float_of_int n) (Incmerge.energy_used cube bs /. float_of_int n *. float_of_int n);
  check_bool "budget close" true
    (Float.abs (Incmerge.energy_used cube bs -. float_of_int n) < 1e-6 *. float_of_int n);
  let rec mono = function
    | a :: (b :: _ as rest) -> a.Block.speed <= b.Block.speed +. 1e-9 && mono rest
    | _ -> true
  in
  check_bool "monotone speeds at scale" true (mono bs)

(* the linear-time claim (§3.1, Lemmas 2-7) as work counters: every
   job is pushed once and every merge round pops one cell, so the
   rounds never outnumber the jobs; the jobs that do not open an
   emitted block were absorbed by splits.  Budget 4n leaves several
   blocks at every size (budget n merges everything into one). *)
let test_incmerge_linear_counters () =
  let count name = Obs_metrics.value (Obs.counter name) in
  List.iter
    (fun n ->
      let inst = Workload.uniform_work ~seed:1 ~n ~lo:0.5 ~hi:2.0 (Workload.Poisson 1.0) in
      Obs.set_enabled true;
      Obs.reset ();
      let bs =
        Fun.protect
          ~finally:(fun () -> Obs.set_enabled false)
          (fun () -> Incmerge.blocks cube ~energy:(4.0 *. float_of_int n) inst)
      in
      let jobs = count "incmerge.jobs_processed" and blocks = count "incmerge.blocks_emitted" in
      let tag what = Printf.sprintf "%s (n=%d)" what n in
      check_int (tag "jobs_processed") n jobs;
      check_int (tag "blocks_emitted") (List.length bs) blocks;
      check_bool (tag "several blocks") true (blocks > 1);
      check_bool (tag "merge_rounds <= jobs_processed") true (count "incmerge.merge_rounds" <= jobs);
      check_int (tag "block_splits = jobs_processed - blocks_emitted") (jobs - blocks)
        (count "incmerge.block_splits"))
    [ 100; 1_000; 10_000; 100_000 ]

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "makespan"
    [
      ( "incmerge-figure1",
        [
          Alcotest.test_case "E=21 three blocks" `Quick test_incmerge_fig1_high_energy;
          Alcotest.test_case "E=12 two blocks" `Quick test_incmerge_fig1_mid_energy;
          Alcotest.test_case "E=6 one block" `Quick test_incmerge_fig1_low_energy;
          Alcotest.test_case "budget exhausted exactly" `Quick test_incmerge_exact_budget;
          Alcotest.test_case "schedules feasible" `Quick test_incmerge_schedule_feasible;
          Alcotest.test_case "degenerate cases" `Quick test_incmerge_degenerate;
          Alcotest.test_case "equal releases" `Quick test_incmerge_equal_releases;
          Alcotest.test_case "100k-job stress" `Slow test_incmerge_large_scale;
          Alcotest.test_case "linear-time counters" `Quick test_incmerge_linear_counters;
        ] );
      ( "incmerge-properties",
        [
          qt prop_speeds_non_decreasing;
          qt prop_no_idle;
          qt prop_feasible_and_budget;
          qt prop_incmerge_equals_dp;
          qt prop_incmerge_equals_brute;
          qt prop_makespan_decreasing_in_energy;
          qt prop_alpha_generalizes;
          qt prop_custom_power_model;
          Alcotest.test_case "energy floor semantics" `Quick test_energy_floor;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "breakpoints at 8 and 17" `Quick test_frontier_breakpoints;
          Alcotest.test_case "figure 1 values" `Quick test_frontier_figure1_values;
          Alcotest.test_case "curve = incmerge" `Quick test_frontier_matches_incmerge;
          Alcotest.test_case "figure 2: C1 continuity" `Quick test_frontier_c1_continuity;
          Alcotest.test_case "figure 3: C2 jumps" `Quick test_frontier_c2_jumps;
          Alcotest.test_case "derivative signs" `Quick test_frontier_figure23_signs;
          Alcotest.test_case "figure 2/3 ranges" `Quick test_frontier_figure23_ranges;
          Alcotest.test_case "server round trip" `Quick test_server_round_trip;
          Alcotest.test_case "server module" `Quick test_server_module;
          qt prop_frontier_matches_incmerge_random;
          qt prop_frontier_convex_decreasing;
          qt prop_server_laptop_duality;
        ] );
      ( "bounded-speed",
        [
          Alcotest.test_case "no-op cap" `Quick test_bounded_no_cap_equals_incmerge;
          Alcotest.test_case "binding cap" `Quick test_bounded_cap_binds;
          Alcotest.test_case "single spill exact" `Quick test_bounded_single_spill_exact;
          qt prop_bounded_monotone_in_cap;
          qt prop_bounded_feasible;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "replay = plan" `Quick test_sim_replays_incmerge;
          Alcotest.test_case "discrete levels overhead" `Quick test_sim_discrete_levels_cost_energy;
          Alcotest.test_case "switch overhead" `Quick test_sim_switch_overhead;
          qt prop_sim_agrees_with_plans;
        ] );
    ]
