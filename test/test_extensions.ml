(* Tests for the extension modules built around the paper's section 6
   and related-work directions: discrete speed levels, precedence
   constraints, and the thermal model. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf6 = Alcotest.(check (float 1e-6))
let checkf3 = Alcotest.(check (float 1e-3))

let cube = Power_model.cube

(* ---------- Discrete_makespan ---------- *)

let fine_levels k top = Discrete_levels.create (List.init k (fun i -> top *. float_of_int (i + 1) /. float_of_int k))

let test_discrete_energy_of_duration () =
  let levels = Discrete_levels.athlon64 in
  (* at an exact level, the discrete and continuous energies agree *)
  (match Discrete_makespan.energy_of_duration cube levels ~work:1.8 ~duration:1.0 with
  | Some e -> checkf6 "exact level" (Power_model.energy_in_time cube ~work:1.8 ~duration:1.0) e
  | None -> Alcotest.fail "feasible expected");
  (* above the top level: infeasible *)
  check_bool "above top" true
    (Discrete_makespan.energy_of_duration cube levels ~work:3.0 ~duration:1.0 = None);
  (* below the bottom level: constant floor *)
  let floor = Discrete_makespan.min_energy cube levels ~work:1.0 in
  (match Discrete_makespan.energy_of_duration cube levels ~work:1.0 ~duration:100.0 with
  | Some e -> checkf6 "floor" floor e
  | None -> Alcotest.fail "feasible expected");
  checkf6 "floor formula" (1.0 /. 0.8 *. Power_model.power cube 0.8) floor

let test_discrete_solve_figure1 () =
  let levels = fine_levels 64 4.0 in
  let d = Discrete_makespan.solve cube levels ~energy:12.0 Instance.figure1 in
  let continuous = Incmerge.makespan cube ~energy:12.0 Instance.figure1 in
  check_bool "discrete >= continuous" true (d.Discrete_makespan.makespan >= continuous -. 1e-9);
  check_bool "close with fine levels" true (d.Discrete_makespan.makespan <= continuous *. 1.05);
  check_bool "within budget" true (d.Discrete_makespan.energy <= 12.0 +. 1e-6);
  check_int "one plan per job" 3 (List.length d.Discrete_makespan.plans)

let test_discrete_work_conserved () =
  let levels = Discrete_levels.athlon64 in
  let inst = Instance.figure1 in
  let d = Discrete_makespan.solve cube levels ~energy:12.0 inst in
  List.iter
    (fun p ->
      let done_work =
        List.fold_left
          (fun acc (s : Speed_profile.segment) -> acc +. ((s.Speed_profile.t1 -. s.Speed_profile.t0) *. s.Speed_profile.speed))
          0.0 p.Discrete_makespan.segments
      in
      checkf6 "job work completed" p.Discrete_makespan.job.Job.work done_work;
      List.iter
        (fun (s : Speed_profile.segment) ->
          check_bool "segment after release" true
            (s.Speed_profile.t0 >= p.Discrete_makespan.job.Job.release -. 1e-9))
        p.Discrete_makespan.segments)
    d.Discrete_makespan.plans

let test_discrete_below_floor_rejected () =
  let levels = Discrete_levels.create [ 1.0; 2.0 ] in
  (* total work 8 at bottom level speed 1: floor = 8 *)
  Alcotest.check_raises "below floor"
    (Invalid_argument "Discrete_makespan.solve: budget below the discrete energy floor")
    (fun () -> ignore (Discrete_makespan.solve cube levels ~energy:4.0 Instance.figure1))

(* refining the level set converges to the continuous optimum *)
let discrete_converges (seed, e) =
  let inst = Workload.uniform_work ~seed ~n:6 ~lo:0.5 ~hi:2.0 (Workload.Poisson 1.0) in
  let continuous = Incmerge.makespan cube ~energy:e inst in
  let coarse = Discrete_makespan.makespan cube (fine_levels 8 5.0) ~energy:e inst in
  let fine = Discrete_makespan.makespan cube (fine_levels 128 5.0) ~energy:e inst in
  coarse >= continuous -. 1e-9
  && fine >= continuous -. 1e-9
  && fine <= coarse +. 1e-9
  && fine <= continuous *. 1.02

let prop_discrete_convergence =
  QCheck.Test.make ~count:40 ~name:"discrete makespan converges to continuous"
    QCheck.(pair (int_range 0 1000) (float_range 8.0 30.0))
    discrete_converges

(* budgets where a solve that stops short of spending its budget lets
   the 8-level plan beat the 128-level one *)
let test_discrete_converges_recorded () =
  List.iter
    (fun (seed, e) ->
      check_bool (Printf.sprintf "seed %d, E = %.13g" seed e) true (discrete_converges (seed, e)))
    [ (480, 28.35022052496); (9, 16.46395859416); (69, 28.60175578616) ]

let prop_discrete_budget_respected =
  QCheck.Test.make ~count:60 ~name:"discrete plans stay within budget"
    QCheck.(pair (int_range 0 1000) (float_range 10.0 40.0))
    (fun (seed, e) ->
      let inst = Workload.uniform_work ~seed ~n:6 ~lo:0.5 ~hi:2.0 (Workload.Poisson 1.0) in
      let d = Discrete_makespan.solve cube (fine_levels 16 5.0) ~energy:e inst in
      d.Discrete_makespan.energy <= e +. (1e-6 *. e))

(* ---------- Dag ---------- *)

let diamond () =
  (* 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 *)
  Dag.create ~works:[| 1.0; 2.0; 3.0; 1.0 |] ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_dag_basics () =
  let d = diamond () in
  check_int "n" 4 (Dag.n d);
  checkf6 "total work" 7.0 (Dag.total_work d);
  checkf6 "critical path 0-2-3" 5.0 (Dag.critical_path_work d);
  Alcotest.(check (list int)) "preds of 3" [ 1; 2 ] (List.sort compare (Dag.preds d 3));
  Alcotest.(check (list int)) "succs of 0" [ 1; 2 ] (List.sort compare (Dag.succs d 0));
  let topo = Dag.topological_order d in
  check_int "topo length" 4 (List.length topo);
  (* 0 first, 3 last *)
  check_int "topo head" 0 (List.hd topo);
  check_int "topo last" 3 (List.nth topo 3)

let test_dag_cycle_rejected () =
  Alcotest.check_raises "cycle" (Invalid_argument "Dag.create: graph has a cycle") (fun () ->
      ignore (Dag.create ~works:[| 1.0; 1.0 |] ~edges:[ (0, 1); (1, 0) ]))

let test_dag_chain_and_independent () =
  let c = Dag.chain [| 1.0; 2.0; 3.0 |] in
  checkf6 "chain critical = total" 6.0 (Dag.critical_path_work c);
  let i = Dag.independent [| 1.0; 2.0; 3.0 |] in
  checkf6 "independent critical = max" 3.0 (Dag.critical_path_work i)

let prop_dag_random_acyclic =
  QCheck.Test.make ~count:60 ~name:"random layered DAGs are well-formed"
    QCheck.(int_range 0 10000)
    (fun seed ->
      let d = Dag.random ~seed ~n:20 ~layers:4 ~edge_prob:0.4 ~work_range:(0.5, 2.0) in
      List.length (Dag.topological_order d) = 20
      && Dag.critical_path_work d <= Dag.total_work d +. 1e-9)

(* ---------- Precedence ---------- *)

let test_precedence_chain_uniform_optimal () =
  (* a chain cannot be parallelized: uniform speed meets the chain bound *)
  let d = Dag.chain [| 1.0; 2.0; 1.0 |] in
  let t = Precedence.uniform ~alpha:3.0 ~m:4 ~energy:8.0 d in
  checkf6 "chain bound tight" (Precedence.lower_bound ~alpha:3.0 ~m:4 ~energy:8.0 d)
    t.Precedence.makespan;
  check_bool "feasible" true (Precedence.feasible d ~m:4 t);
  checkf6 "energy = budget" 8.0 t.Precedence.energy

let test_precedence_independent_matches_load_bound () =
  (* equal independent tasks on m procs: load bound is achievable *)
  let d = Dag.independent (Array.make 4 1.0) in
  let t = Precedence.uniform ~alpha:3.0 ~m:2 ~energy:4.0 d in
  checkf3 "load bound tight" (Precedence.lower_bound ~alpha:3.0 ~m:2 ~energy:4.0 d)
    t.Precedence.makespan

let test_precedence_boost_helps_on_mixed_dag () =
  (* a long chain plus parallel filler: boosting the chain speeds wins *)
  let works = Array.make 12 1.0 in
  works.(0) <- 4.0;
  works.(1) <- 4.0;
  works.(2) <- 4.0;
  let edges = [ (0, 1); (1, 2) ] in
  let d = Dag.create ~works ~edges in
  let u = Precedence.uniform ~alpha:3.0 ~m:3 ~energy:30.0 d in
  let b = Precedence.critical_boost ~alpha:3.0 ~m:3 ~energy:30.0 d in
  check_bool "boost no worse" true (b.Precedence.makespan <= u.Precedence.makespan +. 1e-9);
  check_bool "boost strictly helps here" true (b.Precedence.makespan < u.Precedence.makespan -. 1e-6);
  check_bool "boost feasible" true (Precedence.feasible d ~m:3 b);
  check_bool "boost within budget" true (b.Precedence.energy <= 30.0 *. (1.0 +. 1e-9))

let prop_precedence_feasible_and_bounded =
  QCheck.Test.make ~count:60 ~name:"precedence schedules feasible and above lower bound"
    QCheck.(triple (int_range 0 10000) (int_range 1 4) (float_range 5.0 50.0))
    (fun (seed, m, e) ->
      let d = Dag.random ~seed ~n:15 ~layers:4 ~edge_prob:0.35 ~work_range:(0.5, 2.0) in
      let t = Precedence.critical_boost ~alpha:3.0 ~m ~energy:e d in
      Precedence.feasible d ~m t
      && t.Precedence.makespan >= Precedence.lower_bound ~alpha:3.0 ~m ~energy:e d -. 1e-6
      && t.Precedence.energy <= e *. (1.0 +. 1e-9))

let prop_precedence_more_energy_helps =
  QCheck.Test.make ~count:40 ~name:"precedence makespan decreasing in energy"
    QCheck.(pair (int_range 0 10000) (float_range 5.0 30.0))
    (fun (seed, e) ->
      let d = Dag.random ~seed ~n:12 ~layers:3 ~edge_prob:0.4 ~work_range:(0.5, 2.0) in
      let m1 = (Precedence.uniform ~alpha:3.0 ~m:2 ~energy:e d).Precedence.makespan in
      let m2 = (Precedence.uniform ~alpha:3.0 ~m:2 ~energy:(e *. 1.5) d).Precedence.makespan in
      m2 <= m1 +. 1e-9)

(* ---------- Thermal ---------- *)

let test_thermal_steady_state () =
  checkf6 "steady state" 4.0 (Thermal.steady_state cube ~heating:1.0 ~cooling:2.0 2.0);
  (* constant speed forever approaches the steady state *)
  let p = Speed_profile.of_segments [ { Speed_profile.t0 = 0.0; t1 = 50.0; speed = 2.0 } ] in
  let t_end = Thermal.temperature_at cube ~heating:1.0 ~cooling:2.0 p 50.0 in
  checkf6 "converged" 4.0 t_end

let test_thermal_cooling_when_idle () =
  let p = Speed_profile.of_segments [ { Speed_profile.t0 = 0.0; t1 = 1.0; speed = 2.0 } ] in
  let hot = Thermal.temperature_at cube ~heating:1.0 ~cooling:1.0 p 1.0 in
  let later = Thermal.temperature_at cube ~heating:1.0 ~cooling:1.0 p 3.0 in
  check_bool "cools after the segment" true (later < hot);
  checkf6 "exponential decay" (hot *. Float.exp (-2.0)) later

let test_thermal_max_at_boundary () =
  let p =
    Speed_profile.of_segments
      [
        { Speed_profile.t0 = 0.0; t1 = 2.0; speed = 3.0 };
        { Speed_profile.t0 = 2.0; t1 = 4.0; speed = 1.0 };
      ]
  in
  let mx = Thermal.max_temperature cube ~heating:1.0 ~cooling:1.0 p in
  let at2 = Thermal.temperature_at cube ~heating:1.0 ~cooling:1.0 p 2.0 in
  checkf6 "peak at the fast segment's end" at2 mx

let test_thermal_racing_hotter () =
  (* same work, same window: racing at double speed then idling peaks
     hotter than running slow throughout (why temperature-aware
     scheduling differs from energy-aware) *)
  let slow = Speed_profile.of_segments [ { Speed_profile.t0 = 0.0; t1 = 4.0; speed = 1.0 } ] in
  let race = Speed_profile.of_segments [ { Speed_profile.t0 = 0.0; t1 = 2.0; speed = 2.0 } ] in
  let mx_slow = Thermal.max_temperature cube ~heating:1.0 ~cooling:0.5 slow in
  let mx_race = Thermal.max_temperature cube ~heating:1.0 ~cooling:0.5 race in
  check_bool "racing runs hotter" true (mx_race > mx_slow)

let prop_thermal_matches_integrator =
  (* closed-form trace = numeric integration of the ODE *)
  QCheck.Test.make ~count:40 ~name:"thermal closed form matches numeric ODE"
    QCheck.(triple (float_range 0.5 3.0) (float_range 0.2 2.0) (float_range 0.5 2.5))
    (fun (speed, cooling, dur) ->
      let p = Speed_profile.of_segments [ { Speed_profile.t0 = 0.0; t1 = dur; speed } ] in
      let closed = Thermal.temperature_at cube ~heating:1.0 ~cooling p dur in
      (* forward Euler with small steps *)
      let steps = 20000 in
      let dt = dur /. float_of_int steps in
      let t = ref 0.0 in
      for _ = 1 to steps do
        t := !t +. (dt *. (Power_model.power cube speed -. (cooling *. !t)))
      done;
      Float.abs (closed -. !t) <= 1e-3 *. (1.0 +. closed))

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "extensions"
    [
      ( "discrete-makespan",
        [
          Alcotest.test_case "energy of duration" `Quick test_discrete_energy_of_duration;
          Alcotest.test_case "figure1 instance" `Quick test_discrete_solve_figure1;
          Alcotest.test_case "work conserved" `Quick test_discrete_work_conserved;
          Alcotest.test_case "below floor rejected" `Quick test_discrete_below_floor_rejected;
          Alcotest.test_case "converges on recorded cases" `Quick test_discrete_converges_recorded;
          qt prop_discrete_convergence;
          qt prop_discrete_budget_respected;
        ] );
      ( "dag",
        [
          Alcotest.test_case "diamond basics" `Quick test_dag_basics;
          Alcotest.test_case "cycle rejected" `Quick test_dag_cycle_rejected;
          Alcotest.test_case "chain and independent" `Quick test_dag_chain_and_independent;
          qt prop_dag_random_acyclic;
        ] );
      ( "precedence",
        [
          Alcotest.test_case "chain: uniform meets bound" `Quick test_precedence_chain_uniform_optimal;
          Alcotest.test_case "independent: load bound" `Quick test_precedence_independent_matches_load_bound;
          Alcotest.test_case "critical boost helps" `Quick test_precedence_boost_helps_on_mixed_dag;
          qt prop_precedence_feasible_and_bounded;
          qt prop_precedence_more_energy_helps;
        ] );
      ( "thermal",
        [
          Alcotest.test_case "steady state" `Quick test_thermal_steady_state;
          Alcotest.test_case "cooling when idle" `Quick test_thermal_cooling_when_idle;
          Alcotest.test_case "peak at boundary" `Quick test_thermal_max_at_boundary;
          Alcotest.test_case "racing runs hotter" `Quick test_thermal_racing_hotter;
          qt prop_thermal_matches_integrator;
        ] );
    ]
