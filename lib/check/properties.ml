open Oracle

let tol = 1e-6

(* Combine sub-checks: first failure wins, Skip only if nothing failed. *)
let all_of checks =
  let rec go skip = function
    | [] -> (match skip with Some s -> Skip s | None -> Pass)
    | Pass :: tl -> go skip tl
    | (Fail _ as f) :: _ -> f
    | Skip s :: tl -> go (match skip with None -> Some s | some -> some) tl
  in
  go None checks

let check_close what a b = if close ~tol a b then Pass else fail_eq what ~expected:a ~got:b

let check_le what a b =
  if a <= (b *. (1.0 +. tol)) +. tol then Pass
  else Fail (Printf.sprintf "%s: %.12g should not exceed %.12g" what a b)

let check_valid what result =
  match result with
  | Ok () -> Pass
  | Error vs ->
    Fail (Printf.sprintf "%s: %s" what (String.concat "; " (List.map Validate.to_string vs)))

(* ---------- differential ---------- *)

let incmerge_vs_brute c =
  let c = truncate 12 c in
  let m = model c in
  let im = Incmerge.makespan m ~energy:c.energy c.inst in
  let br = Brute.makespan m ~energy:c.energy c.inst in
  check_close "IncMerge vs brute-force makespan" br im

let incmerge_vs_dp c =
  let c = truncate 32 c in
  let m = model c in
  let im = Incmerge.makespan m ~energy:c.energy c.inst in
  let dp = Dp_makespan.makespan m ~energy:c.energy c.inst in
  check_close "IncMerge vs DP makespan" dp im

let frontier_vs_incmerge c =
  let m = model c in
  let f = Frontier.build m c.inst in
  all_of
    (List.map
       (fun k ->
         let e = c.energy *. k in
         check_close "frontier makespan_at vs IncMerge" (Incmerge.makespan m ~energy:e c.inst)
           (Frontier.makespan_at f e))
       [ 0.5; 1.0; 2.3 ])

let frontier_vs_server c =
  let m = model c in
  let f = Frontier.build m c.inst in
  all_of
    (List.concat_map
       (fun k ->
         let e = c.energy *. k in
         let mk = Frontier.makespan_at f e in
         let e' = Server.min_energy m ~makespan:mk c.inst in
         [
           (* e achieves mk, so the minimum energy for mk cannot exceed it *)
           check_le "Server.min_energy vs achieving budget" e' e;
           (* and spending that minimum must land back on the same point *)
           check_close "frontier at Server.min_energy" mk (Frontier.makespan_at f e');
         ])
       [ 0.7; 1.0; 1.8 ])

let sim_replays_plan c =
  let m = model c in
  let plan = Incmerge.solve m ~energy:c.energy c.inst in
  let r = Sim.run m c.inst plan in
  all_of
    [
      (if Sim.agrees_with_plan ~tol r m plan then Pass
       else Fail "simulated completions/energy diverge from the analytic plan");
      check_close "simulated makespan" (Metrics.makespan plan) r.Sim.makespan;
      check_close "simulated total flow" (Metrics.total_flow plan) r.Sim.total_flow;
      check_close "simulated energy" (Schedule.energy m plan) r.Sim.energy;
    ]

let multi_cyclic_vs_brute c =
  let c = equal_work_view c in
  let m_procs = 1 + (c.m mod 3) in
  let c = truncate (if m_procs <= 2 then 6 else 5) c in
  let m = model c in
  let cyc = Multi.makespan m ~m:m_procs ~energy:c.energy c.inst in
  let opt = Multi.brute_makespan m ~m:m_procs ~energy:c.energy c.inst in
  all_of
    [
      (* exhaustive search includes the cyclic assignment *)
      check_le "cyclic makespan vs exhaustive optimum" opt cyc;
      (if close ~tol:1e-5 cyc opt then Pass
       else fail_eq "cyclic assignment vs exhaustive optimum" ~expected:opt ~got:cyc);
    ]

let djobs_of_case c =
  let jobs = Instance.jobs c.inst in
  Array.to_list
    (Array.mapi
       (fun i (j : Job.t) ->
         (* slack keyed on (seed, position): dropping other jobs during
            shrinking does not move this job's deadline *)
         let slack = 0.5 +. (3.5 *. aux_float c ~salt:2 ~index:i) in
         Djob.make ~id:i ~release:j.Job.release ~deadline:(j.Job.release +. (j.Job.work *. slack))
           ~work:j.Job.work)
       jobs)

let yds_optimal c =
  let c = truncate 10 c in
  let m = model c in
  let djobs = djobs_of_case c in
  let yds = Yds.solve m djobs in
  let avr = Avr.run m djobs in
  let oa = Optimal_available.run m djobs in
  all_of
    [
      (if Yds.feasible djobs yds then Pass else Fail "YDS schedule misses work or a deadline");
      check_le "intensity lower bound vs YDS energy" (Yds.intensity_lower_bound m djobs)
        yds.Yds.energy;
      (* YDS is optimal: no feasible schedule (AVR and OA are feasible)
         may use less energy *)
      check_le "YDS energy vs AVR" yds.Yds.energy avr.Avr.energy;
      check_le "YDS energy vs Optimal Available" yds.Yds.energy oa.Optimal_available.energy;
    ]

(* ---------- metamorphic ---------- *)

let work_scaling_energy c =
  let m = model c in
  let k = 1.5 +. aux_float c ~salt:1 ~index:0 in
  let scaled =
    Instance.of_pairs
      (Array.to_list
         (Array.map (fun (j : Job.t) -> (j.Job.release, j.Job.work *. k)) (Instance.jobs c.inst)))
  in
  let base = Incmerge.makespan m ~energy:c.energy c.inst in
  let big = Incmerge.makespan m ~energy:(c.energy *. (k ** c.alpha)) scaled in
  check_close "makespan invariant under (work, energy) -> (c·work, c^α·energy)" base big

let budget_monotone c =
  let m = model c in
  all_of
    (List.map
       (fun k ->
         check_le "makespan at a larger budget"
           (Incmerge.makespan m ~energy:(c.energy *. k) c.inst)
           (Incmerge.makespan m ~energy:c.energy c.inst))
       [ 1.3; 2.0; 7.0 ])

let frontier_shape c =
  let m = model c in
  let f = Frontier.build m c.inst in
  let es = List.map (fun k -> c.energy *. k) [ 0.25; 0.6; 1.0; 1.9; 3.6 ] in
  let ms = List.map (Frontier.makespan_at f) es in
  let rec monotone = function
    | m1 :: (m2 :: _ as tl) ->
      if m2 > (m1 *. (1.0 +. tol)) +. tol then
        Some (fail_eq "frontier must be non-increasing" ~expected:m1 ~got:m2)
      else monotone tl
    | _ -> None
  in
  let rec convex es ms =
    match (es, ms) with
    | e1 :: (e2 :: e3 :: _ as etl), m1 :: (m2 :: m3 :: _ as mtl) ->
      let chord = m1 +. ((m3 -. m1) *. (e2 -. e1) /. (e3 -. e1)) in
      if m2 > (chord *. (1.0 +. tol)) +. tol then
        Some (fail_eq "frontier must be convex (midpoint above chord)" ~expected:chord ~got:m2)
      else convex etl mtl
    | _ -> None
  in
  match monotone ms with
  | Some f -> f
  | None -> (match convex es ms with Some f -> f | None -> Pass)

(* For release (FIFO) order the laptop problem is convex, so Theorem 1
   together with an exhausted budget certifies optimality: every last
   speed satisfies Theorem 1 by construction, and only the energy match
   tells the root from a wrong one. *)
let flow_budget c =
  let c = equal_work_view c in
  let sol = Flow.solve_budget ~alpha:c.alpha ~energy:c.energy c.inst in
  let sched = Flow.schedule c.inst sol in
  all_of
    [
      check_le "flow solution energy vs budget" sol.Flow.energy c.energy;
      (if Float.abs (sol.Flow.energy -. c.energy) <= 1e-9 *. c.energy then Pass
       else
         Fail
           (Printf.sprintf "flow solution energy %.17g misses the budget %.17g by more than 1e-9"
              sol.Flow.energy c.energy));
      check_valid "flow schedule feasibility" (Validate.check c.inst sched);
      check_close "flow metric vs solution field" sol.Flow.flow (Metrics.total_flow sched);
      (if Flow.theorem1_holds ~alpha:c.alpha c.inst sol then Pass
       else Fail "Theorem 1 speed relations violated by the flow solver");
    ]

(* ---------- structural ---------- *)

let outputs_validate c =
  let m = model c in
  let plan = Incmerge.solve m ~energy:c.energy c.inst in
  let mk = Metrics.makespan plan in
  let server = Server.solve m ~makespan:mk c.inst in
  let eq = equal_work_view c in
  let multi = Multi.solve m ~m:c.m ~energy:c.energy eq.inst in
  let f = Frontier.build m c.inst in
  all_of
    [
      check_valid "IncMerge within budget" (Validate.check_with_budget m ~budget:c.energy c.inst plan);
      check_valid "Frontier.schedule_at within budget"
        (Validate.check_with_budget m ~budget:c.energy c.inst (Frontier.schedule_at f c.energy));
      check_valid "Server.solve within budget"
        (Validate.check_with_budget m ~budget:c.energy c.inst server);
      check_valid "Multi.solve within budget"
        (Validate.check_with_budget m ~budget:c.energy eq.inst multi);
    ]

let all =
  [
    { name = "incmerge_vs_brute"; doc = "IncMerge = 2^(n-1) brute force on makespan (n <= 12)"; run = incmerge_vs_brute };
    { name = "incmerge_vs_dp"; doc = "IncMerge = quadratic DP baseline on makespan (n <= 32)"; run = incmerge_vs_dp };
    { name = "frontier_vs_incmerge"; doc = "Frontier.makespan_at = IncMerge at sampled budgets"; run = frontier_vs_incmerge };
    { name = "frontier_vs_server"; doc = "Server.min_energy inverts the frontier pointwise"; run = frontier_vs_server };
    { name = "sim_replays_plan"; doc = "default-config Sim.run reproduces the analytic makespan/flow/energy"; run = sim_replays_plan };
    { name = "multi_cyclic_vs_brute"; doc = "cyclic assignment = exhaustive assignment search (equal work, n,m small)"; run = multi_cyclic_vs_brute };
    { name = "yds_optimal"; doc = "YDS feasible, above its intensity bound, below AVR and OA"; run = yds_optimal };
    { name = "work_scaling_energy"; doc = "scaling work by c and energy by c^α preserves the optimal makespan"; run = work_scaling_energy };
    { name = "budget_monotone"; doc = "raising the energy budget never raises the optimal makespan"; run = budget_monotone };
    { name = "frontier_shape"; doc = "energy/makespan frontier is non-increasing and convex"; run = frontier_shape };
    { name = "flow_budget"; doc = "flow solver exhausts at most the budget, validates, satisfies Theorem 1"; run = flow_budget };
    { name = "outputs_validate"; doc = "every solver schedule passes Validate.check_with_budget"; run = outputs_validate };
  ]

(* golden subset first, then the registry-derived differential pairs:
   [registered ()] therefore always lists the 12 hand-written
   properties as a prefix *)
let () =
  List.iter Oracle.register all;
  Derived.register_all ()

let registered () = Oracle.registered ()
