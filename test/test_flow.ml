(* Tests for equal-work uniprocessor total flow (PUW structure, §4 of
   the paper) and the Theorem 8 impossibility machinery. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf6 = Alcotest.(check (float 1e-6))
let checkf3 = Alcotest.(check (float 1e-3))

let thm8 = Instance.theorem8

(* ---------- structural basics ---------- *)

let test_single_job () =
  let inst = Instance.of_pairs [ (0.0, 1.0) ] in
  let sol = Flow.solve_budget ~alpha:3.0 ~energy:4.0 inst in
  (* one job: energy = s^2 -> s = 2, flow = 1/2 *)
  checkf6 "speed" 2.0 sol.Flow.speeds.(0);
  checkf6 "flow" 0.5 sol.Flow.flow;
  checkf6 "energy" 4.0 sol.Flow.energy

let test_two_jobs_same_release () =
  (* both at 0: one busy run; sigma_0^3 = 2 s^3 *)
  let inst = Instance.of_pairs [ (0.0, 1.0); (0.0, 1.0) ] in
  let sol = Flow.solve_budget ~alpha:3.0 ~energy:5.0 inst in
  let s = sol.Flow.last_speed in
  checkf6 "first speed relation" ((2.0 ** (1.0 /. 3.0)) *. s) sol.Flow.speeds.(0);
  checkf6 "energy exhausted" 5.0 sol.Flow.energy;
  (* energy = (2^(2/3) + 1) s^2 *)
  checkf6 "s value" (Float.sqrt (5.0 /. ((2.0 ** (2.0 /. 3.0)) +. 1.0))) s

let test_two_jobs_far_apart () =
  (* r = (0, 100): plenty of energy -> a gap; both jobs run at s *)
  let inst = Instance.of_pairs [ (0.0, 1.0); (100.0, 1.0) ] in
  let sol = Flow.solve_budget ~alpha:3.0 ~energy:8.0 inst in
  checkf6 "gap: both at last speed" sol.Flow.last_speed sol.Flow.speeds.(0);
  (* energy = 2 s^2 = 8 -> s = 2 *)
  checkf6 "s = 2" 2.0 sol.Flow.last_speed;
  check_int "two runs" 2 (List.length sol.Flow.runs)

let test_budget_exhausted () =
  List.iter
    (fun e ->
      let sol = Flow.solve_budget ~alpha:3.0 ~energy:e thm8 in
      checkf6 "energy = budget" e sol.Flow.energy)
    [ 2.0; 5.0; 9.0; 10.0; 11.0; 12.0; 20.0 ]

let test_schedule_feasible () =
  List.iter
    (fun e ->
      let sol = Flow.solve_budget ~alpha:3.0 ~energy:e thm8 in
      let s = Flow.schedule thm8 sol in
      check_bool "feasible" true (Validate.is_feasible thm8 s);
      checkf6 "metrics agree" sol.Flow.flow (Metrics.total_flow s))
    [ 3.0; 9.0; 11.0; 15.0 ]

let test_rejects_unequal_work () =
  Alcotest.check_raises "unequal work rejected"
    (Invalid_argument "Flow: Theorem 1 structure requires equal-work jobs")
    (fun () -> ignore (Flow.solve_for_last_speed ~alpha:3.0 (Instance.of_pairs [ (0.0, 1.0); (0.0, 2.0) ]) 1.0))

(* ---------- the budget is met at every scale ---------- *)

let rel_err got want = Float.abs (got -. want) /. Float.abs want

let check_rel what ~tol want got =
  check_bool (Printf.sprintf "%s: got %.17g, want %.17g (rel %.3g)" what got want (rel_err got want))
    true
    (rel_err got want <= tol)

(* At budgets this small every job waits for the one busy run, which
   ends with a free run at the last speed: sigma_k = s (1 + j)^(1/a)
   for the j jobs after k, so energy = w s^(a-1) sum_{t=1..n} t^(1-1/a)
   and s is closed-form.  A relative step test is needed to find it:
   s is below 1e-13 here. *)
let check_one_busy_run ~alpha ~energy inst =
  let sol = Flow.solve_budget ~alpha ~energy inst in
  let n = Instance.n inst in
  let pw = ref 0.0 in
  for t = 1 to n do
    pw := !pw +. (float_of_int t ** (1.0 -. (1.0 /. alpha)))
  done;
  let s = (energy /. !pw) ** (1.0 /. (alpha -. 1.0)) in
  let t = ref 0.0 and flow = ref 0.0 in
  for k = 0 to n - 1 do
    t := !t +. (1.0 /. (s *. (float_of_int (n - k) ** (1.0 /. alpha))));
    flow := !flow +. (!t -. (Instance.job inst k).Job.release)
  done;
  check_rel "energy meets the budget" ~tol:1e-9 energy sol.Flow.energy;
  check_bool "Theorem 1 holds" true (Flow.theorem1_holds ~alpha inst sol);
  check_int "one busy run" 1 (List.length sol.Flow.runs);
  check_rel "closed-form last speed" ~tol:1e-9 s sol.Flow.last_speed;
  check_rel "closed-form flow" ~tol:1e-9 !flow sol.Flow.flow

let test_tiny_budget_three_jobs () =
  check_one_busy_run ~alpha:1.5 ~energy:1e-6 (Instance.of_pairs [ (0.0, 1.0); (0.5, 1.0); (1.0, 1.0) ])

let test_tiny_budget_poisson64 () =
  check_one_busy_run ~alpha:1.5 ~energy:1e-6
    (Workload.equal_work ~seed:7 ~n:64 ~work:1.0 (Workload.Poisson 1.0))

(* two unit jobs at 0 under alpha = 3: flow scales as E^(-1/2), and
   from about 1e240 up s^3 overflows unless the solve is rescaled (it
   overflows in [Flow.theorem1_holds] too, so the one busy run's speed
   relation sigma_0^3 = 2 s^3 is checked directly) *)
let test_huge_budgets_rescaled () =
  let inst = Instance.of_pairs [ (0.0, 1.0); (0.0, 1.0) ] in
  let at e = Flow.solve_budget ~alpha:3.0 ~energy:e inst in
  let base = at 1e200 in
  List.iter
    (fun e ->
      let sol = at e in
      let what = Printf.sprintf "E=%g" e in
      check_rel (what ^ " energy") ~tol:1e-9 e sol.Flow.energy;
      check_rel (what ^ " flow") ~tol:1e-9 (base.Flow.flow *. Float.sqrt (1e200 /. e)) sol.Flow.flow;
      check_rel (what ^ " first speed") ~tol:1e-12
        ((2.0 ** (1.0 /. 3.0)) *. sol.Flow.last_speed)
        sol.Flow.speeds.(0);
      check_bool (what ^ " feasible") true (Validate.is_feasible inst (Flow.schedule inst sol)))
    [ 1e250; 1e300; 1e308 ]

(* ---------- the theorem-8 instance across its three configurations ---------- *)

let test_thm8_all_busy_at_9 () =
  (* measured (and certified by the brute-force test below): at E = 9 the
     optimum is the all-busy configuration with C2 ~ 1.071 *)
  let sol = Flow.solve_budget ~alpha:3.0 ~energy:9.0 thm8 in
  let s = sol.Flow.last_speed in
  checkf3 "s" 1.388610 s;
  checkf6 "sigma1 = 3^(1/3) s" ((3.0 ** (1.0 /. 3.0)) *. s) sol.Flow.speeds.(0);
  checkf6 "sigma2 = 2^(1/3) s" ((2.0 ** (1.0 /. 3.0)) *. s) sol.Flow.speeds.(1);
  checkf3 "C2 > 1" 1.070902 sol.Flow.completions.(1);
  checkf3 "flow" 2.361268 sol.Flow.flow

let test_thm8_boundary_at_11 () =
  (* inside the measured window (10.32, 11.54): C2 pinned to exactly 1 *)
  let sol = Flow.solve_budget ~alpha:3.0 ~energy:11.0 thm8 in
  checkf6 "C2 = 1" 1.0 sol.Flow.completions.(1);
  check_bool "run 0-1 pinned" true
    (match sol.Flow.runs with r :: _ -> r.Flow.pinned && r.Flow.last = 1 | [] -> false);
  (* the completion equation 1/sigma1 + 1/sigma2 = 1 *)
  checkf6 "completion equation" 1.0 ((1.0 /. sol.Flow.speeds.(0)) +. (1.0 /. sol.Flow.speeds.(1)))

let test_thm8_gap_at_13 () =
  let sol = Flow.solve_budget ~alpha:3.0 ~energy:13.0 thm8 in
  check_bool "C2 < 1" true (sol.Flow.completions.(1) < 1.0 -. 1e-9);
  checkf6 "J2 at last speed" sol.Flow.last_speed sol.Flow.speeds.(1)

let test_thm8_brute_force_certificate () =
  (* certify the E=9 configuration against a grid+polish search over
     (sigma1, sigma2) with sigma3 taking the remaining energy *)
  let flow_of s1 s2 =
    let e3 = 9.0 -. (s1 *. s1) -. (s2 *. s2) in
    if e3 <= 0.0 then Float.infinity
    else begin
      let s3 = Float.sqrt e3 in
      let c1 = 1.0 /. s1 in
      let c2 = c1 +. (1.0 /. s2) in
      let c3 = Float.max c2 1.0 +. (1.0 /. s3) in
      c1 +. c2 +. (c3 -. 1.0)
    end
  in
  let best = ref Float.infinity in
  for i = 1 to 600 do
    for j = 1 to 600 do
      let f = flow_of (3.0 *. float_of_int i /. 600.0) (3.0 *. float_of_int j /. 600.0) in
      if f < !best then best := f
    done
  done;
  let sol = Flow.solve_budget ~alpha:3.0 ~energy:9.0 thm8 in
  check_bool "solver at least as good as grid" true (sol.Flow.flow <= !best +. 1e-4);
  (* and the boundary stationary point is strictly worse at E = 9 *)
  check_bool "boundary point dominated" true (sol.Flow.flow < 2.4948 -. 0.05)

(* ---------- theorem 1 relations as a property ---------- *)

let arb_equal_work_instance =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 9 in
      let* gaps = list_size (return n) (float_range 0.0 2.0) in
      let* w = float_range 0.2 3.0 in
      let releases =
        List.fold_left (fun acc g -> match acc with [] -> [ g ] | r :: _ -> (r +. g) :: acc) [] gaps
      in
      return (List.map (fun r -> (r, w)) (List.rev releases)))
  in
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map (fun (r, w) -> Printf.sprintf "(%g,%g)" r w) l))
    gen

let prop_theorem1_relations =
  QCheck.Test.make ~count:200 ~name:"theorem 1 relations hold in solver output"
    (QCheck.pair arb_equal_work_instance QCheck.(float_range 0.5 40.0))
    (fun (pairs, e) ->
      let inst = Instance.of_pairs pairs in
      let sol = Flow.solve_budget ~alpha:3.0 ~energy:e inst in
      Flow.theorem1_holds ~alpha:3.0 inst sol)

let prop_flow_decreasing_in_energy =
  QCheck.Test.make ~count:150 ~name:"flow decreases with energy"
    (QCheck.pair arb_equal_work_instance QCheck.(float_range 0.5 30.0))
    (fun (pairs, e) ->
      let inst = Instance.of_pairs pairs in
      let f1 = (Flow.solve_budget ~alpha:3.0 ~energy:e inst).Flow.flow in
      let f2 = (Flow.solve_budget ~alpha:3.0 ~energy:(1.3 *. e) inst).Flow.flow in
      f2 <= f1 +. 1e-9)

let prop_energy_monotone_in_s =
  QCheck.Test.make ~count:150 ~name:"energy increasing in the last-speed parameter"
    (QCheck.pair arb_equal_work_instance QCheck.(float_range 0.2 3.0))
    (fun (pairs, s) ->
      let inst = Instance.of_pairs pairs in
      let e1 = (Flow.solve_for_last_speed ~alpha:3.0 inst s).Flow.energy in
      let e2 = (Flow.solve_for_last_speed ~alpha:3.0 inst (s *. 1.2)).Flow.energy in
      e2 >= e1 -. 1e-9)

let prop_local_optimality =
  (* convexity in durations makes local optimality global: random
     perturbations of the durations, rescaled to respect the budget,
     must not improve total flow *)
  QCheck.Test.make ~count:80 ~name:"no energy-respecting perturbation improves flow"
    (QCheck.triple arb_equal_work_instance QCheck.(float_range 1.0 25.0) QCheck.(int_range 0 1000))
    (fun (pairs, e, seed) ->
      let inst = Instance.of_pairs pairs in
      let n = Instance.n inst in
      QCheck.assume (n >= 2);
      let sol = Flow.solve_budget ~alpha:3.0 ~energy:e inst in
      let w = (Instance.job inst 0).Job.work in
      let release i = (Instance.job inst i).Job.release in
      let flow_of_speeds speeds =
        let t = ref 0.0 and fl = ref 0.0 in
        for i = 0 to n - 1 do
          t := Float.max !t (release i) +. (w /. speeds.(i));
          fl := !fl +. (!t -. release i)
        done;
        !fl
      in
      let energy_of_speeds speeds = Array.fold_left (fun a s -> a +. (w *. s *. s)) 0.0 speeds in
      let st = Random.State.make [| seed |] in
      let ok = ref true in
      for _ = 1 to 20 do
        let speeds =
          Array.map (fun s -> s *. (1.0 +. ((Random.State.float st 0.2) -. 0.1))) sol.Flow.speeds
        in
        (* scale speeds so the perturbed schedule uses exactly e *)
        let scale = Float.sqrt (e /. energy_of_speeds speeds) in
        let speeds = Array.map (fun s -> s *. scale) speeds in
        if flow_of_speeds speeds < sol.Flow.flow -. (1e-7 *. (1.0 +. sol.Flow.flow)) then ok := false
      done;
      !ok)

let prop_flow_target_inverse =
  QCheck.Test.make ~count:80 ~name:"flow-target solve inverts budget solve"
    (QCheck.pair arb_equal_work_instance QCheck.(float_range 1.0 25.0))
    (fun (pairs, e) ->
      let inst = Instance.of_pairs pairs in
      let sol = Flow.solve_budget ~alpha:3.0 ~energy:e inst in
      QCheck.assume (sol.Flow.flow > 1e-6);
      let back = Flow.solve_flow_target ~alpha:3.0 ~flow:sol.Flow.flow inst in
      Float.abs (back.Flow.energy -. e) <= 1e-5 *. (1.0 +. e))

let prop_other_alphas =
  QCheck.Test.make ~count:80 ~name:"theorem 1 relations hold for alpha = 2"
    (QCheck.pair arb_equal_work_instance QCheck.(float_range 0.5 25.0))
    (fun (pairs, e) ->
      let inst = Instance.of_pairs pairs in
      let sol = Flow.solve_budget ~alpha:2.0 ~energy:e inst in
      Flow.theorem1_holds ~alpha:2.0 inst sol
      && Float.abs (sol.Flow.energy -. e) <= 1e-6 *. (1.0 +. e))

(* ---------- flow frontier ---------- *)

let test_frontier_sweep_monotone () =
  let pts = Flow_frontier.sweep ~alpha:3.0 thm8 ~s_lo:0.3 ~s_hi:4.0 ~n:60 in
  let rec check = function
    | a :: (b :: _ as rest) ->
      check_bool "energy increases with s" true (b.Flow_frontier.energy >= a.Flow_frontier.energy -. 1e-9);
      check_bool "flow decreases with s" true (b.Flow_frontier.flow <= a.Flow_frontier.flow +. 1e-9);
      check rest
    | _ -> ()
  in
  check pts

let test_frontier_curve_matches_budget_solve () =
  let pts = Flow_frontier.curve ~alpha:3.0 thm8 ~e_lo:6.0 ~e_hi:14.0 ~n:9 in
  List.iter
    (fun (e, f) -> checkf6 "curve point" (Flow.solve_budget ~alpha:3.0 ~energy:e thm8).Flow.flow f)
    pts

(* ---------- theorem 8: the degree-12 polynomial ---------- *)

let test_polynomial_derivation_matches_paper () =
  let derived = Flow_hardness.derived_polynomial ~energy:(Rat.of_int 9) in
  check_int "degree 12" 12 (Qpoly.degree derived);
  check_bool "derived = paper polynomial (up to constant)" true
    (Flow_hardness.proportional derived Flow_hardness.paper_polynomial)

let test_paper_polynomial_root () =
  (* the paper's polynomial has exactly one root in the feasible (1, 2) *)
  let roots = Flow_hardness.boundary_roots ~energy:9.0 in
  check_int "one feasible root at E=9" 1 (List.length roots);
  let x = List.hd roots in
  (* verify the root against the original equations (1)-(3) *)
  let s1 = x /. (x -. 1.0) in
  let s3cube = (s1 ** 3.0) -. (x ** 3.0) in
  check_bool "sigma3 real" true (s3cube > 0.0);
  let s3 = s3cube ** (1.0 /. 3.0) in
  checkf6 "energy equation" 9.0 ((s1 *. s1) +. (x *. x) +. (s3 *. s3));
  checkf6 "completion equation" 1.0 ((1.0 /. s1) +. (1.0 /. x))

let test_sturm_certificate_on_paper_polynomial () =
  let ch = Sturm.chain Flow_hardness.paper_polynomial in
  let in_12 = Sturm.count_roots ch ~lo:(Rat.of_int 1) ~hi:(Rat.of_int 2) in
  check_int "exactly one root in (1,2]" 1 in_12;
  check_bool "total real roots certified" true (Sturm.count_all_roots ch >= 2)

let test_polynomial_root_matches_solver_inside_window () =
  (* inside the window the optimum is the boundary configuration, so at
     every budget there must be exactly one certified root in (1, 2) and
     it must be the solver's sigma2: 32 budgets with 8 fractional bits,
     spread evenly over the closed-form window, plus three by hand *)
  let lo, hi = Flow_hardness.analytic_window () in
  let grid =
    List.init 32 (fun k ->
        Float.round (256.0 *. (lo +. ((hi -. lo) *. (float_of_int k +. 0.5) /. 32.0))) /. 256.0)
  in
  List.iter
    (fun e ->
      let sigma2 = Flow_hardness.sigma2_numeric ~energy:e in
      match Flow_hardness.boundary_roots ~energy:e with
      | [ root ] ->
        check_bool (Printf.sprintf "E=%g: |root - sigma2| = %.2e <= 1e-9" e (Float.abs (root -. sigma2)))
          true
          (Float.abs (root -. sigma2) <= 1e-9)
      | roots -> Alcotest.failf "E=%g: %d certified roots in (1,2), expected one" e (List.length roots))
    (grid @ [ 10.5; 11.0; 11.3 ])

let test_certified_roots_pinned () =
  (* the exact float each budget certifies, bit for bit (%h) *)
  List.iter
    (fun (e, root) ->
      Alcotest.(check (list string))
        (Printf.sprintf "E=%g" e) [ root ]
        (List.map (Printf.sprintf "%h") (Flow_hardness.boundary_roots ~energy:e)))
    [
      (9.0, "0x1.f5b8381d204p+0");
      (10.5, "0x1.dc8914bc40e4p+0");
      (11.0, "0x1.d40253d85e4p+0");
      (11.125, "0x1.d1ee115517882p+0");
      (11.3, "0x1.cf0ff414e554cp+0");
      (11.4, "0x1.cd72a140a5e7cp+0");
    ]

let test_sturm_work_counters () =
  (* one chain per certificate, and sign-only refinement: the counts
     are exact.  At E = 11 the chain has 13 elements and isolation
     evaluates all of them at 17 points (221); refining the two
     intervals that meet (1, 2) to 1e-9 costs 32 + 31 signs of the head
     alone.  A second chain build or a return to whole-chain evaluation
     while refining changes them. *)
  let count name = Obs_metrics.value (Obs.counter name) in
  Obs.set_enabled true;
  Obs.reset ();
  let roots =
    Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () -> Flow_hardness.boundary_roots ~energy:11.0)
  in
  check_int "one certified root" 1 (List.length roots);
  check_int "sturm.chain_builds" 1 (count "sturm.chain_builds");
  check_int "sturm.sign_evals" 284 (count "sturm.sign_evals")

let test_measured_window () =
  let lo, hi = Flow_hardness.measured_window () in
  let alo, ahi = Flow_hardness.analytic_window () in
  checkf3 "lower endpoint matches closed form" alo lo;
  checkf3 "upper endpoint matches closed form" ahi hi;
  (* the paper reports the upper endpoint as ~11.54 *)
  check_bool "upper ~ 11.54 (paper)" true (Float.abs (hi -. 11.54) < 0.01);
  (* measured lower endpoint ~10.32 (the paper prints ~8.43; see
     EXPERIMENTS.md for the discrepancy analysis) *)
  check_bool "lower ~ 10.32 (measured)" true (Float.abs (lo -. 10.3218) < 0.01)

let test_derived_polynomial_general_energy () =
  (* the elimination works at any budget: at E = 11 the solver's sigma2
     is a root of the E=11 polynomial *)
  let p = Flow_hardness.derived_polynomial ~energy:(Rat.of_int 11) in
  let sigma2 = Flow_hardness.sigma2_numeric ~energy:11.0 in
  let v = Qpoly.eval_float p sigma2 in
  (* relative to the polynomial's scale near the root *)
  let scale = Float.abs (Qpoly.eval_float (Qpoly.derivative p) sigma2) in
  check_bool "polynomial vanishes at solver sigma2" true (Float.abs v <= 1e-5 *. (1.0 +. scale))


let test_resultant_derivation_agrees () =
  (* textbook elimination (two Sylvester resultants over the tower
     Q[x][sigma1][sigma3]) contains the hand-derived polynomial as a
     factor: the by-hand polynomial divides the resultant exactly *)
  let res = Flow_hardness.derived_via_resultant ~energy:(Rat.of_int 9) in
  check_bool "resultant nonzero" true (not (Qpoly.is_zero res));
  let q, r = Qpoly.divmod res (Flow_hardness.derived_polynomial ~energy:(Rat.of_int 9)) in
  check_bool "derived divides resultant" true (Qpoly.is_zero r);
  check_bool "quotient nonzero" true (not (Qpoly.is_zero q))

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "flow"
    [
      ( "structure",
        [
          Alcotest.test_case "single job" `Quick test_single_job;
          Alcotest.test_case "two jobs, one run" `Quick test_two_jobs_same_release;
          Alcotest.test_case "two jobs, gap" `Quick test_two_jobs_far_apart;
          Alcotest.test_case "budget exhausted" `Quick test_budget_exhausted;
          Alcotest.test_case "schedules feasible" `Quick test_schedule_feasible;
          Alcotest.test_case "unequal work rejected" `Quick test_rejects_unequal_work;
        ] );
      ( "budget-scale",
        [
          Alcotest.test_case "tiny budget, three jobs" `Quick test_tiny_budget_three_jobs;
          Alcotest.test_case "tiny budget, 64 Poisson jobs" `Quick test_tiny_budget_poisson64;
          Alcotest.test_case "huge budgets rescaled" `Quick test_huge_budgets_rescaled;
        ] );
      ( "theorem8-instance",
        [
          Alcotest.test_case "E=9: all-busy optimum" `Quick test_thm8_all_busy_at_9;
          Alcotest.test_case "E=11: boundary (C2=1)" `Quick test_thm8_boundary_at_11;
          Alcotest.test_case "E=13: gap" `Quick test_thm8_gap_at_13;
          Alcotest.test_case "brute-force certificate" `Slow test_thm8_brute_force_certificate;
        ] );
      ( "properties",
        [
          qt prop_theorem1_relations;
          qt prop_flow_decreasing_in_energy;
          qt prop_energy_monotone_in_s;
          qt prop_local_optimality;
          qt prop_flow_target_inverse;
          qt prop_other_alphas;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "sweep monotone" `Quick test_frontier_sweep_monotone;
          Alcotest.test_case "curve = budget solve" `Quick test_frontier_curve_matches_budget_solve;
        ] );
      ( "theorem8-polynomial",
        [
          Alcotest.test_case "derivation matches paper" `Quick test_polynomial_derivation_matches_paper;
          Alcotest.test_case "paper root verified" `Quick test_paper_polynomial_root;
          Alcotest.test_case "sturm certificate" `Quick test_sturm_certificate_on_paper_polynomial;
          Alcotest.test_case "root = solver inside window" `Quick test_polynomial_root_matches_solver_inside_window;
          Alcotest.test_case "certified roots pinned" `Quick test_certified_roots_pinned;
          Alcotest.test_case "sturm work counters" `Quick test_sturm_work_counters;
          Alcotest.test_case "configuration window" `Quick test_measured_window;
          Alcotest.test_case "general-energy elimination" `Quick test_derived_polynomial_general_energy;
          Alcotest.test_case "resultant derivation agrees" `Quick test_resultant_derivation_agrees;
        ] );
    ]
