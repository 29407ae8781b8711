(* pasched.guard: typed error taxonomy, deadlines, retry/fallback
   degradation, deterministic fault injection, and per-item containment
   in Par and the fuzz runner. *)

let () = Builtin.init ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* a small common-release equal-work instance every makespan solver
   (including the exhaustive ones) accepts *)
let inst3 = Instance.of_pairs [ (0.0, 1.0); (0.0, 1.0); (0.0, 1.0) ]

let makespan_budget energy =
  Problem.make ~objective:Problem.Makespan ~mode:(Problem.Budget energy) ~alpha:3.0 ()

let problem = makespan_budget 10.0

let clause kind site prob = { Guard_inject.kind; site; prob }

let plan ?max_fires ~seed kinds_sites =
  Guard_inject.make ?max_fires ~seed (List.map (fun (k, s, p) -> clause k s p) kinds_sites)

(* ---------------- taxonomy totality ---------------- *)

(* every supporting solver x every fault kind at probability 1, under
   both the off and the default policy: the supervised call must return
   Ok or a typed Error — never let an exception escape *)
let test_taxonomy_totality () =
  let solvers = Engine.supporting problem inst3 in
  check_bool "several solvers support the probe problem" true (List.length solvers >= 3);
  List.iter
    (fun s ->
      List.iter
        (fun kind ->
          List.iter
            (fun policy ->
              let inject = plan ~seed:7 [ (kind, None, 1.0) ] in
              match Guard.solve_with ~policy ~inject s problem inst3 with
              | Ok _ | Error _ -> ()
              | exception e ->
                Alcotest.failf "%s under %s: escaped exception %s" (Engine.name_of s)
                  (Guard_inject.kind_to_string kind) (Printexc.to_string e))
            [ Guard.off; Guard.default ])
        [ Guard_inject.Nan; Guard_inject.Nonconv; Guard_inject.Delay; Guard_inject.Raise ])
    solvers

let test_error_classes () =
  let open Guard_error in
  let cases =
    [
      (Invalid_input "x", "invalid-input", 2);
      (Infeasible "x", "infeasible", 3);
      (No_convergence { iters = 5; residual = 1.0 }, "no-convergence", 4);
      (Deadline_exceeded { budget_s = 1.0; elapsed_s = 2.0 }, "deadline", 5);
      (Solver_fault { solver = "s"; exn = Exit }, "solver-fault", 6);
    ]
  in
  List.iter
    (fun (e, cls, code) ->
      check_string "class" cls (class_string e);
      check_int "exit code" code (exit_code e);
      check_int "exit code by class string" code (class_exit_code cls))
    cases;
  (* the serve daemon's transient classes, and anything unknown *)
  check_int "busy" 7 (class_exit_code "busy");
  check_int "breaker-open" 7 (class_exit_code "breaker-open");
  check_int "unknown class" 6 (class_exit_code "nope")

(* injected non-convergence at the dp site, no recovery allowed:
   classified as the typed No_convergence, not a fault *)
let test_nonconv_classified () =
  let inject = plan ~seed:3 [ (Guard_inject.Nonconv, Some "dp.solve", 1.0) ] in
  match Guard.solve ~policy:Guard.off ~inject "dp-makespan" problem inst3 with
  | Error (Guard_error.No_convergence _) -> ()
  | Error e -> Alcotest.failf "expected No_convergence, got %s" (Guard_error.to_string e)
  | Ok _ -> Alcotest.fail "expected No_convergence, got Ok"

let test_raise_classified_as_fault () =
  let inject = plan ~seed:3 [ (Guard_inject.Raise, Some "dp.solve", 1.0) ] in
  match Guard.solve ~policy:Guard.off ~inject "dp-makespan" problem inst3 with
  | Error (Guard_error.Solver_fault { solver; _ }) -> check_string "faulting solver" "dp-makespan" solver
  | Error e -> Alcotest.failf "expected Solver_fault, got %s" (Guard_error.to_string e)
  | Ok _ -> Alcotest.fail "expected Solver_fault, got Ok"

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_unknown_solver_is_invalid_input () =
  match Guard.solve "no-such-solver" problem inst3 with
  | Error (Guard_error.Invalid_input msg) ->
    check_bool "message lists known solvers" true (contains ~needle:"incmerge" msg)
  | Error e -> Alcotest.failf "expected Invalid_input, got %s" (Guard_error.to_string e)
  | Ok _ -> Alcotest.fail "expected Invalid_input, got Ok"

let test_infeasible_target_classified () =
  (* jobs released at 6 cannot finish by 0.1 at any energy *)
  let p = Problem.make ~objective:Problem.Makespan ~mode:(Problem.Target 0.1) ~alpha:3.0 () in
  match Guard.solve ~policy:Guard.off "server" p Instance.figure1 with
  | Error (Guard_error.Infeasible _) -> ()
  | Error e -> Alcotest.failf "expected Infeasible, got %s" (Guard_error.to_string e)
  | Ok _ -> Alcotest.fail "expected Infeasible, got Ok"

(* ---------------- deadlines ---------------- *)

(* a synthetic solver whose only job is to tick: the deadline poll is
   threaded through Guard.tick exactly like the instrumented kernels *)
let slow_registered = ref false

let register_slow () =
  if not !slow_registered then begin
    slow_registered := true;
    Engine.register
      (module struct
        let name = "test-slow"
        let doc = "synthetic slow solver for deadline tests (ticks 1000 times)"

        let capability =
          {
            Capability.objective = Problem.Makespan;
            settings = Capability.Any_procs;
            modes = [ Capability.Budget_mode ];
            exact = false;
            requires = [];
          }

        let solve problem _inst =
          for _ = 1 to 1000 do
            Guard.tick ()
          done;
          {
            Solve_result.solver = name;
            problem;
            schedule = None;
            value = 1.0;
            energy = 1.0;
            pareto = None;
            diagnostics = [];
          }
      end)
  end

let test_deadline_trips () =
  register_slow ();
  let policy = { Guard.off with Guard.deadline_s = Some 0.0 } in
  match Guard.solve ~policy "test-slow" problem inst3 with
  | Error (Guard_error.Deadline_exceeded { budget_s; elapsed_s }) ->
    check_bool "budget echoed" true (budget_s = 0.0);
    check_bool "elapsed is finite and nonnegative" true (elapsed_s >= 0.0)
  | Error e -> Alcotest.failf "expected Deadline_exceeded, got %s" (Guard_error.to_string e)
  | Ok _ -> Alcotest.fail "a zero budget must trip at the first poll"

let test_generous_deadline_passes () =
  register_slow ();
  let policy = { Guard.off with Guard.deadline_s = Some 3600.0 } in
  match Guard.solve ~policy "test-slow" problem inst3 with
  | Ok r -> check_string "solver ran to completion" "test-slow" r.Solve_result.solver
  | Error e -> Alcotest.failf "generous deadline failed: %s" (Guard_error.to_string e)

let test_deadline_is_final () =
  register_slow ();
  (* even with fallback enabled, a blown budget must not start another
     solver: the budget covers the whole supervised call *)
  let policy = { Guard.default with Guard.deadline_s = Some 0.0 } in
  match Guard.solve ~policy "test-slow" problem inst3 with
  | Error (Guard_error.Deadline_exceeded _) -> ()
  | Error e -> Alcotest.failf "expected Deadline_exceeded, got %s" (Guard_error.to_string e)
  | Ok _ -> Alcotest.fail "deadline must be final, not recovered by fallback"

(* ---------------- retry and fallback degradation ---------------- *)

let test_retry_recovers () =
  (* the injected non-convergence fires once; the first retry runs with
     the budget exhausted and succeeds, flagged as degraded *)
  let inject = plan ~max_fires:1 ~seed:11 [ (Guard_inject.Nonconv, Some "dp.solve", 1.0) ] in
  let policy = { Guard.default with Guard.fallback = false } in
  match Guard.solve ~policy ~inject "dp-makespan" problem inst3 with
  | Ok r ->
    check_bool "degraded flag set" true (Solve_result.diag r "guard.degraded" = Some 1.0);
    check_bool "one retry recorded" true (Solve_result.diag r "guard.retries" = Some 1.0)
  | Error e -> Alcotest.failf "retry did not recover: %s" (Guard_error.to_string e)

let test_fallback_order_matches_supporting () =
  (* a persistent fault pinned to the dp site: dp-makespan always
     fails, and recovery must walk Engine.supporting in order, landing
     on the first other solver *)
  let inject = plan ~max_fires:1000 ~seed:5 [ (Guard_inject.Raise, Some "dp.solve", 1.0) ] in
  let chain =
    List.filter
      (fun s -> Engine.name_of s <> "dp-makespan")
      (Engine.supporting problem inst3)
  in
  let expected = Engine.name_of (List.hd chain) in
  match Guard.solve ~policy:Guard.default ~inject "dp-makespan" problem inst3 with
  | Ok r ->
    check_string "first supporting solver answered" expected r.Solve_result.solver;
    check_bool "degraded flag set" true (Solve_result.diag r "guard.degraded" = Some 1.0);
    check_bool "one fallback hop recorded" true (Solve_result.diag r "guard.fallbacks" = Some 1.0);
    check_bool "requested solver heads the recorded path" true
      (Solve_result.diag r "guard.path.0.dp-makespan" = Some 0.0)
  | Error e -> Alcotest.failf "fallback did not recover: %s" (Guard_error.to_string e)

let test_no_fallback_honored () =
  let inject = plan ~max_fires:1000 ~seed:5 [ (Guard_inject.Raise, Some "dp.solve", 1.0) ] in
  let policy = { Guard.default with Guard.fallback = false } in
  match Guard.solve ~policy ~inject "dp-makespan" problem inst3 with
  | Error (Guard_error.Solver_fault _) -> ()
  | Error e -> Alcotest.failf "expected the original Solver_fault, got %s" (Guard_error.to_string e)
  | Ok _ -> Alcotest.fail "fallback ran although disabled"

(* ---------------- injection determinism ---------------- *)

let test_injection_deterministic () =
  let spec = [ (Guard_inject.Raise, None, 0.5); (Guard_inject.Nonconv, Some "dp.solve", 0.7) ] in
  let run () =
    let inject = plan ~seed:99 spec in
    let outcome = Guard.solve ~policy:Guard.default ~inject "dp-makespan" problem inst3 in
    let key =
      match outcome with
      | Ok r -> "ok:" ^ r.Solve_result.solver
      | Error e -> "error:" ^ Guard_error.class_string e
    in
    (key, Guard_inject.fired inject)
  in
  let k1, log1 = run () in
  let k2, log2 = run () in
  check_string "same outcome class" k1 k2;
  check_bool "same fault-firing log" true (log1 = log2);
  (* a different seed must be allowed to differ — and the log is a
     faithful witness either way *)
  let inject' = plan ~seed:100 spec in
  ignore (Guard.solve ~policy:Guard.default ~inject:inject' "dp-makespan" problem inst3);
  check_bool "fired log only mentions armed kinds" true
    (List.for_all (fun (_, k) -> k = "raise" || k = "nonconv") (Guard_inject.fired inject'))

(* ---------------- guard-off transparency ---------------- *)

let test_guard_off_transparent () =
  List.iter
    (fun s ->
      let r0 = Engine.solve_with s problem inst3 in
      match Guard.solve_with ~policy:Guard.off s problem inst3 with
      | Error e -> Alcotest.failf "guard-off errored: %s" (Guard_error.to_string e)
      | Ok r1 ->
        let open Solve_result in
        check_string "solver" r0.solver r1.solver;
        check_bool "value" true (r0.value = r1.value);
        check_bool "energy" true (r0.energy = r1.energy);
        check_bool "schedule" true (r0.schedule = r1.schedule);
        check_bool "diagnostics untouched" true (r0.diagnostics = r1.diagnostics))
    (List.filter (fun s -> Engine.name_of s <> "test-slow") (Engine.supporting problem inst3))

(* a 48-job equal-work instance at budget 1.5 n, once per objective —
   the supervised path must answer them cleanly *)
let test_default_policy_clean () =
  let inst = Workload.equal_work ~seed:23 ~n:48 ~work:1.0 (Workload.Poisson 1.0) in
  let energy = 1.5 *. float_of_int (Instance.n inst) in
  List.iter
    (fun (name, objective) ->
      let problem = Problem.make ~objective ~mode:(Problem.Budget energy) ~alpha:3.0 () in
      match Guard.solve ~policy:Guard.default name problem inst with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s under the default policy: %s" name (Guard_error.to_string e))
    [ ("incmerge", Problem.Makespan); ("flow", Problem.Total_flow) ]

(* ---------------- containment: Par and the fuzz runner ------------- *)

exception Boom of int

let test_par_try_init_contains () =
  let r = Par.try_init ~jobs:2 8 (fun i -> if i = 3 then raise (Boom i) else i * i) in
  check_int "batch completed" 8 (Array.length r);
  Array.iteri
    (fun i -> function
      | Ok v -> check_int (Printf.sprintf "element %d" i) (i * i) v
      | Error (Boom 3) when i = 3 -> ()
      | Error e -> Alcotest.failf "element %d: unexpected %s" i (Printexc.to_string e))
    r;
  check_bool "faulted element is Error" true (match r.(3) with Error (Boom 3) -> true | _ -> false)

let test_runner_contains_worker_faults () =
  (* arm a campaign-wide worker fault: the first two cases crash before
     property evaluation and are recorded, not fatal *)
  let trivial = { Oracle.name = "guard:trivial"; doc = "always passes"; run = (fun _ -> Oracle.Pass) } in
  Guard_inject.install (plan ~max_fires:2 ~seed:1 [ (Guard_inject.Raise, Some "check.worker", 1.0) ]);
  Fun.protect ~finally:Fault.clear @@ fun () ->
  let s = Runner.run_props ~jobs:1 ~props:[ trivial ] ~seed:1 ~runs:6 () in
  check_int "two contained crashes" 2 (List.length s.Runner.crashes);
  List.iter
    (fun (c : Runner.crash) ->
      check_bool "crash marked injected" true c.Runner.injected;
      check_bool "replay hint names the seed" true (String.length c.Runner.replay_hint > 0))
    s.Runner.crashes;
  check_bool "injected crashes do not fail the campaign" true (Runner.ok s);
  let st = List.hd s.Runner.stats in
  check_int "surviving cases all passed" 4 st.Runner.passed

let () =
  Alcotest.run "guard"
    [
      ( "taxonomy",
        [
          Alcotest.test_case "totality per solver x fault x policy" `Quick test_taxonomy_totality;
          Alcotest.test_case "class strings and exit codes" `Quick test_error_classes;
          Alcotest.test_case "nonconv classified" `Quick test_nonconv_classified;
          Alcotest.test_case "raise classified as fault" `Quick test_raise_classified_as_fault;
          Alcotest.test_case "unknown solver is invalid input" `Quick test_unknown_solver_is_invalid_input;
          Alcotest.test_case "unreachable target is infeasible" `Quick test_infeasible_target_classified;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "zero budget trips" `Quick test_deadline_trips;
          Alcotest.test_case "generous budget passes" `Quick test_generous_deadline_passes;
          Alcotest.test_case "deadline is final" `Quick test_deadline_is_final;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "retry recovers and is flagged" `Quick test_retry_recovers;
          Alcotest.test_case "fallback follows Engine.supporting" `Quick test_fallback_order_matches_supporting;
          Alcotest.test_case "--no-fallback honored" `Quick test_no_fallback_honored;
        ] );
      ( "injection",
        [ Alcotest.test_case "same seed, same faults" `Quick test_injection_deterministic ] );
      ( "transparency",
        [
          Alcotest.test_case "guard-off equals raw engine" `Quick test_guard_off_transparent;
          Alcotest.test_case "default policy clean on bench cases" `Quick test_default_policy_clean;
        ] );
      ( "containment",
        [
          Alcotest.test_case "Par.try_init isolates a faulted item" `Quick test_par_try_init_contains;
          Alcotest.test_case "runner records injected worker crashes" `Quick
            test_runner_contains_worker_faults;
        ] );
    ]
