(* Tests for the pasched.engine solver registry: the capability sweep
   (every registered solver, run on a capability-matched generated
   instance, returns a result whose schedule validates and whose
   energy respects the budget), enforcement of declared capabilities
   (equal-work-only solvers reject unequal works, size-bounded solvers
   reject oversized instances, uniprocessor solvers reject procs > 1),
   Problem.make boundary validation, and registry mechanics
   (duplicate registration, lookup, differential-pair derivation). *)

let () = Builtin.init ()

let alpha = 3.0
let tol = 1e-6

let requires cap r = List.mem r cap.Capability.requires

let max_jobs cap =
  List.fold_left
    (fun acc -> function Capability.Max_jobs k -> Stdlib.min acc k | _ -> acc)
    max_int cap.Capability.requires

(* a capability-matched (problem, instance) pair for a solver, derived
   from its registered capability alone *)
let case_for solver =
  let cap = Engine.capability_of solver in
  let procs = match cap.Capability.settings with Capability.Uni_only -> 1 | _ -> 2 in
  let n = Stdlib.min (if procs > 1 then 6 else 16) (max_jobs cap) in
  let inst =
    if requires cap Capability.Equal_work then
      Workload.equal_work ~seed:23 ~n ~work:1.0 (Workload.Poisson 1.0)
    else Workload.uniform_work ~seed:23 ~n ~lo:0.5 ~hi:2.0 (Workload.Poisson 1.0)
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
  let n_inst = Array.length (Instance.jobs inst) in
  let weights =
    if requires cap Capability.Needs_weights then
      Some (Array.init n_inst (fun i -> 1.0 +. float_of_int (i mod 3)))
    else None
  in
  let deadlines =
    if requires cap Capability.Needs_deadlines then
      Some (Array.map (fun (j : Job.t) -> j.Job.release +. (3.0 *. j.Job.work)) (Instance.jobs inst))
    else None
  in
  let problem =
    Problem.make ~procs ?speed_cap ?levels ?weights ?deadlines
      ~objective:cap.Capability.objective ~mode ~alpha ()
  in
  (problem, inst)

(* ---------------------------------------------------------------- *)
(* sweep: every registered solver solves its own capability class *)

let check_result solver problem inst (r : Solve_result.t) =
  let name = Engine.name_of solver in
  Alcotest.(check string) (name ^ ": result names its solver") name r.Solve_result.solver;
  Alcotest.(check bool)
    (name ^ ": objective value is finite")
    true
    (Float.is_finite r.Solve_result.value);
  Alcotest.(check bool)
    (name ^ ": value is positive")
    true (r.Solve_result.value > 0.0);
  Alcotest.(check bool)
    (name ^ ": energy is finite and positive")
    true
    (Float.is_finite r.Solve_result.energy && r.Solve_result.energy > 0.0);
  (match problem.Problem.mode with
  | Problem.Budget budget ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: energy %.6f within budget %.6f" name r.Solve_result.energy budget)
      true
      (r.Solve_result.energy <= (budget *. (1.0 +. tol)) +. tol)
  | _ -> ());
  match r.Solve_result.schedule with
  | None -> ()
  | Some sched -> (
    let budget =
      match problem.Problem.mode with
      | Problem.Budget e -> e
      | _ -> Schedule.energy (Problem.model problem) sched *. (1.0 +. tol)
    in
    match Validate.check_with_budget (Problem.model problem) ~budget inst sched with
    | Ok () -> ()
    | Error vs ->
      Alcotest.fail
        (Printf.sprintf "%s: schedule fails validation: %s" name
           (String.concat "; " (List.map Validate.to_string vs))))

let test_sweep () =
  let solvers = Engine.all () in
  Alcotest.(check bool)
    (Printf.sprintf "registry has >= 12 solvers (got %d)" (List.length solvers))
    true
    (List.length solvers >= 12);
  List.iter
    (fun solver ->
      let problem, inst = case_for solver in
      (match Capability.accepts (Engine.capability_of solver) problem inst with
      | Ok () -> ()
      | Error why ->
        Alcotest.fail
          (Printf.sprintf "%s rejects its own capability-matched case: %s" (Engine.name_of solver)
             why));
      check_result solver problem inst (Engine.solve_with solver problem inst))
    solvers

(* ---------------------------------------------------------------- *)
(* capability enforcement: mismatched calls raise Invalid_argument
   before the solver runs *)

let expect_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail (what ^ ": expected Invalid_argument")

let unequal_inst = Instance.of_pairs [ (0.0, 5.0); (1.0, 2.0); (2.0, 1.0) ]

let test_equal_work_enforced () =
  let checked = ref 0 in
  List.iter
    (fun solver ->
      let cap = Engine.capability_of solver in
      if requires cap Capability.Equal_work then begin
        incr checked;
        let procs = match cap.Capability.settings with Capability.Uni_only -> 1 | _ -> 2 in
        let problem =
          Problem.make ~procs ~objective:cap.Capability.objective ~mode:(Problem.Budget 10.0)
            ~alpha ()
        in
        expect_invalid
          (Engine.name_of solver ^ " on unequal works")
          (fun () -> Engine.solve_with solver problem unequal_inst)
      end)
    (Engine.all ());
  Alcotest.(check bool) "at least 4 equal-work-only solvers exist" true (!checked >= 4)

let test_max_jobs_enforced () =
  List.iter
    (fun solver ->
      let cap = Engine.capability_of solver in
      let bound = max_jobs cap in
      if bound < max_int then begin
        let n = bound + 1 in
        let inst = Workload.equal_work ~seed:3 ~n ~work:1.0 (Workload.Poisson 1.0) in
        let procs = match cap.Capability.settings with Capability.Uni_only -> 1 | _ -> 2 in
        let problem =
          Problem.make ~procs ~objective:cap.Capability.objective ~mode:(Problem.Budget 10.0)
            ~alpha ()
        in
        expect_invalid
          (Printf.sprintf "%s on %d > %d jobs" (Engine.name_of solver) n bound)
          (fun () -> Engine.solve_with solver problem inst)
      end)
    (Engine.all ())

let test_uni_only_enforced () =
  List.iter
    (fun solver ->
      let cap = Engine.capability_of solver in
      if cap.Capability.settings = Capability.Uni_only
         && List.mem Capability.Budget_mode cap.Capability.modes
      then begin
        let inst = Workload.equal_work ~seed:3 ~n:4 ~work:1.0 (Workload.Poisson 1.0) in
        let problem =
          Problem.make ~procs:2 ~objective:cap.Capability.objective ~mode:(Problem.Budget 10.0)
            ~alpha ()
        in
        expect_invalid
          (Engine.name_of solver ^ " with procs = 2")
          (fun () -> Engine.solve_with solver problem inst)
      end)
    (Engine.all ())

let test_missing_param_enforced () =
  (* a solver requiring weights/levels/deadlines/speed-cap must reject
     a problem that does not carry the parameter *)
  List.iter
    (fun solver ->
      let cap = Engine.capability_of solver in
      let needs_param =
        List.exists
          (function
            | Capability.Needs_speed_cap | Capability.Needs_levels | Capability.Needs_weights
            | Capability.Needs_deadlines ->
              true
            | _ -> false)
          cap.Capability.requires
      in
      if needs_param then begin
        let inst = Workload.equal_work ~seed:3 ~n:4 ~work:1.0 (Workload.Poisson 1.0) in
        let inst =
          if requires cap Capability.Common_release then
            Instance.of_pairs
              (Array.to_list
                 (Array.map (fun (j : Job.t) -> (0.0, j.Job.work)) (Instance.jobs inst)))
          else inst
        in
        let mode =
          match cap.Capability.modes with
          | Capability.Feasible_mode :: _ -> Problem.Feasible
          | _ -> Problem.Budget 10.0
        in
        let problem = Problem.make ~objective:cap.Capability.objective ~mode ~alpha () in
        expect_invalid
          (Engine.name_of solver ^ " without its required parameter")
          (fun () -> Engine.solve_with solver problem inst)
      end)
    (Engine.all ())

(* a speed cap or discrete levels is admitted only by a solver that
   declares it: any other solver would ignore the constraint and answer
   speeds that break it *)
let test_unhonoured_constraint_refused () =
  List.iter
    (fun solver ->
      let name = Engine.name_of solver in
      let cap = Engine.capability_of solver in
      let p, inst = case_for solver in
      let variant ?speed_cap ?levels () =
        let speed_cap = match speed_cap with Some _ -> speed_cap | None -> p.Problem.speed_cap in
        let levels = match levels with Some _ -> levels | None -> p.Problem.levels in
        Problem.make ~procs:p.Problem.procs ?speed_cap ?levels ?weights:p.Problem.weights
          ?deadlines:p.Problem.deadlines ~objective:p.Problem.objective ~mode:p.Problem.mode
          ~alpha:p.Problem.alpha ()
      in
      List.iter
        (fun (what, needs, problem) ->
          let admitted = Capability.accepts cap problem inst = Ok () in
          Alcotest.(check bool)
            (Printf.sprintf "%s admits a problem with %s iff it requires it" name what)
            (requires cap needs) admitted;
          Alcotest.(check bool)
            (Printf.sprintf "%s is routed a problem with %s iff it requires it" name what)
            (requires cap needs)
            (List.mem name (List.map Engine.name_of (Engine.supporting problem inst)));
          if not admitted then
            expect_invalid
              (Printf.sprintf "%s named for a problem with %s" name what)
              (fun () -> Engine.solve_with solver problem inst))
        [
          ("a speed cap", Capability.Needs_speed_cap, variant ~speed_cap:1.5 ());
          ("discrete levels", Capability.Needs_levels, variant ~levels:[ 0.5; 1.0; 2.0 ] ());
        ])
    (Engine.all ());
  let makespan ?speed_cap ?levels () =
    Problem.make ?speed_cap ?levels ~objective:Problem.Makespan ~mode:(Problem.Budget 12.0) ~alpha ()
  in
  let routed p = List.map Engine.name_of (Engine.supporting p Instance.figure1) in
  Alcotest.(check (list string)) "a capped makespan routes to bounded-speed only" [ "bounded-speed" ]
    (routed (makespan ~speed_cap:1.5 ()));
  Alcotest.(check (list string)) "a levelled makespan routes to discrete-makespan only"
    [ "discrete-makespan" ]
    (routed (makespan ~levels:[ 0.5; 1.0; 2.0 ] ()))

(* ---------------------------------------------------------------- *)
(* Problem.make boundary validation (the CLI converter mirrors this) *)

let test_problem_validation () =
  let mk ?procs ?(mode = Problem.Budget 10.0) alpha () =
    Problem.make ?procs ~objective:Problem.Makespan ~mode ~alpha ()
  in
  expect_invalid "alpha = 1" (fun () -> mk 1.0 ());
  expect_invalid "alpha = 0.5" (fun () -> mk 0.5 ());
  expect_invalid "alpha = -3" (fun () -> mk (-3.0) ());
  expect_invalid "procs = 0" (fun () -> mk ~procs:0 3.0 ());
  expect_invalid "budget = 0" (fun () -> mk ~mode:(Problem.Budget 0.0) 3.0 ());
  expect_invalid "negative target" (fun () -> mk ~mode:(Problem.Target (-1.0)) 3.0 ());
  ignore (mk 1.0000001 () : Problem.t);
  ignore (mk ~procs:4 3.0 () : Problem.t)

(* ---------------------------------------------------------------- *)
(* registry mechanics *)

let test_duplicate_registration () =
  let dup =
    (module struct
      let name = "incmerge"
      let doc = "imposter"
      let capability =
        {
          Capability.objective = Problem.Makespan;
          settings = Capability.Uni_only;
          modes = [ Capability.Budget_mode ];
          exact = true;
          requires = [];
        }
      let solve _ _ = Alcotest.fail "imposter solver must never run"
    end : Engine.SOLVER)
  in
  expect_invalid "duplicate registration" (fun () -> Engine.register dup)

let test_lookup () =
  Alcotest.(check bool) "find incmerge" true (Engine.find "incmerge" <> None);
  Alcotest.(check bool) "find unknown" true (Engine.find "no-such-solver" = None);
  let problem = Problem.make ~objective:Problem.Makespan ~mode:(Problem.Budget 12.0) ~alpha () in
  let supporting = List.map Engine.name_of (Engine.supporting problem Instance.figure1) in
  Alcotest.(check bool) "incmerge supports figure1 makespan" true (List.mem "incmerge" supporting);
  Alcotest.(check bool) "flow does not support a makespan problem" true
    (not (List.mem "flow" supporting));
  let r =
    match Guard.solve_auto ~policy:Guard.off problem Instance.figure1 with
    | Ok r -> r
    | Error e -> Alcotest.failf "Guard.solve_auto failed: %s" (Guard_error.to_string e)
  in
  let direct = Engine.solve_with (Option.get (Engine.find "incmerge")) problem Instance.figure1 in
  Alcotest.(check (float 1e-9)) "Guard.solve_auto routes to the first exact solver"
    direct.Solve_result.value r.Solve_result.value

(* the [engine.solve.<name>] span: with Obs off its name and args are
   never built, so the words [solve_with] allocates beyond the solver's
   own are exactly the capability check's; with Obs on the span carries
   the problem and the job count *)
let test_solve_span () =
  let s = Option.get (Engine.find "incmerge") in
  let module S = (val s) in
  let problem = Problem.make ~objective:Problem.Makespan ~mode:(Problem.Budget 12.0) ~alpha () in
  let inst = Instance.figure1 in
  (* minor words of one warm call (the first call may size arenas) *)
  let minor_words f =
    ignore (Sys.opaque_identity (f ()));
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  Obs.set_enabled false;
  let empty = minor_words (fun () -> ()) in
  let words f = int_of_float (minor_words f -. empty) in
  let engine = words (fun () -> Engine.solve_with s problem inst) in
  let solver = words (fun () -> S.solve problem inst) in
  let accepts = words (fun () -> Capability.accepts S.capability problem inst) in
  Alcotest.(check int)
    (Printf.sprintf "Obs off: solve_with (%d words) - solver (%d) = capability check" engine
       solver)
    accepts (engine - solver);
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () -> ignore (Engine.solve_with s problem inst));
  match
    List.find_opt
      (fun (e : Obs_trace.event) -> e.Obs_trace.name = "engine.solve.incmerge")
      (Obs.trace_events ())
  with
  | None -> Alcotest.fail "Obs on: no engine.solve.incmerge span recorded"
  | Some e ->
    let arg k = List.assoc_opt k e.Obs_trace.args in
    Alcotest.(check (option string)) "span arg problem" (Some "makespan/1-proc/budget 12")
      (arg "problem");
    Alcotest.(check (option string)) "span arg n" (Some "3") (arg "n")

(* [Capability.accepts] before it was written in direct style, kept
   verbatim as the reference for every refusal text *)
let reference_accepts (cap : Capability.t) (p : Problem.t) inst =
  let open Capability in
  let ( let* ) = Result.bind in
  let mode_kind = function
    | Problem.Budget _ -> Budget_mode
    | Problem.Target _ -> Target_mode
    | Problem.Pareto -> Pareto_mode
    | Problem.Feasible -> Feasible_mode
  in
  let mode_kind_to_string = function
    | Budget_mode -> "budget"
    | Target_mode -> "target"
    | Pareto_mode -> "pareto"
    | Feasible_mode -> "feasible"
  in
  let admits cap (p : Problem.t) =
    let* () =
      if cap.objective = p.Problem.objective then Ok ()
      else
        Error
          (Printf.sprintf "optimizes %s, not %s"
             (Problem.objective_to_string cap.objective)
             (Problem.objective_to_string p.Problem.objective))
    in
    let* () =
      match cap.settings with
      | Any_procs -> Ok ()
      | Uni_only when p.Problem.procs = 1 -> Ok ()
      | Uni_only -> Error (Printf.sprintf "uniprocessor only, problem has %d processors" p.Problem.procs)
      | Multi_only when p.Problem.procs >= 2 -> Ok ()
      | Multi_only -> Error "multiprocessor only, problem is uniprocessor"
    in
    let* () =
      if List.mem (mode_kind p.Problem.mode) cap.modes then Ok ()
      else
        Error
          (Printf.sprintf "mode %s unsupported (handles: %s)"
             (mode_kind_to_string (mode_kind p.Problem.mode))
             (String.concat ", " (List.map mode_kind_to_string cap.modes)))
    in
    let* () =
      if p.Problem.speed_cap <> None && not (List.mem Needs_speed_cap cap.requires) then
        Error "does not honour a speed cap"
      else Ok ()
    in
    let* () =
      if p.Problem.levels <> None && not (List.mem Needs_levels cap.requires) then
        Error "does not honour discrete speed levels"
      else Ok ()
    in
    let need what = function
      | Some _ -> Ok ()
      | None -> Error (Printf.sprintf "problem must carry %s" what)
    in
    List.fold_left
      (fun acc r ->
        let* () = acc in
        match r with
        | Needs_speed_cap -> need "a speed cap" p.Problem.speed_cap
        | Needs_levels -> need "discrete speed levels" p.Problem.levels
        | Needs_weights -> need "per-job weights" p.Problem.weights
        | Needs_deadlines -> need "per-job deadlines" p.Problem.deadlines
        | Equal_work | Common_release | Max_jobs _ -> Ok ())
      (Ok ()) cap.requires
  in
  let* () = admits cap p in
  let sized what = function
    | Some a when Array.length a <> Instance.n inst ->
      Error
        (Printf.sprintf "%s array has %d entries for %d jobs" what (Array.length a) (Instance.n inst))
    | _ -> Ok ()
  in
  List.fold_left
    (fun acc r ->
      let* () = acc in
      match r with
      | Equal_work ->
        if Instance.is_equal_work inst then Ok () else Error "requires equal-work jobs"
      | Common_release ->
        if Instance.is_empty inst || (Instance.has_common_release inst && Instance.first_release inst = 0.0)
        then Ok ()
        else Error "requires all jobs released at time 0"
      | Max_jobs k ->
        if Instance.n inst <= k then Ok ()
        else Error (Printf.sprintf "instance too large: %d jobs, solver handles <= %d" (Instance.n inst) k)
      | Needs_weights -> sized "weights" p.Problem.weights
      | Needs_deadlines -> sized "deadlines" p.Problem.deadlines
      | Needs_speed_cap | Needs_levels -> Ok ())
    (Ok ()) cap.requires

(* every registered capability against every objective, processor
   count, mode, optional parameter (absent, sized, missized) and
   instance shape: [accepts] gives the reference's verdict and text,
   and [admits] agrees with it *)
let test_accepts_reference () =
  let instances =
    [
      Instance.of_pairs [];
      Instance.of_pairs [ (0.0, 1.0); (0.0, 1.0); (0.0, 1.0) ];
      Instance.of_pairs [ (0.0, 1.0); (0.5, 1.0); (1.0, 1.0) ];
      Instance.of_pairs [ (1.0, 1.0); (1.0, 1.0) ];
      Instance.figure1;
      Workload.uniform_work ~seed:5 ~n:40 ~lo:0.5 ~hi:2.0 (Workload.Poisson 1.0);
    ]
  in
  let params n = [ None; Some (Array.make n 1.0); Some (Array.make (n + 1) 1.0) ] in
  let cases = ref 0 in
  List.iter
    (fun inst ->
      let n = Instance.n inst in
      List.iter
        (fun objective ->
          List.iter
            (fun procs ->
              List.iter
                (fun mode ->
                  List.iter
                    (fun speed_cap ->
                      List.iter
                        (fun levels ->
                          List.iter
                            (fun weights ->
                              List.iter
                                (fun deadlines ->
                                  let p =
                                    Problem.make ~procs ?speed_cap ?levels ?weights ?deadlines ~objective
                                      ~mode ~alpha ()
                                  in
                                  List.iter
                                    (fun s ->
                                      let cap = Engine.capability_of s in
                                      let want = reference_accepts cap p inst in
                                      incr cases;
                                      if Capability.accepts cap p inst <> want then
                                        Alcotest.failf "%s on %s (n=%d): accepts differs from the reference"
                                          (Engine.name_of s) (Problem.to_string p) n;
                                      if Capability.admits cap p inst <> (want = Ok ()) then
                                        Alcotest.failf "%s on %s (n=%d): admits differs from accepts"
                                          (Engine.name_of s) (Problem.to_string p) n)
                                    (Engine.all ()))
                                (params n))
                            (params n))
                        [ None; Some [ 1.0; 2.0 ] ])
                    [ None; Some 2.0 ])
                [ Problem.Budget 12.0; Problem.Target 3.0; Problem.Pareto; Problem.Feasible ])
            [ 1; 2; 3 ])
        Problem.all_objectives)
    instances;
  Alcotest.(check bool) (Printf.sprintf "%d cases compared" !cases) true (!cases > 100_000)

(* routing asks every registered solver and formats no refusal: a
   5-job makespan request and a 64-job flow request each allocate at
   most 200 words in [supporting] (104 and 70 measured on OCaml 5.1.1;
   formatting every refusal took 1,426 words on the makespan request) *)
let test_supporting_words () =
  let minor_words f =
    ignore (Sys.opaque_identity (f ()));
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  let empty = minor_words (fun () -> ()) in
  List.iter
    (fun (what, problem, inst) ->
      let names = List.map Engine.name_of (Engine.supporting problem inst) in
      Alcotest.(check bool) (what ^ ": some solver supports it") true (names <> []);
      let w = int_of_float (minor_words (fun () -> Engine.supporting problem inst) -. empty) in
      Alcotest.(check bool) (Printf.sprintf "%s: supporting allocates %d words <= 200" what w) true (w <= 200))
    [
      ( "5-job makespan",
        Problem.make ~objective:Problem.Makespan ~mode:(Problem.Budget 9.0) ~alpha (),
        Instance.of_pairs [ (0.0, 1.2); (0.3, 0.6); (0.9, 2.0); (1.4, 0.7); (2.2, 1.1) ] );
      ( "64-job flow",
        Problem.make ~objective:Problem.Total_flow ~mode:(Problem.Budget 200.0) ~alpha (),
        Workload.equal_work ~seed:3 ~n:64 ~work:1.0 (Workload.Poisson 1.0) );
    ]

let test_differential_pairs () =
  let pairs = Engine.differential_pairs () in
  Alcotest.(check bool)
    (Printf.sprintf "at least 10 derived pairs (got %d)" (List.length pairs))
    true
    (List.length pairs >= 10);
  List.iter
    (fun (a, b) ->
      let ca = Engine.capability_of a and cb = Engine.capability_of b in
      Alcotest.(check bool)
        (Printf.sprintf "%s~%s: both exact" (Engine.name_of a) (Engine.name_of b))
        true
        (ca.Capability.exact && cb.Capability.exact);
      Alcotest.(check bool)
        (Printf.sprintf "%s~%s: same objective" (Engine.name_of a) (Engine.name_of b))
        true
        (ca.Capability.objective = cb.Capability.objective))
    pairs;
  (* the canonical Section 3 pair is derived *)
  let names = List.map (fun (a, b) -> (Engine.name_of a, Engine.name_of b)) pairs in
  Alcotest.(check bool) "incmerge~brute derived" true
    (List.mem ("incmerge", "brute") names || List.mem ("brute", "incmerge") names)

let () =
  Alcotest.run "engine"
    [
      ( "sweep",
        [ Alcotest.test_case "every solver solves its capability class" `Quick test_sweep ] );
      ( "capabilities",
        [
          Alcotest.test_case "equal-work-only solvers reject unequal works" `Quick
            test_equal_work_enforced;
          Alcotest.test_case "size-bounded solvers reject oversized instances" `Quick
            test_max_jobs_enforced;
          Alcotest.test_case "uniprocessor solvers reject procs > 1" `Quick test_uni_only_enforced;
          Alcotest.test_case "parameter-requiring solvers reject bare problems" `Quick
            test_missing_param_enforced;
          Alcotest.test_case "a speed cap or levels only for solvers that declare them" `Quick
            test_unhonoured_constraint_refused;
          Alcotest.test_case "refusal texts equal the reference's" `Quick test_accepts_reference;
        ] );
      ( "problem",
        [ Alcotest.test_case "Problem.make boundary validation" `Quick test_problem_validation ] );
      ( "registry",
        [
          Alcotest.test_case "duplicate registration rejected" `Quick test_duplicate_registration;
          Alcotest.test_case "lookup, supporting, solve_auto" `Quick test_lookup;
          Alcotest.test_case "solve_with span built only when Obs is on" `Quick test_solve_span;
          Alcotest.test_case "differential pairs derived" `Quick test_differential_pairs;
          Alcotest.test_case "supporting formats no refusal" `Quick test_supporting_words;
        ] );
    ]
