(* pasched.par: the multicore execution layer and its determinism
   contract, plus the hot paths routed through it in this repo —
   frontier sampling, flow curves (warm-started), fuzz campaigns.

   Everything here must hold on BOTH backends: on the sequential
   fallback the jobs argument is accepted and ignored, so the
   jobs-invariance checks degenerate to self-comparisons (still useful:
   they pin the grids and chunking against accidental jobs-dependence). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let widths = [ 1; 2; 8 ]

(* ---------- the pool itself ---------- *)

let test_init_ordering () =
  List.iter
    (fun jobs ->
      let a = Par.init ~jobs 100 (fun i -> i * i) in
      check_int (Printf.sprintf "length at jobs=%d" jobs) 100 (Array.length a);
      Array.iteri
        (fun i v -> check_int (Printf.sprintf "slot %d at jobs=%d" i jobs) (i * i) v)
        a)
    widths

let test_init_empty_and_single () =
  List.iter
    (fun jobs ->
      check_bool "n=0" true (Par.init ~jobs 0 (fun i -> i) = [||]);
      check_bool "n=1" true (Par.init ~jobs 1 (fun i -> i + 7) = [| 7 |]))
    widths

let test_map_and_list_map () =
  let input = List.init 57 (fun i -> float_of_int i /. 7.0) in
  let expect = List.map sqrt input in
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "list_map at jobs=%d" jobs)
        true
        (Par.list_map ~jobs sqrt input = expect);
      check_bool
        (Printf.sprintf "map at jobs=%d" jobs)
        true
        (Par.map ~jobs sqrt (Array.of_list input) = Array.of_list expect))
    widths

let test_invalid_args () =
  Alcotest.check_raises "negative length" (Invalid_argument "Par.init: negative length")
    (fun () -> ignore (Par.init ~jobs:2 (-1) (fun i -> i)));
  Alcotest.check_raises "jobs = 0" (Invalid_argument "Par: jobs must be >= 1, got 0") (fun () ->
      ignore (Par.init ~jobs:0 3 (fun i -> i)));
  Alcotest.check_raises "set_default_jobs 0"
    (Invalid_argument "Par.set_default_jobs: need jobs >= 1") (fun () -> Par.set_default_jobs 0)

exception Boom of int

let test_exception_propagation () =
  List.iter
    (fun jobs ->
      (* every failing element raises its own exception; the pool must
         surface the lowest-indexed one among those evaluated — with
         index 0 failing, that is always Boom 0 *)
      match Par.init ~jobs 64 (fun i -> if i mod 3 = 0 then raise (Boom i) else i) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 0 -> ()
      | exception Boom k -> Alcotest.failf "expected Boom 0, got Boom %d (jobs=%d)" k jobs)
    widths

let test_nested_init_sequential () =
  (* init inside a worker must not spawn domains (it runs sequentially)
     and must still compute the right thing *)
  let rows =
    Par.init ~jobs:4 8 (fun i -> Array.to_list (Par.init ~jobs:4 8 (fun j -> (i * 8) + j)))
  in
  let flat = List.concat (Array.to_list rows) in
  check_bool "nested result" true (flat = List.init 64 Fun.id)

let test_default_jobs_roundtrip () =
  let saved = Par.default_jobs () in
  Par.set_default_jobs 3;
  check_int "default honoured" 3 (Par.default_jobs ());
  Par.set_default_jobs saved;
  check_int "default restored" saved (Par.default_jobs ())

(* ---------- obs under parallel updates ---------- *)

let test_counters_lossless () =
  (* Obs_metrics directly (unconditional): 4 workers x 5000 increments
     must never drop a count now that counters are atomic *)
  let c = Obs_metrics.counter "test_par.lossless" in
  let before = Obs_metrics.value c in
  ignore
    (Par.init ~jobs:4 4 (fun _ ->
         for _ = 1 to 5000 do
           Obs_metrics.incr c
         done));
  check_int "4 x 5000 increments" (before + 20000) (Obs_metrics.value c)

(* ---------- grids and endpoints ---------- *)

let test_sweep_exact_endpoints () =
  let inst = Instance.theorem8 in
  let pts = Flow_frontier.sweep ~alpha:3.0 inst ~s_lo:0.37 ~s_hi:4.13 ~n:17 in
  check_int "n points" 17 (List.length pts);
  let first = List.hd pts and last = List.nth pts 16 in
  (* exact float equality: the geometric grid must land on the bounds,
     not drift past them in the last ulps *)
  check_bool "first = s_lo" true (first.Flow_frontier.last_speed = 0.37);
  check_bool "last = s_hi" true (last.Flow_frontier.last_speed = 4.13)

(* ---------- jobs-invariance of routed hot paths ---------- *)

let curve_at jobs =
  let inst = Workload.equal_work ~seed:11 ~n:16 ~work:1.0 (Workload.Poisson 1.0) in
  Flow_frontier.curve ~jobs ~alpha:3.0 inst ~e_lo:20.0 ~e_hi:120.0 ~n:37

let test_curve_jobs_invariant () =
  let base = curve_at 1 in
  check_int "curve length" 37 (List.length base);
  List.iter
    (fun jobs ->
      (* bitwise float equality, not approximate: the warm-start chunk
         chains are fixed, so any difference is a determinism bug *)
      check_bool (Printf.sprintf "curve jobs=%d = jobs=1" jobs) true (curve_at jobs = base))
    [ 2; 8 ]

let test_sweep_jobs_invariant () =
  let sweep jobs = Flow_frontier.sweep ~jobs ~alpha:3.0 Instance.theorem8 ~s_lo:0.5 ~s_hi:3.0 ~n:41 in
  let base = sweep 1 in
  List.iter
    (fun jobs -> check_bool (Printf.sprintf "sweep jobs=%d = jobs=1" jobs) true (sweep jobs = base))
    [ 2; 8 ]

let test_frontier_sample_jobs_invariant () =
  let f = Frontier.build Power_model.cube Instance.figure1 in
  let sample jobs = Frontier.sample ~jobs f ~lo:6.0 ~hi:21.0 ~n:61 in
  let base = sample 1 in
  List.iter
    (fun jobs ->
      check_bool (Printf.sprintf "sample jobs=%d = jobs=1" jobs) true (sample jobs = base))
    [ 2; 8 ]

let summary_fingerprint (s : Runner.summary) =
  ( s.Runner.seed,
    s.Runner.cases,
    s.Runner.checks,
    List.map (fun st -> (st.Runner.name, st.Runner.passed, st.Runner.skipped, st.Runner.failed)) s.Runner.stats,
    List.map (fun f -> (f.Runner.prop, f.Runner.case_index, f.Runner.replay)) s.Runner.failures )

let test_fuzz_jobs_invariant () =
  let run jobs = Runner.run ~jobs ~seed:7 ~runs:40 () in
  let base = summary_fingerprint (run 1) in
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "fuzz summary jobs=%d = jobs=1" jobs)
        true
        (summary_fingerprint (run jobs) = base))
    [ 2; 8 ]

(* ---------- warm-started solve_budget ---------- *)

let test_warm_start_same_root () =
  let inst = Workload.equal_work ~seed:3 ~n:12 ~work:1.0 (Workload.Poisson 1.0) in
  List.iter
    (fun energy ->
      let cold = Flow.solve_budget ~alpha:3.0 ~energy inst in
      (* warm from roots both below (a cheaper budget's) and above (a
         richer budget's): same root to solver tolerance *)
      List.iter
        (fun warm ->
          let w = Flow.solve_budget ~warm ~alpha:3.0 ~energy inst in
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "root at E=%g warm from %g" energy warm)
            cold.Flow.last_speed w.Flow.last_speed;
          Alcotest.(check (float 1e-6)) "energy exhausted" energy w.Flow.energy)
        [ cold.Flow.last_speed *. 0.9; cold.Flow.last_speed *. 1.1; cold.Flow.last_speed ])
    [ 15.0; 40.0; 90.0 ]

let test_warm_start_bogus_ignored () =
  let inst = Workload.equal_work ~seed:3 ~n:6 ~work:1.0 (Workload.Poisson 1.0) in
  let cold = Flow.solve_budget ~alpha:3.0 ~energy:20.0 inst in
  List.iter
    (fun warm ->
      let w = Flow.solve_budget ~warm ~alpha:3.0 ~energy:20.0 inst in
      Alcotest.(check (float 1e-9)) "bogus warm falls back to cold bracket" cold.Flow.last_speed
        w.Flow.last_speed)
    [ 0.0; -1.0; Float.nan; Float.infinity ]

(* the outer search and the pinned windows are both Newton iterations,
   so the one counter sees every evaluation a warm start saves *)
let test_warm_start_fewer_newton_iters () =
  let inst = Workload.equal_work ~seed:11 ~n:24 ~work:1.0 (Workload.Poisson 1.0) in
  let was_on = Obs.enabled () in
  Obs.set_enabled true;
  let newton = Obs.counter "rootfind.newton_iters" in
  let iters f =
    let v0 = Obs_metrics.value newton in
    f ();
    Obs_metrics.value newton - v0
  in
  let energies = List.init 32 (fun i -> 30.0 +. (4.0 *. float_of_int i)) in
  let cold =
    iters (fun () ->
        List.iter (fun e -> ignore (Flow.solve_budget ~alpha:3.0 ~energy:e inst)) energies)
  in
  let warm =
    iters (fun () ->
        ignore
          (List.fold_left
             (fun warm e ->
               let sol = Flow.solve_budget ?warm ~alpha:3.0 ~energy:e inst in
               Some sol.Flow.last_speed)
             None energies))
  in
  Obs.set_enabled was_on;
  check_bool
    (Printf.sprintf "warm sweep needs fewer Newton iterations (cold=%d warm=%d)" cold warm)
    true (warm < cold)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "init ordering" `Quick test_init_ordering;
          Alcotest.test_case "empty and single" `Quick test_init_empty_and_single;
          Alcotest.test_case "map and list_map" `Quick test_map_and_list_map;
          Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "nested init is sequential" `Quick test_nested_init_sequential;
          Alcotest.test_case "default jobs roundtrip" `Quick test_default_jobs_roundtrip;
        ] );
      ("obs", [ Alcotest.test_case "atomic counters lossless" `Quick test_counters_lossless ]);
      ( "determinism",
        [
          Alcotest.test_case "sweep exact endpoints" `Quick test_sweep_exact_endpoints;
          Alcotest.test_case "curve jobs-invariant" `Quick test_curve_jobs_invariant;
          Alcotest.test_case "sweep jobs-invariant" `Quick test_sweep_jobs_invariant;
          Alcotest.test_case "frontier sample jobs-invariant" `Quick test_frontier_sample_jobs_invariant;
          Alcotest.test_case "fuzz campaign jobs-invariant" `Quick test_fuzz_jobs_invariant;
        ] );
      ( "warm-start",
        [
          Alcotest.test_case "same root as cold" `Quick test_warm_start_same_root;
          Alcotest.test_case "bogus warm ignored" `Quick test_warm_start_bogus_ignored;
          Alcotest.test_case "fewer Newton iterations" `Quick test_warm_start_fewer_newton_iters;
        ] );
    ]
