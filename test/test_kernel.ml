(* The flow and frontier kernels, checked by their outputs:

   - certificate: every point of a warm-chained Flow_frontier.curve
     equals a cold Flow.solve_budget at its budget to 1e-9, and that
     cold solve passes the registered flow_budget property (the budget
     spent to 1e-9, a valid schedule, Theorem 1) — optimality read off
     the solution, whatever way its root was reached; Frontier.sample
     equals IncMerge at every grid point;
   - invariance: results do not depend on the Par jobs width (scratch
     arenas are per-domain but values never depend on which domain
     computed them);
   - economy: warm and cold Flow.solve_budget stay under fixed words
     per solve on the kernel workload (the arena and the cached
     (h, hp, pw) tables absorb the per-call storage), the workload's
     work counters are pinned exactly, and so are the words a large
     Frontier costs to build and to query. *)

let check_bool = Alcotest.(check bool)

let inst n = Workload.equal_work ~seed:(7 + n) ~n ~work:1.0 (Workload.Poisson 1.0)

let bits_equal name got want =
  let bits (e, v) = (Int64.bits_of_float e, Int64.bits_of_float v) in
  check_bool name true (List.map bits got = List.map bits want)

(* ---------- the optimality certificate ---------- *)

let flow_budget =
  lazy
    (match List.find_opt (fun p -> p.Oracle.name = "flow_budget") (Properties.registered ()) with
    | Some p -> p.Oracle.run
    | None -> Alcotest.fail "flow_budget is not registered")

let rel_close a b = Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

(* each warm curve point against a cold solve at its budget, and that
   cold solve against the flow_budget certificate *)
let certify_curve name ~alpha i ~e_lo ~e_hi ~n =
  List.iter
    (fun (energy, flow) ->
      let cold = Flow.solve_budget ~alpha ~energy i in
      let at = Printf.sprintf "%s E=%.17g" name energy in
      check_bool
        (Printf.sprintf "%s: warm flow %.17g = cold %.17g" at flow cold.Flow.flow)
        true
        (rel_close flow cold.Flow.flow);
      match (Lazy.force flow_budget) { Oracle.seed = 0; alpha; energy; m = 1; inst = i } with
      | Oracle.Fail why -> Alcotest.fail (at ^ ": " ^ why)
      | Oracle.Pass | Oracle.Skip _ -> ())
    (Flow_frontier.curve ~jobs:1 ~alpha i ~e_lo ~e_hi ~n)

let test_curve_certified () =
  List.iter
    (fun (n, alpha, e_lo, e_hi) ->
      certify_curve (Printf.sprintf "curve n=%d alpha=%g" n alpha) ~alpha (inst n) ~e_lo ~e_hi ~n:33)
    [
      (1, 3.0, 20.0, 200.0);
      (7, 3.0, 20.0, 200.0);
      (64, 3.0, 20.0, 200.0);
      (64, 2.0, 20.0, 200.0);
      (40, 1.5, 20.0, 200.0);
      (* budgets solved on a power-of-two rescaled instance *)
      (7, 3.0, 1e250, 1e251);
      (9, 2.0, 1e-250, 1e-249);
    ]

(* single budgets across n and alpha, each certified with a
   warm-started point at twice the budget *)
let test_single_budgets_certified () =
  List.iter
    (fun (n, alpha, energy) ->
      certify_curve (Printf.sprintf "budget n=%d alpha=%g" n alpha) ~alpha (inst n) ~e_lo:energy
        ~e_hi:(2.0 *. energy) ~n:2)
    [ (1, 3.0, 12.0); (8, 3.0, 40.0); (64, 3.0, 160.0); (64, 2.0, 90.0); (25, 1.5, 55.0) ]

let test_sample_equals_incmerge () =
  let model = Power_model.alpha 3.0 in
  List.iter
    (fun n ->
      let i = inst n in
      List.iter
        (fun (e, mk) ->
          check_bool
            (Printf.sprintf "sample n=%d E=%g: %.17g" n e mk)
            true
            (rel_close mk (Incmerge.makespan model ~energy:e i)))
        (Frontier.sample ~jobs:1 (Frontier.build model i) ~lo:5.0 ~hi:500.0 ~n:65))
    [ 1; 2; 13; 100 ]

(* ---------- jobs-invariance of the per-domain scratch ---------- *)

let test_curve_jobs_invariant_interleaved () =
  (* interleave instance sizes so pool domains re-enter their arenas
     with stale larger/smaller buffers between calls *)
  let sizes = [ 64; 5; 64; 17; 3; 64 ] in
  List.iter
    (fun n ->
      let i = inst n in
      let seq = Flow_frontier.curve ~jobs:1 ~alpha:3.0 i ~e_lo:15.0 ~e_hi:150.0 ~n:48 in
      List.iter
        (fun jobs ->
          let par = Flow_frontier.curve ~jobs ~alpha:3.0 i ~e_lo:15.0 ~e_hi:150.0 ~n:48 in
          bits_equal (Printf.sprintf "curve n=%d jobs=%d" n jobs) par seq)
        [ 2; 4 ])
    sizes

let test_sample_jobs_invariant_interleaved () =
  let model = Power_model.alpha 3.0 in
  List.iter
    (fun n ->
      let i = inst n in
      let f = Frontier.build model i in
      let seq = Frontier.sample ~jobs:1 f ~lo:8.0 ~hi:400.0 ~n:50 in
      List.iter
        (fun jobs ->
          bits_equal
            (Printf.sprintf "sample n=%d jobs=%d" n jobs)
            (Frontier.sample ~jobs f ~lo:8.0 ~hi:400.0 ~n:50)
            seq)
        [ 2; 4 ])
    [ 48; 6; 48 ]

(* ---------- cached tables ---------- *)

let test_flow_tables_recurrence () =
  let t = Scratch.get () in
  let checked alpha n =
    let h, hp, pw = Scratch.flow_tables t ~alpha ~n in
    let inv_a = 1.0 /. alpha in
    let eh = ref 0.0 and ehp = ref 0.0 and epw = ref 0.0 in
    for l = 1 to n do
      (* the exact recurrences the cache is specified to use *)
      eh := !eh +. (float_of_int l ** -.inv_a);
      ehp := !ehp +. !eh;
      epw := !epw +. (float_of_int l ** (1.0 -. inv_a));
      let bit a b = Int64.bits_of_float a = Int64.bits_of_float b in
      check_bool (Printf.sprintf "h alpha=%g l=%d" alpha l) true (bit !eh (Float.Array.get h l));
      check_bool (Printf.sprintf "hp alpha=%g l=%d" alpha l) true (bit !ehp (Float.Array.get hp l));
      check_bool (Printf.sprintf "pw alpha=%g l=%d" alpha l) true (bit !epw (Float.Array.get pw l))
    done;
    check_bool "h0" true (Float.Array.get h 0 = 0.0);
    check_bool "hp0" true (Float.Array.get hp 0 = 0.0);
    check_bool "pw0" true (Float.Array.get pw 0 = 0.0)
  in
  checked 3.0 40;
  (* growth extends in place without disturbing the prefix *)
  checked 3.0 300;
  (* alpha change invalidates and refills *)
  checked 2.0 120;
  checked 3.0 50;
  (* harmonic is the same cached table *)
  let h, _, _ = Scratch.flow_tables t ~alpha:3.0 ~n:50 in
  check_bool "harmonic shares the cache" true (h == Scratch.harmonic t ~alpha:3.0 ~n:50)

(* ---------- the kernel workload: words and certificate ---------- *)

(* the kernel workload: 192 budgets over one n=64 instance *)
let kernel_inst = lazy (Workload.equal_work ~seed:7 ~n:64 ~work:1.0 (Workload.Poisson 1.0))
let kernel_budgets = 192
let kernel_budget k = 50.0 +. (2.5 *. float_of_int k)

(* warm-chained in 16-point chunks, the Flow_frontier.curve discipline *)
let run_warm () =
  let i = Lazy.force kernel_inst in
  let warm = ref None in
  for k = 0 to kernel_budgets - 1 do
    if k mod 16 = 0 then warm := None;
    let s = Flow.solve_budget ?warm:!warm ~alpha:3.0 ~energy:(kernel_budget k) i in
    warm := Some s.Flow.last_speed
  done

let run_cold () =
  let i = Lazy.force kernel_inst in
  for k = 0 to kernel_budgets - 1 do
    ignore (Flow.solve_budget ~alpha:3.0 ~energy:(kernel_budget k) i)
  done

let words_per_solve run =
  let before = Gc.minor_words () in
  run ();
  (Gc.minor_words () -. before) /. float_of_int kernel_budgets

(* Measured at 2,544.52 (warm) and 2,985.41 (cold) words per solve,
   the same on every pass: the exact meter (unlike Gc.quick_stat,
   whose minor words advance a minor heap at a time on OCaml 5) lets
   the bounds sit 3% above.  A pinned window's root find boxes its
   closure, its state and each iteration's (value, derivative) pair,
   so root-finding every window as it is formed (5,553.84 and
   6,574.36) fails both bounds; per-evaluation run stacks cost
   thousands more. *)
let test_warm_alloc_bound () =
  (* prime the arena and the cached tables so growth lands nowhere *)
  run_warm ();
  let warm = words_per_solve run_warm in
  let cold = words_per_solve run_cold in
  check_bool (Printf.sprintf "warm %.2f words/solve <= 2620" warm) true (warm <= 2620.0);
  check_bool (Printf.sprintf "cold %.2f words/solve <= 3075" cold) true (cold <= 3075.0)

(* every budget of the workload, warm-chained exactly as [run_warm]:
   50 + 477.5 i / 191 is 50 + 2.5 i in floats too *)
let test_kernel_workload_certified () =
  certify_curve "kernel workload" ~alpha:3.0 (Lazy.force kernel_inst) ~e_lo:(kernel_budget 0)
    ~e_hi:(kernel_budget (kernel_budgets - 1)) ~n:kernel_budgets

(* ---------- the frontier's storage ---------- *)

(* Frontier.build on n = 2048 (seed 13, alpha 3), then a storm of
   makespan_at queries across its 8 segments.  Measured at 12,513 words
   for the build (201 more when it runs first in its process) and 12.0
   per query, the same on every pass: the
   segments live in flat float arrays and a query reads them in place,
   so its words are the floats boxed across module calls (the energy
   in, the makespan out, and the work, energy and speed it passes
   [Power_model]).  A boxed segment list, or a query that goes through
   [segment_at] and builds a record, costs more at once. *)
let frontier_inst = lazy (Workload.equal_work ~seed:13 ~n:2048 ~work:1.0 (Workload.Poisson 1.0))

let test_frontier_words () =
  let model = Power_model.alpha 3.0 in
  let i = Lazy.force frontier_inst in
  let words f =
    let before = Gc.minor_words () in
    let v = f () in
    (Gc.minor_words () -. before, v)
  in
  let build, f = words (fun () -> Frontier.build model i) in
  let queries = 10_000 in
  let query, () =
    words (fun () ->
        for k = 0 to queries - 1 do
          ignore (Sys.opaque_identity (Frontier.makespan_at f (10.0 +. (0.05 *. float_of_int k))))
        done)
  in
  let per_query = query /. float_of_int queries in
  Alcotest.(check int) "8 segments, 7 breakpoints" 7 (List.length (Frontier.breakpoints f));
  check_bool (Printf.sprintf "build %.0f words <= 13700" build) true (build <= 13700.0);
  check_bool (Printf.sprintf "%.2f words per makespan_at <= 13.2" per_query) true
    (per_query <= 13.2)

(* ---------- work counters of the kernel workload ---------- *)

let work_counters =
  [
    "rootfind.calls";
    "rootfind.newton_iters";
    "flow.run_merges";
    "flow.window_tests";
    "rootfind.brent_iters";
  ]

let counted run =
  let was_on = Obs.enabled () in
  Obs.set_enabled true;
  let cs = List.map Obs.counter work_counters in
  let v0 = List.map Obs_metrics.value cs in
  run ();
  let got = List.map2 (fun c v -> Obs_metrics.value c - v) cs v0 in
  Obs.set_enabled was_on;
  got

(* Exact totals over the 192 solves (per solve: cold 24.1 root finds,
   97.2 Newton iterations, 152.9 merges, 100.3 window tests;
   warm-chained 20.6, 76.6, 127.7, 85.4).  Counts are deterministic
   for a given build, so a change that moves them changes the
   algorithm: the outer search (one Newton, no Brent), the pinned
   windows' warm starts, or which windows are root-found.  The merges
   equal those of a pass that root-finds every pinned window as it is
   formed (75.4 root finds and 314.1 Newton iterations per cold
   solve): the pending windows change the work, not the runs.  Re-pin
   them only with a reason. *)
let test_work_pinned () =
  List.iter
    (fun (path, run, want) ->
      List.iter2
        (fun name (got, want) ->
          Alcotest.(check int)
            (Printf.sprintf "%s, %d %s solves" name kernel_budgets path)
            want got)
        work_counters
        (List.combine (counted run) want))
    [
      ("cold", run_cold, [ 4620; 18661; 29366; 19264; 0 ]);
      ("warm-chained", run_warm, [ 3955; 14705; 24511; 16398; 0 ]);
    ]

let () =
  Alcotest.run "kernel"
    [
      ( "certificate",
        [
          Alcotest.test_case "curves certified" `Quick test_curve_certified;
          Alcotest.test_case "single budgets certified" `Quick test_single_budgets_certified;
          Alcotest.test_case "kernel workload certified" `Quick test_kernel_workload_certified;
          Alcotest.test_case "frontier sample equals IncMerge" `Quick test_sample_equals_incmerge;
        ] );
      ( "jobs-invariance",
        [
          Alcotest.test_case "curve, interleaved sizes" `Quick test_curve_jobs_invariant_interleaved;
          Alcotest.test_case "sample, interleaved sizes" `Quick test_sample_jobs_invariant_interleaved;
        ] );
      ( "scratch",
        [
          Alcotest.test_case "flow tables recurrence and growth" `Quick test_flow_tables_recurrence;
          Alcotest.test_case "warm solve allocation bound" `Quick test_warm_alloc_bound;
          Alcotest.test_case "frontier build and query words" `Quick test_frontier_words;
        ] );
      ("work", [ Alcotest.test_case "kernel workload counters pinned" `Quick test_work_pinned ]);
    ]
