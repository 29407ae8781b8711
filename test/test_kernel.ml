(* The unboxed kernel hot paths and their two contracts:

   - representation: Flow_frontier.curve and Frontier.sample are
     bitwise equal to the boxed Kernel_ref mirrors, and results are
     invariant under the Par jobs width (scratch arenas are per-domain
     but values never depend on which domain computed them);
   - economy: a warm Flow.solve_budget allocates under a third of the
     words the frozen PR6-era solver does on the kernel bench workload
     (the arena and the cached (h, hp, pw) tables absorb the per-call
     storage).

   Plus the semantic anchor: the current solver agrees with the frozen
   PR6-era one (Kernel_ref.Legacy) to root-finder precision, and the
   work counters of the kernel bench workload are pinned exactly. *)

let check_bool = Alcotest.(check bool)

let inst n = Workload.equal_work ~seed:(7 + n) ~n ~work:1.0 (Workload.Poisson 1.0)

let bits_equal name got want =
  let bits (e, v) = (Int64.bits_of_float e, Int64.bits_of_float v) in
  check_bool name true (List.map bits got = List.map bits want)

(* ---------- bitwise identity with the boxed mirrors ---------- *)

let test_curve_bitwise () =
  List.iter
    (fun (n, alpha, e_lo, e_hi) ->
      let i = inst n in
      let got = Flow_frontier.curve ~jobs:1 ~alpha i ~e_lo ~e_hi ~n:33 in
      let want = Kernel_ref.curve ~alpha i ~e_lo ~e_hi ~n:33 in
      bits_equal (Printf.sprintf "curve n=%d alpha=%g e=%g..%g" n alpha e_lo e_hi) got want)
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

let test_sample_bitwise () =
  List.iter
    (fun n ->
      let i = inst n in
      let model = Power_model.alpha 3.0 in
      let got = Frontier.sample ~jobs:1 (Frontier.build model i) ~lo:5.0 ~hi:500.0 ~n:65 in
      let want = Kernel_ref.sample (Kernel_ref.frontier_build model i) ~lo:5.0 ~hi:500.0 ~n:65 in
      bits_equal (Printf.sprintf "sample n=%d" n) got want)
    [ 1; 2; 13; 100 ]

let test_prefix_sums_unboxed_agree () =
  List.iter
    (fun n ->
      let i = inst n in
      let model = Power_model.alpha 3.0 in
      let upto = n - 2 in
      let boxed = Array.of_list (Incmerge.window_blocks i ~upto) in
      let cw, ce = Incmerge.prefix_sums model boxed in
      (* the soa store is scratch-backed: build it after the boxed walk
         and consume it before any further kernel call *)
      let cw', ce' = Incmerge.prefix_sums_fa model (Incmerge.window_soa i ~upto) in
      let eq a fa =
        Array.length a = Float.Array.length fa
        && Array.for_all Fun.id
             (Array.mapi (fun k v -> Int64.bits_of_float v = Int64.bits_of_float (Float.Array.get fa k)) a)
      in
      check_bool (Printf.sprintf "cum_work n=%d" n) true (eq cw cw');
      check_bool (Printf.sprintf "cum_energy n=%d" n) true (eq ce ce'))
    [ 2; 9; 64 ]

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

(* ---------- allocation bound on the warm path ---------- *)

(* the kernel bench workload: 192 budgets over one n=64 instance *)
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

let run_legacy () =
  let i = Lazy.force kernel_inst in
  for k = 0 to kernel_budgets - 1 do
    ignore (Kernel_ref.Legacy.solve_budget ~alpha:3.0 ~energy:(kernel_budget k) i)
  done

let words_per_solve run =
  let live () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = live () in
  run ();
  (live () -. before) /. float_of_int kernel_budgets

let test_warm_alloc_bound () =
  (* prime the arena and the cached tables so growth lands nowhere *)
  run_warm ();
  let warm = words_per_solve run_warm in
  let legacy = words_per_solve run_legacy in
  (* the warm path answers from the scratch arena: a return to
     per-evaluation run-stack allocation costs legacy-scale words *)
  check_bool
    (Printf.sprintf "warm %.0f words/solve < legacy %.0f / 3" warm legacy)
    true
    (warm < legacy /. 3.0)

(* ---------- work counters of the kernel workload ---------- *)

let run_cold () =
  let i = Lazy.force kernel_inst in
  for k = 0 to kernel_budgets - 1 do
    ignore (Flow.solve_budget ~alpha:3.0 ~energy:(kernel_budget k) i)
  done

let work_counters =
  [ "rootfind.calls"; "rootfind.newton_iters"; "flow.run_merges"; "rootfind.brent_iters" ]

let counted run =
  let was_on = Obs.enabled () in
  Obs.set_enabled true;
  let cs = List.map Obs.counter work_counters in
  let v0 = List.map Obs_metrics.value cs in
  run ();
  let got = List.map2 (fun c v -> Obs_metrics.value c - v) cs v0 in
  Obs.set_enabled was_on;
  got

(* Exact totals over the 192 solves (per solve: cold 75.4 root finds,
   314.2 Newton iterations, 153.2 merges; warm-chained 64.0, 258.0,
   127.7).  Counts are deterministic for a given build, so a change
   that moves them changes the algorithm: the outer search (one
   Newton, no Brent) or the pinned windows' warm starts.  Re-pin them
   only with a reason. *)
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
      ("cold", run_cold, [ 14482; 60322; 29414; 0 ]);
      ("warm-chained", run_warm, [ 12285; 49539; 24511; 0 ]);
    ]

(* ---------- agreement with the frozen PR6-era solver ---------- *)

let test_legacy_close () =
  let close = Oracle.close ~tol:1e-9 in
  List.iter
    (fun (n, alpha, energy) ->
      let i = inst n in
      let sol = Flow.solve_budget ~alpha ~energy i in
      let old = Kernel_ref.Legacy.solve_budget ~alpha ~energy i in
      let tag what = Printf.sprintf "%s n=%d alpha=%g e=%g" what n alpha energy in
      check_bool (tag "last_speed") true (close sol.Flow.last_speed old.Kernel_ref.Legacy.last_speed);
      check_bool (tag "flow") true (close sol.Flow.flow old.Kernel_ref.Legacy.flow);
      check_bool (tag "energy") true (close sol.Flow.energy old.Kernel_ref.Legacy.energy);
      check_bool (tag "speeds") true
        (Array.for_all2 close sol.Flow.speeds old.Kernel_ref.Legacy.speeds);
      check_bool (tag "completions") true
        (Array.for_all2 close sol.Flow.completions old.Kernel_ref.Legacy.completions))
    [ (1, 3.0, 12.0); (8, 3.0, 40.0); (64, 3.0, 160.0); (64, 2.0, 90.0); (25, 1.5, 55.0) ]

let () =
  Alcotest.run "kernel"
    [
      ( "bitwise",
        [
          Alcotest.test_case "curve equals boxed mirror" `Quick test_curve_bitwise;
          Alcotest.test_case "frontier sample equals boxed mirror" `Quick test_sample_bitwise;
          Alcotest.test_case "prefix sums boxed/unboxed agree" `Quick test_prefix_sums_unboxed_agree;
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
        ] );
      ("work", [ Alcotest.test_case "kernel workload counters pinned" `Quick test_work_pinned ]);
      ( "legacy",
        [ Alcotest.test_case "roots agree with PR6-era solver" `Quick test_legacy_close ] );
    ]
