(* thm8_certify: the Theorem 8 certificate — Flow_hardness.boundary_roots
   (exact elimination, Sturm isolation and refinement over Rat/Bigint)
   plus the sigma2_numeric cross-check — at the exact dyadic budgets
   11.0, 10.5 and 11.125 (0, 1 and 3 fractional bits), all inside the
   measured boundary window (10.32, 11.54).  The seed only orders the
   budgets, so every run does the same work. *)

open Pb_util

let budgets = [| 11.0; 10.5; 11.125 |]

let order ~seed =
  let a = Array.copy budgets in
  shuffle (rng ~seed ~tag:40) a;
  a

let certify energy =
  let roots = Flow_hardness.boundary_roots ~energy in
  let sigma2 = Flow_hardness.sigma2_numeric ~energy in
  (roots, Pb_check.thm8_ok ~roots ~sigma2)

(* the untimed warm-up operation of set-up: the E = 9 elimination,
   checked against the paper's polynomial *)
let warm_up () = match Pb_check.paper_identity_ok () with Ok () -> () | Error e -> fail "%s" e

(* timed phase, in the worker process: whole cycles over the three
   budgets until [seconds] *)
let timed ~seed ~seconds =
  let order = order ~seed in
  let lat = samples () in
  let attempted = ref 0 and failed = ref 0 and correct = ref 0 and cycles = ref 0 and notes = ref [] in
  let elapsed = ref 0 and budget = int_of_float (seconds *. 1e9) in
  while !elapsed < budget do
    let cycle = ref 0 in
    Array.iter
      (fun e ->
        let t0 = now_ns () in
        let _, verdict = certify e in
        let dt = now_ns () - t0 in
        cycle := !cycle + dt;
        push lat (ms_of_ns dt);
        incr attempted;
        match verdict with
        | Ok () -> incr correct
        | Error why ->
          incr failed;
          notes := Printf.sprintf "E = %g: %s" e why :: !notes)
      order;
    elapsed := !elapsed + !cycle;
    incr cycles
  done;
  let open Obs_json in
  worker_result ~attempted:!attempted ~failed:!failed
    ~ops_per_s:(float_of_int !correct /. s_of_ns !elapsed)
    ~latency:(latency_percentiles (contents lat))
    [
      ("latency_sample", String "one certification");
      ("cycles", Int !cycles);
      ("budget_order", List (Array.to_list (Array.map (fun e -> Float e) order)));
      ("timed_s", Float (s_of_ns !elapsed));
      ("failures", List (List.map (fun s -> String s) !notes));
    ]

(* ---------------- traced run ---------------- *)

(* boundary_roots decomposed into its public calls, each in a span:
   derived_polynomial, Sturm.isolate_roots, Sturm.refine_root on every
   isolating interval that meets (1, 2), then sigma2_numeric, and one
   extra Sturm.chain — the build refine_root repeats on every call.
   The roots must equal the untraced boundary_roots ones. *)
let traced_certify tr ~req energy =
  let w0 = Gc.minor_words () in
  let p =
    Pb_trace.span tr "flow_hardness.derived_polynomial" ~req (fun () ->
        Flow_hardness.derived_polynomial ~energy:(Rat.of_float_dyadic energy))
  in
  let intervals = Pb_trace.span tr "sturm.isolate_roots" ~req (fun () -> Sturm.isolate_roots p) in
  let roots =
    List.filter_map
      (fun (lo, hi) ->
        if Rat.compare hi (Rat.of_int 1) <= 0 || Rat.compare lo (Rat.of_int 2) >= 0 then None
        else
          let lo, hi =
            Pb_trace.span tr "sturm.refine_root" ~req (fun () ->
                Sturm.refine_root p ~lo ~hi ~eps:(Rat.of_ints 1 1_000_000_000))
          in
          let mid = (Rat.to_float lo +. Rat.to_float hi) /. 2.0 in
          if mid > 1.0 && mid < 2.0 then Some mid else None)
      intervals
  in
  let words = Gc.minor_words () -. w0 in
  let sigma2 =
    Pb_trace.span tr "flow_hardness.sigma2_numeric" ~req (fun () -> Flow_hardness.sigma2_numeric ~energy)
  in
  ignore (Pb_trace.span tr "sturm.chain" ~req (fun () -> Sturm.chain p));
  (roots, sigma2, words)

let run_traced ~seed ~trace_file =
  let tr = Pb_trace.create () in
  let failures = ref [] and untraced_ns = ref 0 and words = ref 0.0 in
  let order = order ~seed in
  Array.iteri
    (fun req e ->
      let t0 = now_ns () in
      let roots, verdict = certify e in
      untraced_ns := !untraced_ns + (now_ns () - t0);
      let troots, sigma2, w = traced_certify tr ~req e in
      words := !words +. w;
      let verdict =
        match (verdict, Pb_check.thm8_ok ~roots:troots ~sigma2) with
        | Error why, _ -> Error why
        | Ok (), Error why -> Error ("traced: " ^ why)
        | Ok (), Ok () -> if troots = roots then Ok () else Error "traced roots differ from boundary_roots"
      in
      match verdict with Ok () -> () | Error why -> failures := Printf.sprintf "E = %g: %s" e why :: !failures)
    order;
  Pb_trace.write_chrome tr trace_file;
  let tot = Pb_trace.totals tr in
  let ms n = float_of_int (tot n).Pb_trace.dur_ns *. 1e-6 in
  let certs = float_of_int (Array.length order) in
  let traced_path =
    ms "flow_hardness.derived_polynomial" +. ms "sturm.isolate_roots" +. ms "sturm.refine_root"
    +. ms "flow_hardness.sigma2_numeric"
  in
  let untraced = ms_of_ns !untraced_ns in
  let metrics =
    [
      m "flow_hardness.derive_ms" (ms "flow_hardness.derived_polynomial" /. certs);
      m "flow_hardness.sigma2_numeric_ms" (ms "flow_hardness.sigma2_numeric" /. certs);
      m "sturm.isolate_ms" (ms "sturm.isolate_roots" /. certs);
      m "sturm.refine_ms" (ms "sturm.refine_root" /. certs);
      m "sturm.chain_ms" (ms "sturm.chain" /. certs);
      m "sturm.words_per_certify" (!words /. certs);
      m "trace.overhead_pct" (100.0 *. (traced_path -. untraced) /. untraced);
    ]
  in
  let details =
    let open Obs_json in
    [
      ("certifications", Int (Array.length order));
      ("budget_order", List (Array.to_list (Array.map (fun e -> Float e) order)));
      ("refine_calls", Int (tot "sturm.refine_root").Pb_trace.count);
      ("spans", Int tr.Pb_trace.n);
      ("trace_file", String trace_file);
      ("failures", List (List.map (fun s -> String s) !failures));
    ]
  in
  (Array.length order, List.length !failures, metrics, details)
