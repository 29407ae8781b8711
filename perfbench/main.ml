(* The repository benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1

   runs workload W (serve_flow, serve_trace, sim_trace, thm8_certify)
   from seed N, checks the program's outputs, and prints one JSON
   result line last on standard output: the end-to-end metrics with
   --trace 0, the per-layer metrics of a separate traced run with
   --trace 1.  Run details (sample counts, counts the daemon reports,
   the store's filesystem, a host-drift probe) go on the line before
   it.  The exit code is 0 only when every check passed.

   sim_trace and thm8_certify run their timed phase in a fresh worker
   process (this executable with --worker), so that set-up and peak
   RSS are the workload's own. *)

open Pb_util

let workloads = [ "serve_flow"; "serve_trace"; "sim_trace"; "thm8_certify" ]

(* metric names and units of one BENCHMARK.json section: the file is
   the single list of what a run prints *)
let declared section =
  let j =
    match Obs_json.of_string (read_file "BENCHMARK.json") with
    | Ok j -> j
    | Error e -> fail "BENCHMARK.json: %s" e
    | exception Sys_error e -> fail "%s" e
  in
  let str k e = match Obs_json.member k e with Some (Obs_json.String s) -> s | _ -> fail "BENCHMARK.json: %s lacks %s" section k in
  match Obs_json.member section j with
  | Some (Obs_json.List l) -> List.map (fun e -> (str "name" e, str "unit" e)) l
  | _ -> fail "BENCHMARK.json has no %s list" section

(* ---------------- worker processes ---------------- *)

let worker ~workload ~seed ~seconds ~probe =
  let warm_up, timed =
    match workload with
    | "sim_trace" -> (Pb_sim.warm_up, Pb_sim.timed)
    | "thm8_certify" -> (Pb_thm8.warm_up, Pb_thm8.timed)
    | w -> fail "no worker for %s" w
  in
  warm_up ();
  print_endline "ready";
  if not probe then print_endline (Obs_json.to_string (timed ~seed ~seconds))

(* launch → "ready", in seconds: exec, runtime and registry
   initialization and one untimed warm-up operation *)
let spawn_worker ~workload ~seed ~seconds ~probe =
  let r, w = Unix.pipe ~cloexec:true () in
  let args =
    [ Sys.executable_name; "--worker"; workload; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%.17g" seconds ]
    @ if probe then [ "--probe" ] else []
  in
  let t0 = now_ns () in
  let pid = spawn Sys.executable_name (Array.of_list args) ~stdout:w ~stderr:Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let ready = try input_line ic with End_of_file -> "" in
  let t1 = now_ns () in
  if ready <> "ready" then begin
    close_in ic;
    ignore (wait_child pid);
    fail "%s worker failed during set-up" workload
  end;
  (pid, ic, s_of_ns (t1 - t0))

let setup_probes = 14

let run_in_worker ~workload ~seed ~seconds =
  let setups =
    List.init setup_probes (fun _ ->
        let pid, ic, s = spawn_worker ~workload ~seed ~seconds ~probe:true in
        close_in ic;
        ignore (wait_child pid);
        s)
  in
  let pid, ic, s = spawn_worker ~workload ~seed ~seconds ~probe:false in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  (match wait_child pid with
  | Some (Unix.WEXITED 0) -> ()
  | _ -> fail "%s worker exited abnormally" workload);
  let j = match Obs_json.of_string line with Ok j -> j | Error e -> fail "worker result: %s" e in
  let field k = match Obs_json.member k j with Some v -> v | None -> fail "worker result lacks %s" k in
  let num k = match field k with Obs_json.Int i -> float_of_int i | Obs_json.Float f -> f | _ -> fail "%s is not a number" k in
  let int k = match field k with Obs_json.Int i -> i | _ -> fail "%s is not an integer" k in
  let setups = Array.of_list (setups @ [ s ]) in
  let metrics =
    [
      m "setup_s" (median setups);
      m "ops_per_s" (num "ops_per_s");
      m "latency_p50_ms" (num "latency_p50_ms");
      m "latency_p99_ms" (num "latency_p99_ms");
      m "peak_rss_mb" (num "peak_rss_mb");
    ]
  in
  let details =
    ("setup_samples_s", Obs_json.List (Array.to_list (Array.map (fun s -> Obs_json.Float s) setups)))
    :: (match field "details" with Obs_json.Obj kv -> kv | _ -> [])
  in
  (int "attempted", int "failed", metrics, details)

(* ---------------- harness ---------------- *)

let drive ~workload ~seed ~seconds ~traced ~pasched =
  let declared =
    try declared (if traced then "per_layer" else "end_to_end")
    with Bench_failure e ->
      prerr_endline ("perfbench: " ^ e);
      exit 2
  in
  install_hygiene ();
  mkdir_p root;
  reap_stale_runs ();
  let dir = Filename.concat root (Printf.sprintf "r%d" (Unix.getpid ())) in
  mkdir_p dir;
  at_exit (fun () ->
      reap_all ();
      rm_rf dir);
  let trace_file = Pb_trace.trace_path ~workload ~seed in
  let serve kind =
    if traced then Pb_serve.run_traced ~kind ~seed ~seconds ~pasched ~dir ~trace_file
    else Pb_serve.run ~kind ~seed ~seconds ~pasched ~dir
  in
  let drift_before = drift_probe_ms () in
  let outcome =
    match
      Pb_check.self_test ();
      match workload with
      | "serve_flow" -> serve Pb_serve.Flow
      | "serve_trace" -> serve Pb_serve.Trace
      | "sim_trace" ->
        if traced then Pb_sim.run_traced ~seed ~seconds ~trace_file else run_in_worker ~workload ~seed ~seconds
      | _ -> if traced then Pb_thm8.run_traced ~seed ~trace_file else run_in_worker ~workload ~seed ~seconds
    with
    | r -> Ok r
    | exception Bench_failure msg -> Error msg
    | exception e -> Error (Printexc.to_string e)
  in
  let drift_after = drift_probe_ms () in
  let common =
    let open Obs_json in
    [
      ("workload", String workload);
      ("seed", Int seed);
      ("seconds", Float seconds);
      ("trace", Int (if traced then 1 else 0));
      ("drift_probe_ms", List [ Float drift_before; Float drift_after ]);
      ("cpus_allowed", String (cpus_allowed ()));
    ]
  in
  match outcome with
  | Ok (attempted, failed, metrics, details) ->
    let correct = failed = 0 && attempted > 0 in
    print_result ~correct ~attempted:(Int.max 1 attempted) ~failed ~declared
      ~details:(common @ (("self_test", Obs_json.String "passed") :: details))
      metrics;
    exit (if correct then 0 else 1)
  | Error msg ->
    Printf.eprintf "perfbench: %s\n%!" msg;
    print_result ~correct:false ~attempted:1 ~failed:1 ~declared
      ~details:(common @ [ ("error", Obs_json.String msg) ])
      [];
    exit 1

let () =
  Builtin.init ();
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let pasched = ref "_build/default/bin/pasched.exe" and worker_of = ref "" and probe = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
      ("--pasched", Arg.Set_string pasched, "PATH  daemon executable");
      ("--worker", Arg.Set_string worker_of, "W  (internal) run W's timed phase in this process");
      ("--probe", Arg.Set probe, " (internal) with --worker: stop after set-up");
    ]
  in
  let usage = "main.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !worker_of <> "" then begin
    try worker ~workload:!worker_of ~seed:!seed ~seconds:!seconds ~probe:!probe
    with Bench_failure msg ->
      Printf.eprintf "perfbench worker: %s\n%!" msg;
      exit 3
  end
  else begin
    if not (List.mem !workload workloads) then begin
      Printf.eprintf "perfbench: unknown workload %S (%s)\n" !workload (String.concat ", " workloads);
      exit 2
    end;
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "perfbench: --trace takes 0 or 1";
      exit 2
    end;
    if not (!seconds > 0.0) then begin
      prerr_endline "perfbench: --seconds must be positive";
      exit 2
    end;
    if not (Sys.file_exists !pasched) then begin
      Printf.eprintf "perfbench: no daemon executable at %s\n" !pasched;
      exit 2
    end;
    drive ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) ~pasched:!pasched
  end
