(* Byte-identical CLI output lock (the refactor contract of the engine
   registry): every pre-existing subcommand, run on its historical
   arguments, must reproduce the stdout captured before the
   subcommands became registry lookups.  The captures live in
   test/golden/*.txt.

   Two fuzz captures get special treatment because the registry now
   appends derived differential properties after the 12 hand-written
   ones: `fuzz --list` is checked to start with the golden listing as
   a prefix, and the campaign golden is reproduced by naming the 12
   golden properties explicitly with --prop. *)

let exe = Pasched_exe.path ()

let golden name =
  let candidates = [ Filename.concat "golden" name; Filename.concat "test/golden" name ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail ("golden capture not found: " ^ name)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* run the CLI, returning (exit code, stdout, stderr) *)
let run_cli args =
  let out = Filename.temp_file "pasched_golden" ".out" in
  let err = Filename.temp_file "pasched_golden" ".err" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove out with Sys_error _ -> ());
      try Sys.remove err with Sys_error _ -> ())
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s > %s 2> %s" (Filename.quote exe) args (Filename.quote out)
          (Filename.quote err)
      in
      let code = Sys.command cmd in
      (code, read_file out, read_file err))

(* the jobs of Instance.figure1 with works collapsed to 1: the
   historical arguments for the equal-work-only solvers *)
let eq_jobs = "0:1,5:1,6:1"

let subcommands =
  [
    ("frontier.txt", "frontier");
    ("laptop.txt", "laptop");
    ("server.txt", "server");
    ("flow.txt", "flow --jobs " ^ eq_jobs);
    ("multi.txt", "multi --jobs " ^ eq_jobs);
    ("multi_flow.txt", "multi --flow --jobs " ^ eq_jobs);
    ("simulate.txt", "simulate");
    ("workload.txt", "workload");
    ("deadline.txt", "deadline");
    ("maxflow.txt", "maxflow");
    ("maxflow_multi.txt", "maxflow -m 2 --jobs " ^ eq_jobs);
    ("discrete.txt", "discrete");
    ("precedence.txt", "precedence");
    ("thermal.txt", "thermal");
  ]

let check_golden (file, args) () =
  let expected = read_file (golden file) in
  let code, got, err = run_cli args in
  Alcotest.(check int) (Printf.sprintf "pasched %s exits 0 (stderr: %s)" args err) 0 code;
  Alcotest.(check string) (Printf.sprintf "pasched %s output is byte-identical" args) expected got

(* the 12 hand-written properties, in registration order: the golden
   prefix of the oracle registry *)
let golden_props =
  [
    "incmerge_vs_brute"; "incmerge_vs_dp"; "frontier_vs_incmerge"; "frontier_vs_server";
    "sim_replays_plan"; "multi_cyclic_vs_brute"; "yds_optimal"; "work_scaling_energy";
    "budget_monotone"; "frontier_shape"; "flow_budget"; "outputs_validate";
  ]

let lines s = String.split_on_char '\n' s

let test_fuzz_list_prefix () =
  let expected = lines (read_file (golden "fuzz_list.txt")) in
  (* drop the trailing "" from the final newline *)
  let expected = List.filter (fun l -> l <> "") expected in
  let code, got, err = run_cli "fuzz --list" in
  Alcotest.(check int) (Printf.sprintf "fuzz --list exits 0 (stderr: %s)" err) 0 code;
  let got_lines = lines got in
  Alcotest.(check bool)
    (Printf.sprintf "fuzz --list has >= %d properties" (List.length expected))
    true
    (List.length (List.filter (fun l -> l <> "") got_lines) >= List.length expected);
  List.iteri
    (fun i want ->
      let line = try List.nth got_lines i with Failure _ -> "<missing>" in
      Alcotest.(check string) (Printf.sprintf "fuzz --list line %d (golden prefix)" (i + 1)) want line)
    expected;
  (* registry-derived properties follow the golden prefix *)
  Alcotest.(check bool) "derived engine:* properties listed" true
    (List.exists
       (fun l -> String.length l >= 7 && String.sub l 0 7 = "engine:")
       got_lines)

let test_fuzz_campaign_golden ?(extra = "") () =
  let expected = read_file (golden "fuzz_25.txt") in
  let args =
    "fuzz --seed 1 --runs 25 " ^ extra
    ^ String.concat " " (List.map (fun p -> "--prop " ^ p) golden_props)
  in
  let code, got, err = run_cli args in
  Alcotest.(check int) (Printf.sprintf "golden fuzz campaign exits 0 (stderr: %s)" err) 0 code;
  Alcotest.(check string)
    (Printf.sprintf "golden fuzz campaign output is byte-identical (%s)" args)
    expected got

(* parallel determinism at the CLI boundary: the same goldens must
   reproduce byte-for-byte with worker domains enabled.  On the 4.14
   sequential backend this degenerates to the plain golden check. *)
let jobs_variants =
  [ ("frontier.txt", "frontier --par-jobs 2"); ("frontier.txt", "frontier -j 8") ]

(* ---------------------------------------------------------------- *)
(* CLI boundary validation: every failure must be a clean one-line
   error with its class's exit code — 2 usage / invalid input,
   3 infeasible, 4 no convergence, 5 deadline, 6 solver fault — never
   an uncaught exception (exit 125, "internal error"). *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_exit ~what ~code:expected ~needle args () =
  let code, _, err = run_cli args in
  Alcotest.(check int) (Printf.sprintf "%s exits %d (stderr: %s)" what expected err) expected code;
  Alcotest.(check bool)
    (Printf.sprintf "%s error mentions %S (stderr: %s)" what needle err)
    true (contains ~needle err)

let check_usage_error ~what ~needle args = check_exit ~what ~code:2 ~needle args

let test_alpha_rejected =
  check_usage_error ~what:"laptop --alpha 1.0" ~needle:"alpha must exceed 1" "laptop --alpha 1.0"

let test_alpha_rejected_solve =
  check_usage_error ~what:"solve --alpha 0.5" ~needle:"alpha must exceed 1" "solve --alpha 0.5"

let test_unknown_solver_rejected =
  check_usage_error ~what:"solve --solver nope" ~needle:"unknown solver" "solve --solver nope"

let test_equal_work_rejected =
  (* figure1 works are 5,2,1: the equal-work-only flow solver must
     refuse with a capability error, not crash *)
  check_usage_error ~what:"flow on unequal works" ~needle:"equal-work" "flow"

let test_bad_jobs_file_rejected () =
  let code, _, err = run_cli "laptop --file /nonexistent/jobs.txt" in
  Alcotest.(check int) "missing jobs file exits 2" 2 code;
  Alcotest.(check bool)
    (Printf.sprintf "missing jobs file reports an error (stderr: %s)" err)
    true (String.length err > 0)

(* the typed guard exit codes, each triggered deterministically *)

let test_infeasible_exit =
  (* figure1's last release is 6: no energy reaches makespan 0.1 *)
  check_exit ~what:"server --makespan 0.1" ~code:3 ~needle:"infeasible" "server --makespan 0.1"

let test_no_convergence_exit =
  check_exit ~what:"flow with forced non-convergence" ~code:4 ~needle:"no convergence"
    ("flow --inject nonconv@1 --no-fallback --max-retries 0 --jobs " ^ eq_jobs)

let test_deadline_exit =
  (* a zero budget trips at the solver's first deadline poll *)
  check_exit ~what:"flow --deadline 0" ~code:5 ~needle:"deadline exceeded"
    ("flow --deadline 0 --jobs " ^ eq_jobs)

let test_solver_fault_exit =
  check_exit ~what:"flow with an injected worker exception" ~code:6 ~needle:"faulted"
    ("flow --inject raise:flow@1 --no-fallback --jobs " ^ eq_jobs)

(* with the guard features at their defaults (or explicitly disabled)
   the supervised commands must reproduce the goldens byte-for-byte *)
let guard_off_variants =
  [
    ("laptop.txt", "laptop --max-retries 0 --no-fallback");
    ("flow.txt", "flow --max-retries 0 --no-fallback --jobs " ^ eq_jobs);
    ("server.txt", "server --deadline 3600");
  ]

(* `pasched serve` without --socket: the stdin/stdout transport behind
   `pasched sim --emit-requests 5 | pasched serve` *)
let test_serve_stdin () =
  let requests =
    [
      {|{"id":1,"objective":"makespan","budget":20,"jobs":[[0,1],[0.5,2],[1,1]]}|};
      {|{"id":2,"objective":"makespan","budget":20,"jobs":[[1,1],[0,1],[0.5,2]]}|};
      {|{"id":3,"objective":"nope","budget":1,"jobs":[[0,1]]}|};
      {|{"id":4,"op":"ping"}|};
    ]
  in
  let input = Filename.temp_file "pasched_serve" ".ndjson" in
  Fun.protect ~finally:(fun () -> try Sys.remove input with Sys_error _ -> ()) @@ fun () ->
  (* the final request has no trailing newline *)
  let oc = open_out_bin input in
  output_string oc (String.concat "\n" requests);
  close_out oc;
  let code, out, err = run_cli ("serve --jobs 1 < " ^ Filename.quote input) in
  Alcotest.(check int) (Printf.sprintf "serve on stdin exits 0 (stderr: %s)" err) 0 code;
  let replies = List.filter (fun l -> l <> "") (lines out) in
  Alcotest.(check int) "one reply per request line" (List.length requests) (List.length replies);
  let field k r =
    match Obs_json.of_string r with
    | Ok doc -> Obs_json.member k doc
    | Error m -> Alcotest.failf "reply is not JSON (%s): %s" m r
  in
  List.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "reply %d carries id %d" (i + 1) (i + 1))
        true
        (field "id" r = Some (Obs_json.Int (i + 1))))
    replies;
  (* every reply opens with its id: {"id":N,... *)
  let after_id r =
    let comma = String.index r ',' in
    String.sub r comma (String.length r - comma)
  in
  match replies with
  | [ solve; dup; bad; ping ] ->
    Alcotest.(check bool) "the solve is ok" true (field "status" solve = Some (Obs_json.String "ok"));
    Alcotest.(check string) "the reordered duplicate is byte-identical apart from id"
      (after_id solve) (after_id dup);
    Alcotest.(check bool) "the malformed line is invalid-input" true
      (field "class" bad = Some (Obs_json.String "invalid-input"));
    Alcotest.(check bool) "the unterminated last line gets a pong" true
      (field "pong" ping = Some (Obs_json.Bool true))
  | _ -> Alcotest.fail "unreachable: reply count checked above"

let () =
  Alcotest.run "golden"
    [
      ( "subcommands",
        List.map
          (fun (file, args) -> Alcotest.test_case args `Quick (check_golden (file, args)))
          subcommands );
      ( "fuzz",
        [
          Alcotest.test_case "--list golden prefix" `Quick test_fuzz_list_prefix;
          Alcotest.test_case "campaign byte-identical" `Quick (test_fuzz_campaign_golden ?extra:None);
        ] );
      ( "jobs-invariance",
        Alcotest.test_case "fuzz campaign --jobs 2 byte-identical" `Quick
          (test_fuzz_campaign_golden ~extra:"--jobs 2 ")
        :: List.map
             (fun (file, args) -> Alcotest.test_case args `Quick (check_golden (file, args)))
             jobs_variants );
      ( "cli-errors",
        [
          Alcotest.test_case "alpha <= 1 rejected" `Quick test_alpha_rejected;
          Alcotest.test_case "solve alpha <= 1 rejected" `Quick test_alpha_rejected_solve;
          Alcotest.test_case "unknown solver rejected" `Quick test_unknown_solver_rejected;
          Alcotest.test_case "equal-work capability enforced" `Quick test_equal_work_rejected;
          Alcotest.test_case "bad jobs file rejected" `Quick test_bad_jobs_file_rejected;
          Alcotest.test_case "infeasible target exits 3" `Quick test_infeasible_exit;
          Alcotest.test_case "non-convergence exits 4" `Quick test_no_convergence_exit;
          Alcotest.test_case "deadline exits 5" `Quick test_deadline_exit;
          Alcotest.test_case "solver fault exits 6" `Quick test_solver_fault_exit;
        ] );
      ( "guard-off",
        List.map
          (fun (file, args) -> Alcotest.test_case args `Quick (check_golden (file, args)))
          guard_off_variants );
      ("serve", [ Alcotest.test_case "stdin transport" `Quick test_serve_stdin ]);
    ]
