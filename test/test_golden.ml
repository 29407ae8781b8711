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
    ("laptop_gantt.txt", "laptop --gantt");
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
  List.iter
    (fun args ->
      let code, _, err = run_cli args in
      Alcotest.(check int) (Printf.sprintf "%s: missing file exits 2" args) 2 code;
      Alcotest.(check bool)
        (Printf.sprintf "%s: missing file is named on stderr (stderr: %s)" args err)
        true
        (contains ~needle:"/nonexistent/" err))
    [
      "laptop --file /nonexistent/jobs.txt";
      "client --socket /nonexistent/sock --file /nonexistent/requests.ndjson";
      "soak --file /nonexistent/requests.ndjson";
    ]

(* a usage error comes before any output: stdout stays empty *)
let test_usage_error_before_output () =
  List.iter
    (fun (args, needle) ->
      let code, out, err = run_cli args in
      Alcotest.(check int) (Printf.sprintf "%s exits 2 (stderr: %s)" args err) 2 code;
      Alcotest.(check bool)
        (Printf.sprintf "%s error mentions %S (stderr: %s)" args needle err)
        true (contains ~needle err);
      Alcotest.(check string) (Printf.sprintf "%s prints nothing on stdout" args) "" out)
    [
      ("maxflow -m 0", "procs must be >= 1");
      ("sim -n 10 --procs 0", "procs must be >= 1");
      ("sim -n 10 --procs=-1", "procs must be >= 1");
      ("frontier --points 1", "must be >= 2");
      ("solve --pareto --points 1", "must be >= 2");
      ("precedence -m 0", "must be >= 1");
      ("deadline -n 0", "must be >= 1");
      ("precedence --edge-prob 2", "must be in [0, 1]");
      ("sim -n 5 --watermark=-1", "must be >= 0");
    ]

(* an injected fault in the flow solver makes Guard answer through
   flow-spt: the command prints that solver's schedule under its own
   header, with no last-speed diagnostic to read *)
let test_flow_fallback () =
  let jobs = "--jobs 0:1,0:1 --energy 12" in
  let code, out, err = run_cli ("flow --inject raise:flow@1 " ^ jobs) in
  Alcotest.(check int) (Printf.sprintf "flow on a fallback answer exits 0 (stderr: %s)" err) 0 code;
  let code, direct, err = run_cli ("solve --objective flow --solver flow-spt " ^ jobs) in
  Alcotest.(check int) (Printf.sprintf "solve --solver flow-spt exits 0 (stderr: %s)" err) 0 code;
  let body s = List.filter (fun l -> l <> "" && l.[0] <> '#') (lines s) in
  Alcotest.(check bool) "the header reports the total flow" true
    (contains ~needle:"# total flow " (List.hd (lines out)));
  Alcotest.(check (list string)) "the schedule is flow-spt's" (body direct) (body out)

(* budgets where s^alpha overflows are solved on a rescaled instance:
   the CLI answers through the flow solver itself (no fallback), and
   the header's energy (8 significant digits) is the budget *)
let test_flow_huge_budgets () =
  List.iter
    (fun e ->
      let args = "solve --objective flow --solver flow --no-fallback --jobs 0:1,0:1 --energy " ^ e in
      let code, out, err = run_cli args in
      Alcotest.(check int) (Printf.sprintf "%s exits 0 (stderr: %s)" args err) 0 code;
      let header = List.hd (lines out) in
      Alcotest.(check bool) (args ^ " answers through flow: " ^ header) true
        (contains ~needle:"# flow flow/" header);
      let energy = Scanf.sscanf header "# %_s %_s %_s flow = %_f, energy = %f" Fun.id in
      let budget = float_of_string e in
      Alcotest.(check bool) (Printf.sprintf "%s: energy %g within 1e-9" args energy) true
        (Float.abs (energy -. budget) <= 1e-9 *. budget))
    [ "1e250"; "1e300"; "1e308" ]

(* speeds of ~1e-601 have no float: a typed usage error naming the
   budget, before any output *)
let test_flow_unrepresentable_budget () =
  let args =
    "solve --objective flow --solver flow --no-fallback --alpha 1.5 --jobs 0:1,0.5:1,1:1 --energy 1e-300"
  in
  let code, out, err = run_cli args in
  Alcotest.(check int) (Printf.sprintf "%s exits 2 (stderr: %s)" args err) 2 code;
  Alcotest.(check bool) (Printf.sprintf "stderr names the budget (%s)" err) true
    (contains ~needle:"energy 1e-300" err);
  Alcotest.(check string) "nothing on stdout" "" out

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
    Alcotest.(check bool) "the solve is ok" true (Serve_protocol.reply_status solve = Some "ok");
    Alcotest.(check string) "the reordered duplicate is byte-identical apart from id"
      (after_id solve) (after_id dup);
    Alcotest.(check bool) "the malformed line is invalid-input" true
      (Serve_protocol.reply_class bad = Some "invalid-input");
    Alcotest.(check bool) "the unterminated last line gets a pong" true
      (field "pong" ping = Some (Obs_json.Bool true))
  | _ -> Alcotest.fail "unreachable: reply count checked above"

(* ---------------------------------------------------------------- *)
(* Serve wire bytes.  The captures were written by the daemon before
   ok payloads were pre-encoded (all but the speed_cap and levels pairs
   of serve_replies.txt, which record the routing that honours them),
   so these cases pin the reply, journal and checkpoint bytes across
   changes to the writer. *)

(* a golden of interleaved lines: request, then its reply *)
let request_reply_pairs name =
  let rec pairs = function
    | req :: reply :: rest -> (req, reply) :: pairs rest
    | [ "" ] | [] -> []
    | [ l ] -> Alcotest.failf "%s: request %S has no reply line" name l
  in
  pairs (lines (read_file (golden name)))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let with_temp_dir f =
  let dir = Filename.temp_file "pasched_wire" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ()) (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

(* serve the requests of [pairs] on stdin; every reply must equal its
   golden line byte for byte *)
let check_replies ~what ?(args = "") dir pairs =
  let input = Filename.concat dir "requests.ndjson" in
  write_file input (String.concat "" (List.map (fun (req, _) -> req ^ "\n") pairs));
  let code, out, err = run_cli (Printf.sprintf "serve --jobs 1 %s < %s" args (Filename.quote input)) in
  Alcotest.(check int) (Printf.sprintf "%s: serve exits 0 (stderr: %s)" what err) 0 code;
  let got = List.filter (fun l -> l <> "") (lines out) in
  Alcotest.(check int) (what ^ ": one reply per request") (List.length pairs) (List.length got);
  List.iter2
    (fun (req, want) reply ->
      Alcotest.(check string) (Printf.sprintf "%s: reply to %s" what req) want reply)
    pairs got

let test_serve_reply_md5 () =
  with_temp_dir @@ fun dir ->
  let reqs = Filename.concat dir "requests.ndjson" in
  let code, emitted, err = run_cli "sim --count 20000 --emit-requests 5" in
  Alcotest.(check int) (Printf.sprintf "sim --emit-requests exits 0 (stderr: %s)" err) 0 code;
  write_file reqs emitted;
  List.iter
    (fun args ->
      let code, out, err = run_cli (Printf.sprintf "serve %s < %s" args (Filename.quote reqs)) in
      Alcotest.(check int) (Printf.sprintf "serve %s exits 0 (stderr: %s)" args err) 0 code;
      Alcotest.(check int) (Printf.sprintf "serve %s answers 4000 lines" args) 4000
        (List.length (List.filter (fun l -> l <> "") (lines out)));
      Alcotest.(check string)
        (Printf.sprintf "MD5 of serve %s replies" args)
        "fd98ba6b204596b33497be25c9410a38"
        (Digest.to_hex (Digest.string out)))
    [ "--jobs 1"; "--jobs 1 --shards 2" ]

let test_serve_reply_golden () =
  with_temp_dir @@ fun dir ->
  check_replies ~what:"serve_replies.txt" dir (request_reply_pairs "serve_replies.txt")

(* a checkpoint plus journal written by an earlier daemon: replay must
   skip nothing, every stored request must come back as a hit equal to
   the cold reply, and the shutdown checkpoint must match the one that
   daemon wrote over the same store *)
let test_serve_store_fixture () =
  with_temp_dir @@ fun dir ->
  let store = Filename.concat dir "store" in
  write_file store (read_file (golden "serve_store_checkpoint.txt"));
  write_file (store ^ ".journal") (read_file (golden "serve_store_journal.txt"));
  let pairs = request_reply_pairs "serve_store_replies.txt" in
  check_replies ~what:"serve_store_replies.txt" ~args:("--cache-file " ^ Filename.quote store) dir pairs;
  let reply_of id =
    match List.find_opt (fun (req, _) -> contains ~needle:(Printf.sprintf {|"id":"%s"|} id) req) pairs with
    | Some (_, reply) -> Obs_json.of_string reply |> Result.get_ok
    | None -> Alcotest.failf "no %s request in the store golden" id
  in
  let int_at path doc =
    List.fold_left (fun v k -> Option.bind v (Obs_json.member k)) (Some doc) path
    |> Fun.flip Option.bind Obs_json.to_int
  in
  let solves = List.length pairs - 2 in
  Alcotest.(check (option int)) "replay skips no line" (Some 0)
    (int_at [ "health"; "journal"; "skipped_corrupt" ] (reply_of "health"));
  Alcotest.(check (option int)) "every stored request is a hit" (Some solves)
    (int_at [ "stats"; "hits" ] (reply_of "stats"));
  Alcotest.(check (option int)) "and none is a miss" (Some 0) (int_at [ "stats"; "misses" ] (reply_of "stats"));
  Alcotest.(check string) "the shutdown checkpoint is byte-identical"
    (read_file (golden "serve_store_after.txt"))
    (read_file store);
  Alcotest.(check string) "shutdown folds the journal into the checkpoint" "" (read_file (store ^ ".journal"))

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
          Alcotest.test_case "usage errors print nothing" `Quick test_usage_error_before_output;
          Alcotest.test_case "flow answers through its fallback" `Quick test_flow_fallback;
          Alcotest.test_case "flow solves huge budgets" `Quick test_flow_huge_budgets;
          Alcotest.test_case "unrepresentable flow budget exits 2" `Quick
            test_flow_unrepresentable_budget;
          Alcotest.test_case "infeasible target exits 3" `Quick test_infeasible_exit;
          Alcotest.test_case "non-convergence exits 4" `Quick test_no_convergence_exit;
          Alcotest.test_case "deadline exits 5" `Quick test_deadline_exit;
          Alcotest.test_case "solver fault exits 6" `Quick test_solver_fault_exit;
        ] );
      ( "guard-off",
        List.map
          (fun (file, args) -> Alcotest.test_case args `Quick (check_golden (file, args)))
          guard_off_variants );
      ( "serve",
        [
          Alcotest.test_case "stdin transport" `Quick test_serve_stdin;
          Alcotest.test_case "reply MD5 of 4000 emitted requests" `Quick test_serve_reply_md5;
          Alcotest.test_case "reply bytes per reply shape" `Quick test_serve_reply_golden;
          Alcotest.test_case "store fixture replay" `Quick test_serve_store_fixture;
        ] );
    ]
