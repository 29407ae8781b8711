(* pasched.serve: protocol codec, canonical cache keys, LRU bounds,
   batched dispatch on the resident pool, and daemon-grade failure
   semantics (typed replies, never a dead loop). *)

let () = Builtin.init ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let req ?(id = 1) ?(objective = "makespan") ?budget ?target ?(pareto = false) ?points ?deadline_s
    ?solver ?alpha jobs =
  let open Obs_json in
  let fields =
    [ ("id", Int id); ("objective", String objective) ]
    @ (match budget with Some b -> [ ("budget", Float b) ] | None -> [])
    @ (match target with Some t -> [ ("target", Float t) ] | None -> [])
    @ (if pareto then [ ("pareto", Bool true) ] else [])
    @ (match points with Some p -> [ ("points", Int p) ] | None -> [])
    @ (match deadline_s with Some d -> [ ("deadline_s", Float d) ] | None -> [])
    @ (match solver with Some s -> [ ("solver", String s) ] | None -> [])
    @ (match alpha with Some a -> [ ("alpha", Float a) ] | None -> [])
    @ [ ("jobs", List (List.map (fun (r, w) -> List [ Float r; Float w ]) jobs)) ]
  in
  to_string (Obj fields)

let jobs3 = [ (0.0, 5.0); (5.0, 2.0); (6.0, 1.0) ]
let jobs3_rev = List.rev jobs3

let decode_solve line =
  match Serve_protocol.decode line with
  | Ok { Serve_protocol.op = Serve_protocol.Solve sr; _ } -> sr
  | Ok _ -> Alcotest.fail "decoded to a non-solve op"
  | Error (_, e) -> Alcotest.failf "decode failed: %s" (Guard_error.to_string e)

let decode_error line =
  match Serve_protocol.decode line with
  | Error (_, e) -> e
  | Ok _ -> Alcotest.failf "expected a decode error for %s" line

let status_of = Serve_protocol.reply_status
let class_of = Serve_protocol.reply_class

let with_shards ?(jobs = 1) ?(shards = 1) ?(cache_capacity = 32) ?max_inflight ?cache_file ?breaker
    f =
  let t = Serve_shard.create ~jobs ~shards ~cache_capacity ?max_inflight ?cache_file ?breaker () in
  Fun.protect ~finally:(fun () -> Serve_shard.shutdown t) (fun () -> f t)

(* the serve workload: 64 flow-under-budget requests on one 64-job
   equal-work instance, the budget varied per request and per pass so
   that distinct passes never share a key *)
let flow_jobs =
  lazy
    (let inst = Workload.equal_work ~seed:29 ~n:64 ~work:1.0 (Workload.Poisson 1.0) in
     let pair (j : Job.t) = Printf.sprintf "[%.17g,%.17g]" j.Job.release j.Job.work in
     "[" ^ String.concat "," (Array.to_list (Array.map pair (Instance.jobs inst))) ^ "]")

let flow_batch pass =
  List.init 64 (fun i ->
      Printf.sprintf {|{"id":%d,"objective":"flow","budget":%.17g,"jobs":%s}|} i
        (40.0 +. (0.25 *. float_of_int i) +. (100.0 *. float_of_int pass))
        (Lazy.force flow_jobs))

(* the cold passes: four batches of fresh budgets *)
let cold_passes t =
  List.concat_map (fun p -> Serve_shard.handle_batch t (flow_batch p)) [ 1; 2; 3; 4 ]

(* [counter_deltas f] runs [f ()] with instrumentation on and returns
   each counter's change across it, looked up by name *)
let counter_deltas f =
  let read () = (Obs.snapshot ()).Obs_metrics.counters in
  Obs.set_enabled true;
  let before = read () in
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f;
  let after = read () in
  fun name ->
    let v l = Option.value ~default:0 (List.assoc_opt name l) in
    v after - v before

(* ---------------- protocol ---------------- *)

let test_roundtrip () =
  let sr = decode_solve (req ~budget:10.0 jobs3_rev) in
  let line2 =
    Obs_json.to_string (Serve_protocol.solve_request_json ~id:(Obs_json.Int 1) sr)
  in
  let sr2 = decode_solve line2 in
  check_string "canonical string is an encode/decode fixed point" sr.Serve_protocol.canon
    sr2.Serve_protocol.canon;
  check_bool "hash survives the round trip" true
    (Int64.equal sr.Serve_protocol.hash sr2.Serve_protocol.hash)

let test_defaults () =
  let sr = decode_solve (req ~budget:10.0 jobs3) in
  check_bool "solver defaults to auto" true (sr.Serve_protocol.solver = None);
  check_bool "alpha defaults to 3" true (sr.Serve_protocol.problem.Problem.alpha = 3.0);
  check_int "procs defaults to 1" 1 sr.Serve_protocol.problem.Problem.procs;
  check_int "points defaults to 0" 0 sr.Serve_protocol.points;
  check_bool "no deadline by default" true (sr.Serve_protocol.deadline_s = None)

let invalid_input e =
  match e with Guard_error.Invalid_input _ -> true | _ -> false

let test_malformed_json () =
  check_bool "garbage line" true (invalid_input (decode_error "this is not json"));
  check_bool "non-object document" true (invalid_input (decode_error "[1,2,3]"));
  check_bool "truncated document" true
    (invalid_input (decode_error (String.sub (req ~budget:1.0 jobs3) 0 20)))

let test_malformed_fields () =
  check_bool "unknown op" true (invalid_input (decode_error {|{"op":"bogus"}|}));
  check_bool "missing objective" true (invalid_input (decode_error {|{"jobs":[[0,1]]}|}));
  check_bool "unknown objective" true
    (invalid_input (decode_error {|{"objective":"nope","budget":1,"jobs":[[0,1]]}|}));
  check_bool "empty jobs" true
    (invalid_input (decode_error {|{"objective":"makespan","budget":1,"jobs":[]}|}));
  check_bool "malformed job pair" true
    (invalid_input (decode_error {|{"objective":"makespan","budget":1,"jobs":[[0]]}|}))

let test_malformed_model () =
  check_bool "alpha at 1 rejected" true
    (invalid_input (decode_error {|{"objective":"makespan","budget":1,"alpha":1.0,"jobs":[[0,1]]}|}));
  check_bool "negative budget rejected" true
    (invalid_input (decode_error {|{"objective":"makespan","budget":-2,"jobs":[[0,1]]}|}));
  check_bool "budget and target exclusive" true
    (invalid_input
       (decode_error {|{"objective":"makespan","budget":1,"target":2,"jobs":[[0,1]]}|}));
  check_bool "missing mode rejected" true
    (invalid_input (decode_error {|{"objective":"makespan","jobs":[[0,1]]}|}));
  check_bool "weights arity checked" true
    (invalid_input
       (decode_error {|{"objective":"wflow","budget":1,"jobs":[[0,1],[0,2]],"weights":[1]}|}))

(* ---------------- canonical keys ---------------- *)

let test_canonical_reorder () =
  let a = decode_solve (req ~budget:10.0 jobs3) in
  let b = decode_solve (req ~budget:10.0 jobs3_rev) in
  check_string "reordered jobs share the canonical string" a.Serve_protocol.canon
    b.Serve_protocol.canon;
  check_bool "reordered jobs share the hash" true
    (Int64.equal a.Serve_protocol.hash b.Serve_protocol.hash);
  check_bool "decoded instances coincide" true
    (Array.for_all2
       (fun (x : Job.t) (y : Job.t) -> x.Job.release = y.Job.release && x.Job.work = y.Job.work)
       (Instance.jobs a.Serve_protocol.inst)
       (Instance.jobs b.Serve_protocol.inst))

let test_canonical_distinguishes () =
  let base = decode_solve (req ~budget:10.0 jobs3) in
  let probes =
    [
      ("different work", decode_solve (req ~budget:10.0 [ (0.0, 5.0); (5.0, 2.0); (6.0, 1.5) ]));
      ("different budget", decode_solve (req ~budget:11.0 jobs3));
      ("different alpha", decode_solve (req ~budget:10.0 ~alpha:2.0 jobs3));
      ("named solver", decode_solve (req ~budget:10.0 ~solver:"incmerge" jobs3));
    ]
  in
  List.iter
    (fun (what, sr) ->
      check_bool (what ^ " changes the canonical string") false
        (String.equal base.Serve_protocol.canon sr.Serve_protocol.canon))
    probes

let test_deadline_not_in_key () =
  let a = decode_solve (req ~budget:10.0 jobs3) in
  let b = decode_solve (req ~budget:10.0 ~deadline_s:5.0 jobs3) in
  check_string "deadline_s stays out of the cache key" a.Serve_protocol.canon
    b.Serve_protocol.canon

(* keys route shards and address stores: the hash of a key must never
   move.  These are the published FNV-1a-64 test vectors *)
let test_fnv_vectors () =
  List.iter
    (fun (s, h) -> check_bool (Printf.sprintf "FNV-1a-64 %S" s) true (Int64.equal h (Serve_key.hash s)))
    [ ("", 0xcbf29ce484222325L); ("a", 0xaf63dc4c8601ec8cL); ("foobar", 0x85944171f73967e8L) ];
  let key = String.init 2000 (fun i -> Char.chr (i land 0xff)) in
  ignore (Sys.opaque_identity (Serve_key.hash key));
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Serve_key.hash key));
  let words = Gc.minor_words () -. w0 in
  check_bool (Printf.sprintf "hashing 2000 bytes allocates %.0f minor words (< 64)" words) true (words < 64.0)

(* the canonical string prints every float as Printf's %h would *)
let test_canon_hex_floats () =
  let rng = Random.State.make [| 9 |] in
  let pos () =
    (* a positive finite float of any magnitude, subnormals included *)
    let x = Int64.float_of_bits (Int64.logand (Random.State.bits64 rng) 0x7FEFFFFFFFFFFFFFL) in
    if x = 0.0 then Float.succ 0.0 else x
  in
  let any () =
    match Random.State.int rng 4 with
    | 0 -> Int64.float_of_bits (Random.State.bits64 rng)
    | 1 -> Random.State.float rng 100.0
    | 2 -> -.Random.State.float rng 1e-300
    | _ -> float_of_int (Random.State.int rng 1000)
  in
  let h = Printf.sprintf "%h" in
  (* explicit rows: signed zeros, subnormals, the normal range's ends,
     powers of two, fractions with every count of trailing zero digits *)
  let rows =
    [ 0.0; -0.0; 5e-324; -5e-324; Int64.float_of_bits 0x000FFFFFFFFFFFFFL; Int64.float_of_bits 0x0008000000000000L;
      Float.min_float; -.Float.min_float; Float.max_float; -.Float.max_float; Float.epsilon; 0.1; -2.5 ]
    @ List.concat_map (fun k -> [ Float.ldexp 1.0 k; -.Float.ldexp 1.0 k ]) [ -1074; -1022; -1; 0; 1; 10; 52; 1023 ]
    @ List.init 14 (fun d -> 1.0 +. Float.ldexp 1.0 (-4 * d))
  in
  List.iter
    (fun x ->
      let p = Problem.make ~objective:Problem.Makespan ~mode:(Problem.Budget 1.0) ~alpha:2.0 () in
      check_string "canon matches Printf %h" (Printf.sprintf "solver=auto;obj=makespan;mode=budget:%s;alpha=%s;procs=1;cap=_;levels=_;points=0;jobs=%s:%s:_:_,;" (h 1.0) (h 2.0) (h x) (h x))
        (Serve_key.canon ~solver:None ~points:0 p [| (x, x) |]))
    rows;
  for _ = 1 to 300 do
    let n = 1 + Random.State.int rng 6 in
    let pairs = Array.init n (fun _ -> (any (), any ())) in
    let weights = Array.init n (fun _ -> pos ()) in
    let budget = pos () and alpha = 1.0 +. Random.State.float rng 4.0 and cap = pos () in
    let levels = [ pos (); pos () ] in
    let p =
      Problem.make ~speed_cap:cap ~levels ~weights ~objective:Problem.Weighted_flow
        ~mode:(Problem.Budget budget) ~alpha ()
    in
    let want =
      Printf.sprintf "solver=auto;obj=wflow;mode=budget:%s;alpha=%s;procs=1;cap=%s;levels=%s;points=0;jobs=%s;"
        (h budget) (h alpha) (h cap)
        (String.concat "" (List.map (fun l -> h l ^ ",") (List.sort_uniq Float.compare levels)))
        (String.concat ""
           (Array.to_list (Array.mapi (fun i (r, w) -> Printf.sprintf "%s:%s:%s:_," (h r) (h w) (h weights.(i))) pairs)))
    in
    check_string "canon matches Printf %h" want (Serve_key.canon ~solver:None ~points:0 p pairs)
  done

(* ---------------- LRU cache ---------------- *)

let payload tag = [ ("status", Obs_json.String "ok"); ("tag", Obs_json.String tag) ]

let test_lru_eviction () =
  let c = Serve_cache.create ~capacity:2 in
  let key s = (Serve_key.hash s, s) in
  let ha, ca = key "a" and hb, cb = key "b" and hc, cc = key "c" in
  Serve_cache.insert c ~hash:ha ~canon:ca (payload "a");
  Serve_cache.insert c ~hash:hb ~canon:cb (payload "b");
  Serve_cache.insert c ~hash:hc ~canon:cc (payload "c");
  let st = Serve_cache.stats c in
  check_int "size stays at the bound" 2 st.Serve_cache.size;
  check_int "one eviction recorded" 1 st.Serve_cache.evictions;
  check_bool "least-recently-used entry evicted" true
    (Serve_cache.find c ~hash:ha ~canon:ca = None);
  check_bool "recent entries survive" true
    (Serve_cache.find c ~hash:hb ~canon:cb <> None
    && Serve_cache.find c ~hash:hc ~canon:cc <> None)

let test_lru_recency () =
  let c = Serve_cache.create ~capacity:2 in
  let key s = (Serve_key.hash s, s) in
  let ha, ca = key "a" and hb, cb = key "b" and hc, cc = key "c" in
  Serve_cache.insert c ~hash:ha ~canon:ca (payload "a");
  Serve_cache.insert c ~hash:hb ~canon:cb (payload "b");
  (* freshen a: now b is the eviction victim *)
  check_bool "freshening hit" true (Serve_cache.find c ~hash:ha ~canon:ca <> None);
  Serve_cache.insert c ~hash:hc ~canon:cc (payload "c");
  check_bool "freshened entry survives" true (Serve_cache.find c ~hash:ha ~canon:ca <> None);
  check_bool "stale entry evicted" true (Serve_cache.find c ~hash:hb ~canon:cb = None)

let test_collision_safety () =
  let c = Serve_cache.create ~capacity:4 in
  let h = Serve_key.hash "whatever" in
  Serve_cache.insert c ~hash:h ~canon:"alpha" (payload "alpha");
  (* same bucket hash, different canonical string: must miss, never
     serve the other entry's payload *)
  check_bool "forged-collision probe misses" true
    (Serve_cache.find c ~hash:h ~canon:"beta" = None);
  Serve_cache.insert c ~hash:h ~canon:"beta" (payload "beta");
  (match Serve_cache.find c ~hash:h ~canon:"beta" with
  | Some p -> check_bool "newcomer owns the slot" true (p = payload "beta")
  | None -> Alcotest.fail "inserted colliding entry not found");
  check_bool "displaced entry now misses" true (Serve_cache.find c ~hash:h ~canon:"alpha" = None)

(* ---------------- serve sessions ---------------- *)

(* prime a session with one pass of [batch], then repeat it [passes]
   times: every repeat must come from the cache, with no solver entry *)
let check_warm_repeats ~jobs ~passes batch =
  with_shards ~jobs ~cache_capacity:128 @@ fun t ->
  let n = List.length batch in
  let tag what = Printf.sprintf "%s (%d requests, jobs %d)" what n jobs in
  let cold = ref [] in
  let prime = counter_deltas (fun () -> cold := Serve_shard.handle_batch t batch) in
  check_int (tag "priming pass solves every request") n (prime "engine.solves");
  let warm =
    counter_deltas (fun () ->
        for _ = 1 to passes do
          check_bool (tag "warm replies byte-identical to cold") true
            (Serve_shard.handle_batch t batch = !cold)
        done)
  in
  check_int (tag "no solve on the warm passes") 0 (warm "engine.solves");
  check_int (tag "no root find on the warm passes") 0 (warm "rootfind.calls");
  check_int (tag "every warm request hits") (passes * n) (warm "serve.cache.hit");
  check_int (tag "session stats agree") (passes * n)
    (Serve_shard.stats t).Serve_shard.cache.Serve_cache.hits

let test_warm_cache_no_solver () =
  check_warm_repeats ~jobs:1 ~passes:1 [ req ~budget:10.0 jobs3 ];
  (* the serve workload repeated, at pool widths 1 and 4 *)
  List.iter (fun jobs -> check_warm_repeats ~jobs ~passes:4 (flow_batch 0)) [ 1; 4 ]

let test_warm_cache_reordered () =
  with_shards @@ fun t ->
  let cold = Serve_shard.handle_line t (req ~budget:10.0 jobs3) in
  let warm = Serve_shard.handle_line t (req ~budget:10.0 jobs3_rev) in
  check_string "reordered repeat served from cache, byte-identical" cold warm;
  check_int "hit recorded for the reordered repeat" 1
    (Serve_shard.stats t).Serve_shard.cache.Serve_cache.hits

let test_batch_dedupe () =
  with_shards @@ fun t ->
  let line i = req ~id:i ~budget:10.0 jobs3 in
  match Serve_shard.handle_batch t [ line 1; line 2; line 3 ] with
  | [ r1; r2; r3 ] ->
    let strip r =
      match Obs_json.of_string r with
      | Ok (Obs_json.Obj fields) ->
        Obs_json.to_string (Obs_json.Obj (List.remove_assoc "id" fields))
      | _ -> Alcotest.fail "reply is not a JSON object"
    in
    check_string "duplicate replies identical modulo id" (strip r1) (strip r2);
    check_string "duplicate replies identical modulo id (3rd)" (strip r1) (strip r3);
    check_bool "each reply keeps its own id" true
      (Obs_json.member "id" (Result.get_ok (Obs_json.of_string r2)) = Some (Obs_json.Int 2))
  | rs -> Alcotest.failf "expected 3 replies, got %d" (List.length rs)

let flow12_deadline0 =
  req ~id:9 ~objective:"flow" ~budget:30.0 ~deadline_s:0.0
    (List.init 12 (fun i -> (0.1 *. float_of_int i, 1.0)))

let test_deadline_reply () =
  with_shards @@ fun t ->
  let r = Serve_shard.handle_line t flow12_deadline0 in
  check_bool "zero deadline returns an error reply" true (status_of r = Some "error");
  check_bool "classified as deadline" true (class_of r = Some "deadline");
  check_int "client exit code" 5 (Serve_client.exit_code r);
  (* the daemon must keep serving after a deadline expiry *)
  let after = Serve_shard.handle_line t (req ~budget:10.0 jobs3) in
  check_bool "daemon keeps serving after a deadline reply" true (status_of after = Some "ok");
  check_bool "deadline replies are not cached" true
    ((Serve_shard.stats t).Serve_shard.cache.Serve_cache.size = 1)

let test_jobs_invariance () =
  let batch =
    [
      req ~id:1 ~budget:10.0 jobs3;
      req ~id:2 ~objective:"flow" ~budget:12.0 [ (0.0, 1.0); (0.5, 1.0); (1.0, 1.0) ];
      req ~id:3 ~objective:"makespan" ~target:7.5 jobs3;
      req ~id:4 ~budget:9.0 [ (0.0, 2.0); (1.0, 2.0) ];
      flow12_deadline0;
    ]
  in
  let run jobs = with_shards ~jobs (fun t -> Serve_shard.handle_batch t batch) in
  List.iter2
    (fun a b -> check_string "replies independent of pool width" a b)
    (run 1) (run 4);
  (* the serve workload's cold passes: every request is solved *)
  let cold jobs =
    with_shards ~jobs ~cache_capacity:128 @@ fun t ->
    let replies = ref [] in
    let d = counter_deltas (fun () -> replies := cold_passes t) in
    check_int (Printf.sprintf "every cold request solved at jobs %d" jobs) 256 (d "engine.solves");
    !replies
  in
  check_bool "cold replies independent of pool width" true (cold 1 = cold 4)

let test_ops () =
  with_shards @@ fun t ->
  let ping = Serve_shard.handle_line t {|{"id":1,"op":"ping"}|} in
  check_bool "ping pongs" true (status_of ping = Some "ok");
  let stats = Serve_shard.handle_line t {|{"id":2,"op":"stats"}|} in
  (match Obs_json.of_string stats with
  | Ok doc -> (
    match Obs_json.member "stats" doc with
    | Some s ->
      List.iter
        (fun k -> check_bool (k ^ " present in stats") true (Obs_json.member k s <> None))
        [ "hits"; "misses"; "evictions"; "size"; "capacity"; "jobs"; "requests"; "batches" ]
    | None -> Alcotest.fail "stats reply carries no stats object")
  | Error m -> Alcotest.failf "stats reply unparseable: %s" m);
  check_bool "not stopping before shutdown" false (Serve_shard.stopping t);
  let bye = Serve_shard.handle_line t {|{"id":3,"op":"shutdown"}|} in
  check_bool "shutdown acknowledged" true (status_of bye = Some "ok");
  check_bool "stopping after shutdown" true (Serve_shard.stopping t)

let test_unknown_solver_reply () =
  with_shards @@ fun t ->
  let r = Serve_shard.handle_line t (req ~budget:10.0 ~solver:"nope" jobs3) in
  check_bool "unknown solver is an error reply" true (status_of r = Some "error");
  check_bool "classified invalid-input" true (class_of r = Some "invalid-input");
  check_int "client exit code" 2 (Serve_client.exit_code r);
  let r2 = Serve_shard.handle_line t (req ~budget:10.0 jobs3) in
  check_bool "daemon keeps serving" true (status_of r2 = Some "ok");
  check_int "ok exits 0" 0 (Serve_client.exit_code r2)

let test_pareto_reply () =
  with_shards @@ fun t ->
  let r = Serve_shard.handle_line t (req ~pareto:true ~points:5 jobs3) in
  check_bool "pareto solve is ok" true (status_of r = Some "ok");
  match Obs_json.of_string r with
  | Ok doc ->
    check_bool "breakpoints present" true (Obs_json.member "breakpoints" doc <> None);
    (match Option.bind (Obs_json.member "curve" doc) Obs_json.to_list with
    | Some samples -> check_int "curve sampled at the requested points" 5 (List.length samples)
    | None -> Alcotest.fail "curve missing from pareto reply")
  | Error m -> Alcotest.failf "pareto reply unparseable: %s" m

(* a request carrying a speed cap or speed levels and no solver goes to
   the one solver that honours the constraint; naming any other solver
   is an invalid-input reply *)
let test_constraint_routing () =
  with_shards @@ fun t ->
  let solve extra =
    Serve_shard.handle_line t
      (Printf.sprintf {|{"id":1,"objective":"makespan","budget":12,%s"jobs":[[0,5],[5,2],[6,1]]}|} extra)
  in
  let doc r = match Obs_json.of_string r with Ok d -> d | Error m -> Alcotest.failf "unparseable reply %s: %s" m r in
  let solver r = Option.bind (Obs_json.member "solver" (doc r)) Obs_json.to_string_val in
  let speeds r =
    match Option.bind (Obs_json.member "schedule" (doc r)) Obs_json.to_list with
    | Some entries ->
      List.map (fun e -> Option.get (Option.bind (Obs_json.member "speed" e) Obs_json.to_float)) entries
    | None -> Alcotest.failf "no schedule in %s" r
  in
  let capped = solve {|"speed_cap":1.5,|} in
  Alcotest.(check (option string)) "a capped request routes to bounded-speed" (Some "bounded-speed")
    (solver capped);
  List.iter (fun v -> check_bool (Printf.sprintf "speed %g within the cap 1.5" v) true (v <= 1.5)) (speeds capped);
  let levelled = solve {|"levels":[0.5,1,2],|} in
  Alcotest.(check (option string)) "a levelled request routes to discrete-makespan"
    (Some "discrete-makespan") (solver levelled);
  let named = solve {|"speed_cap":1.5,"solver":"incmerge",|} in
  Alcotest.(check (option string)) "naming a solver that ignores the cap is invalid input"
    (Some "invalid-input") (class_of named)

(* ---------------- encode once ---------------- *)

(* a pool worker prints an ok payload once: status and solver stay
   strings, every other member is Raw, and the reply and the journal
   line copy those bytes without printing a float *)
let test_encode_once () =
  let sr = decode_solve (List.hd (flow_batch 1)) in
  let r =
    match Engine.supporting sr.Serve_protocol.problem sr.Serve_protocol.inst with
    | s :: _ -> Engine.solve_with s sr.Serve_protocol.problem sr.Serve_protocol.inst
    | [] -> Alcotest.fail "no solver accepts the 64-job flow request"
  in
  let payload = Serve_protocol.ok_payload ~points:0 r in
  check_bool "members past status and solver are pre-encoded" true
    (List.for_all
       (function
         | ("status" | "solver"), Obs_json.String _ -> true
         | _, Obs_json.Raw _ -> true
         | _ -> false)
       payload);
  let per_byte what f =
    ignore (Sys.opaque_identity (f ()));
    let w0 = Gc.minor_words () in
    let s = f () in
    let words = Gc.minor_words () -. w0 in
    check_bool
      (Printf.sprintf "%s: %.0f minor words for %d bytes (at most 1.5 per byte)" what words
         (String.length s))
      true
      (words <= 1.5 *. float_of_int (String.length s));
    s
  in
  let id = Obs_json.Int 7 in
  let reply = per_byte "reply_string" (fun () -> Serve_protocol.reply_string ~id payload) in
  let line =
    per_byte "encode_line" (fun () -> Serve_journal.encode_line ~canon:sr.Serve_protocol.canon payload)
  in
  check_bool "the reply carries the whole schedule" true (String.length reply > 4000);
  (* a replayed entry is a parsed tree again: it prints the same bytes *)
  match Serve_journal.decode_line line with
  | Some (_, restored) ->
    check_string "a restored entry prints the cold reply" reply (Serve_protocol.reply_string ~id restored);
    check_string "and the same journal line" line
      (Serve_journal.encode_line ~canon:sr.Serve_protocol.canon restored)
  | None -> Alcotest.fail "the journal line does not decode"

(* ---------------- the resident pool ---------------- *)

let test_pool_determinism () =
  let pool = Par.Pool.create ~jobs:4 () in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) @@ fun () ->
  let expect = Array.init 100 (fun i -> i * i) in
  check_bool "pool init matches Array.init" true
    (Par.Pool.init pool 100 (fun i -> i * i) = expect);
  check_bool "pool reuse across batches" true
    (Par.Pool.init pool 37 (fun i -> 3 * i) = Array.init 37 (fun i -> 3 * i))

let test_pool_exception () =
  let pool = Par.Pool.create ~jobs:4 () in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) @@ fun () ->
  (match Par.Pool.init pool 64 (fun i -> if i >= 10 then failwith (string_of_int i) else i) with
  | _ -> Alcotest.fail "expected the lowest-index failure to propagate"
  | exception Failure msg -> check_string "lowest-index exception wins" "10" msg);
  check_bool "pool survives a failed batch" true
    (Par.Pool.init pool 5 (fun i -> i) = [| 0; 1; 2; 3; 4 |])

let test_pool_shutdown_degrades () =
  let pool = Par.Pool.create ~jobs:4 () in
  Par.Pool.shutdown pool;
  Par.Pool.shutdown pool;
  check_bool "post-shutdown init runs sequentially" true
    (Par.Pool.init pool 8 (fun i -> i + 1) = Array.init 8 (fun i -> i + 1))

(* ---------------- sharded front end ---------------- *)

let test_route_determinism () =
  let hashes =
    List.init 64 (fun i -> Serve_key.hash (Printf.sprintf "probe-%d" (i * 7919)))
  in
  List.iter
    (fun h ->
      List.iter
        (fun shards ->
          let s = Serve_shard.route ~hash:h ~shards in
          check_bool "route lands in [0, shards)" true (s >= 0 && s < shards);
          check_int "route is a pure function of (hash, shards)" s
            (Serve_shard.route ~hash:h ~shards))
        [ 1; 2; 3; 4; 7 ];
      check_int "one shard routes everything to 0" 0 (Serve_shard.route ~hash:h ~shards:1))
    hashes

let test_route_monotone () =
  (* jump-hash contract: growing n -> n+1 only moves keys onto the new
     shard, never between old ones *)
  let hashes = List.init 256 (fun i -> Serve_key.hash (string_of_int i)) in
  List.iter
    (fun shards ->
      List.iter
        (fun h ->
          let before = Serve_shard.route ~hash:h ~shards in
          let after = Serve_shard.route ~hash:h ~shards:(shards + 1) in
          check_bool "key stays put or moves to the new shard" true
            (after = before || after = shards))
        hashes)
    [ 1; 2; 3; 4 ]

let test_shard_transparency () =
  let lines = List.init 6 (fun i -> req ~id:i ~budget:(8.0 +. float_of_int i) jobs3) in
  let run shards =
    with_shards ~shards @@ fun t ->
    let cold = Serve_shard.handle_batch t lines in
    let warm = Serve_shard.handle_batch t lines in
    let st = Serve_shard.stats t in
    (cold, warm, st)
  in
  let cold1, warm1, st1 = run 1 in
  let cold3, warm3, st3 = run 3 in
  check_bool "cold replies byte-identical 1 vs 3 shards" true
    (List.equal String.equal cold1 cold3);
  check_bool "warm replies byte-identical 1 vs 3 shards" true
    (List.equal String.equal warm1 warm3);
  check_bool "repeats answered from cache" true (List.equal String.equal cold1 warm1);
  check_int "every repeat hits at 1 shard" 6 st1.Serve_shard.cache.Serve_cache.hits;
  check_int "every repeat hits at 3 shards" 6 st3.Serve_shard.cache.Serve_cache.hits;
  check_bool "3 shards spread the working set" true
    (Array.exists (fun (s : Serve_cache.stats) -> s.Serve_cache.size > 0)
       st3.Serve_shard.per_shard
    && Array.length st3.Serve_shard.per_shard = 3);
  (* the serve workload at 1, 2 and 4 shards: 4 cold passes, then a
     warm repeat that each shard count answers from its caches.  A
     request's minor words are exact and the same on every run: 18,524
     cold and 1,975 warm at 1 shard, within 5 of that at 2 and 4
     (decode, key, solve and encode for a miss; decode and key for a
     hit).  A second decode per request (1,806 words) or a copy moves
     them past the bounds at once. *)
  let serve shards =
    with_shards ~shards ~cache_capacity:128 @@ fun t ->
    let cold_batches = List.map flow_batch [ 1; 2; 3; 4 ] and repeat = flow_batch 4 in
    let words_per_request batches =
      Obs.set_enabled false;
      let before = Gc.minor_words () in
      let replies = List.concat_map (Serve_shard.handle_batch t) batches in
      let words = Gc.minor_words () -. before in
      (words /. float_of_int (List.length replies), replies)
    in
    let cold_words, cold = words_per_request cold_batches in
    let warm_words, _ = words_per_request [ repeat ] in
    check_bool
      (Printf.sprintf "%.1f words per cold request at %d shards <= 19900" cold_words shards)
      true (cold_words <= 19900.0);
    check_bool
      (Printf.sprintf "%.1f words per warm hit at %d shards <= 2170" warm_words shards)
      true (warm_words <= 2170.0);
    let d = counter_deltas (fun () -> ignore (Serve_shard.handle_batch t repeat)) in
    check_int (Printf.sprintf "repeat all hits at %d shards" shards) 64 (d "serve.cache.hit");
    cold
  in
  let serve1 = serve 1 in
  List.iter
    (fun shards ->
      check_bool
        (Printf.sprintf "serve workload replies byte-identical 1 vs %d shards" shards)
        true
        (serve shards = serve1))
    [ 2; 4 ]

let test_busy_shed () =
  with_shards ~shards:1 ~max_inflight:1 @@ fun t ->
  let lines = List.init 3 (fun i -> req ~id:i ~budget:(8.0 +. float_of_int i) jobs3) in
  (match Serve_shard.handle_batch t lines with
  | [ r1; r2; r3 ] ->
    check_bool "first request admitted" true (status_of r1 = Some "ok");
    check_bool "second shed busy" true (status_of r2 = Some "busy");
    check_bool "third shed busy" true (status_of r3 = Some "busy");
    check_bool "busy reply carries the busy class" true (class_of r2 = Some "busy");
    check_int "busy exits 7" 7 (Serve_client.exit_code r2);
    check_bool "busy reply echoes its id" true
      (match Obs_json.of_string r2 with
      | Ok doc -> Obs_json.member "id" doc = Some (Obs_json.Int 1)
      | Error _ -> false)
  | _ -> Alcotest.fail "expected three replies");
  let st = Serve_shard.stats t in
  check_int "shed counted" 2 st.Serve_shard.shed;
  check_int "admission bound reported" 1 st.Serve_shard.max_inflight;
  (* the daemon never dies: the shed key solves fine on retry *)
  check_bool "retry of a shed request succeeds" true
    (status_of (Serve_shard.handle_line t (List.nth lines 1)) = Some "ok");
  (* overload: 2 shards admit 8 requests each
     per batch, so 4 passes of 64 shed 48 apiece *)
  with_shards ~shards:2 ~max_inflight:8 ~cache_capacity:128 @@ fun t ->
  let d = counter_deltas (fun () -> ignore (cold_passes t)) in
  check_int "overload sheds 192" 192 (d "serve.shed");
  check_int "overload shed in stats" 192 (Serve_shard.stats t).Serve_shard.shed

let snapshot_file = Filename.temp_file "pasched_serve" ".cache"

let test_snapshot_roundtrip () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let c_root = Obs.counter "rootfind.calls" in
  let line = req ~budget:10.0 jobs3 in
  let cold =
    with_shards ~shards:1 ~cache_file:snapshot_file @@ fun t ->
    Serve_shard.handle_line t line
  in
  (* shutdown (via with_shards) snapshotted the cache; a fresh daemon
     at a different shard count warms from it *)
  check_bool "snapshot file written" true (Sys.file_exists snapshot_file);
  let roots_after_cold = Obs_metrics.value c_root in
  let warm, hits =
    with_shards ~shards:3 ~cache_file:snapshot_file @@ fun t ->
    let w = Serve_shard.handle_line t line in
    (w, (Serve_shard.stats t).Serve_shard.cache.Serve_cache.hits)
  in
  check_string "warm reply byte-identical across restart and reshard" cold warm;
  check_int "no solver re-entry on the warmed path" roots_after_cold
    (Obs_metrics.value c_root);
  check_int "restart answered from the persisted cache" 1 hits;
  Sys.remove snapshot_file

let test_snapshot_tolerant () =
  let file = Filename.temp_file "pasched_serve_garbage" ".cache" in
  let oc = open_out file in
  output_string oc "this is not json\n{\"canon\": 42}\n{\"payload\": {}}\n";
  close_out oc;
  (* malformed snapshot lines are skipped, never fatal *)
  (with_shards ~shards:2 ~cache_file:file @@ fun t ->
   check_int "garbage snapshot loads nothing" 0
     (Serve_shard.stats t).Serve_shard.cache.Serve_cache.size;
   check_bool "daemon still serves" true
     (status_of (Serve_shard.handle_line t (req ~budget:10.0 jobs3)) = Some "ok"));
  Sys.remove file

(* ---------------- write-ahead journal ---------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let rm_f path = try Sys.remove path with Sys_error _ -> ()

let with_store f =
  let path = Filename.temp_file "pasched_journal" ".cache" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      rm_f path;
      rm_f (path ^ ".journal");
      rm_f (path ^ ".tmp"))
    (fun () -> f path)

let jpayload i = [ ("status", Obs_json.String "ok"); ("n", Obs_json.Int i) ]

let build_journal path k =
  let j = Serve_journal.open_ ~compact_every:0 ~path () in
  for i = 0 to k - 1 do
    Serve_journal.append j ~canon:(Printf.sprintf "key-%d" i) (jpayload i)
  done;
  (* close without compacting: on-disk state is exactly what a SIGKILL
     after the last flush would leave *)
  Serve_journal.close j

let replay_counts path =
  let j = Serve_journal.open_ ~compact_every:0 ~path () in
  let seen = ref [] in
  Serve_journal.replay j (fun ~canon payload -> seen := (canon, payload) :: !seen);
  let st = Serve_journal.stats j in
  Serve_journal.close j;
  (List.rev !seen, st)

(* the bytewise CRC-32 that slicing-by-8 replaced, kept as the reference *)
let reference_crc32 s =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  String.iter (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8)) s;
  !c lxor 0xFFFFFFFF

let test_crc_vector () =
  check_int "IEEE CRC-32 check vector" 0xCBF43926 (Serve_journal.crc32 "123456789");
  check_int "empty string" 0 (Serve_journal.crc32 "");
  (* every length 0..2000 covers each tail mod 8 behind each number of
     eight-byte steps *)
  let rng = Random.State.make [| 32 |] in
  let bytes = String.init 2000 (fun _ -> Char.chr (Random.State.int rng 256)) in
  for len = 0 to 2000 do
    let s = String.sub bytes (2000 - len) len in
    if Serve_journal.crc32 s <> reference_crc32 s then Alcotest.failf "crc32 differs from the bytewise reference at length %d" len
  done

let test_frame_roundtrip () =
  let payload = jpayload 7 in
  let line = Serve_journal.encode_line ~canon:"some key; with=punct" payload in
  (match Serve_journal.decode_line line with
  | Some (canon, p) ->
    check_string "canon survives the frame" "some key; with=punct" canon;
    check_bool "payload survives the frame" true (p = payload)
  | None -> Alcotest.fail "intact frame rejected");
  (* single-character corruption anywhere must be caught *)
  String.iteri
    (fun i _ ->
      let b = Bytes.of_string line in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      match Serve_journal.decode_line (Bytes.to_string b) with
      | None -> ()
      | Some _ -> Alcotest.failf "bit flip at %d went undetected" i)
    line;
  check_bool "truncation detected" true
    (Serve_journal.decode_line (String.sub line 0 (String.length line - 3)) = None);
  check_bool "garbage detected" true (Serve_journal.decode_line "not a frame" = None);
  check_bool "empty rejected" true (Serve_journal.decode_line "" = None)

let test_journal_replay_roundtrip () =
  with_store @@ fun path ->
  build_journal path 5;
  let seen, st = replay_counts path in
  check_int "all five entries replay" 5 (List.length seen);
  check_int "stats.replayed" 5 st.Serve_journal.replayed;
  check_int "stats.skipped_corrupt" 0 st.Serve_journal.skipped_corrupt;
  check_bool "entries replay in append order with payloads intact" true
    (List.mapi (fun i (c, p) -> c = Printf.sprintf "key-%d" i && p = jpayload i) seen
    |> List.for_all Fun.id)

let test_journal_torn_tail () =
  with_store @@ fun path ->
  build_journal path 4;
  let jf = path ^ ".journal" in
  let s = read_file jf in
  (* crash mid-write: the last line loses its tail (and newline) *)
  write_file jf (String.sub s 0 (String.length s - 9));
  let seen, st = replay_counts path in
  check_int "intact prefix replays" 3 (List.length seen);
  check_int "torn tail counted as corrupt" 1 st.Serve_journal.skipped_corrupt

let test_journal_bitflip () =
  with_store @@ fun path ->
  build_journal path 4;
  let jf = path ^ ".journal" in
  let s = read_file jf in
  (* flip one payload bit in the second line: CRC catches it, the
     other three lines still load *)
  let nl1 = String.index s '\n' in
  let b = Bytes.of_string s in
  Bytes.set b (nl1 + 30) (Char.chr (Char.code (Bytes.get b (nl1 + 30)) lxor 1));
  write_file jf (Bytes.to_string b);
  let seen, st = replay_counts path in
  check_int "three of four entries replay" 3 (List.length seen);
  check_int "flipped line counted" 1 st.Serve_journal.skipped_corrupt

let test_journal_duplicate_line () =
  with_store @@ fun path ->
  build_journal path 3;
  let jf = path ^ ".journal" in
  let s = read_file jf in
  let nl1 = String.index s '\n' in
  write_file jf (s ^ String.sub s 0 (nl1 + 1));
  let seen, st = replay_counts path in
  check_int "duplicated line replays twice (idempotent insert)" 4 (List.length seen);
  check_int "a duplicate is not corruption" 0 st.Serve_journal.skipped_corrupt;
  check_string "the re-replayed entry is the first key" "key-0"
    (fst (List.nth seen 3))

let test_journal_zero_length () =
  with_store @@ fun path ->
  write_file (path ^ ".journal") "";
  let seen, st = replay_counts path in
  check_int "nothing to replay" 0 (List.length seen);
  check_int "nothing corrupt" 0 st.Serve_journal.skipped_corrupt;
  check_int "no checkpoint is fine too" 0 st.Serve_journal.replayed

let test_journal_layering () =
  with_store @@ fun path ->
  (* checkpoint says v1, journal says v2: the journal wins by replaying
     last, exactly like the LRU insert it records *)
  Serve_journal.write_checkpoint ~path
    ~entries:[ ("shared", jpayload 1); ("only-ckpt", jpayload 10) ];
  let j = Serve_journal.open_ ~compact_every:0 ~path () in
  Serve_journal.append j ~canon:"shared" (jpayload 2);
  Serve_journal.close j;
  let seen, st = replay_counts path in
  check_int "checkpoint plus journal" 3 (List.length seen);
  check_int "replayed counts both layers" 3 st.Serve_journal.replayed;
  (match List.rev seen with
  | ("shared", p) :: _ -> check_bool "journal entry replays last and wins" true (p = jpayload 2)
  | _ -> Alcotest.fail "journal entry did not replay last")

let count_lines path =
  match read_file path with
  | s -> List.length (List.filter (( <> ) "") (String.split_on_char '\n' s))
  | exception Sys_error _ -> -1

(* Stepwise: a compaction of 2 live entries takes ⌈2/32⌉ + 3 = 4
   steps.  The trigger rotates the journal and opens the tmp, one slice
   writes both lines, then the tmp's fsync, then the rename, the
   directory fsync and the unlink; appends meanwhile land in the new
   journal, and the lag they make survives the fold.  [compact] does
   it all at once: one flush, two fsyncs, a truncated journal. *)
let test_journal_compaction () =
  with_store @@ fun path ->
  let j = Serve_journal.open_ ~compact_every:3 ~path () in
  Serve_journal.append j ~canon:"a" (jpayload 1);
  Serve_journal.append j ~canon:"b" (jpayload 2);
  check_bool "below the lag threshold" false (Serve_journal.needs_compact j);
  Serve_journal.append j ~canon:"c" (jpayload 3);
  check_bool "lag threshold reached" true (Serve_journal.needs_compact j);
  Serve_journal.flush j;
  let entries = [ ("a", jpayload 1); ("c", jpayload 3) ] in
  let step () = counter_deltas (fun () -> Serve_journal.step j ~entries:(fun () -> entries)) in
  let files () =
    List.map (fun ext -> count_lines (path ^ ext)) [ ""; ".journal.old"; ".journal"; ".tmp" ]
  in
  let d = step () in
  check_bool "trigger: journal rotated, tmp opened, no checkpoint yet" true (files () = [ -1; 3; 0; 0 ]);
  check_int "trigger: no fsync" 0 (d "serve.journal.fsyncs");
  Serve_journal.append j ~canon:"d" (jpayload 4);
  Serve_journal.flush j;
  let d = step () in
  check_bool "slice: both lines in the tmp, the append in the new journal" true
    (files () = [ -1; 3; 1; 2 ]);
  check_int "slice: two checkpoint lines" 2 (d "serve.journal.checkpoint_lines");
  check_int "slice: no fsync" 0 (d "serve.journal.fsyncs");
  let d = step () in
  check_int "sync: the tmp's fsync" 1 (d "serve.journal.fsyncs");
  let d = step () in
  check_bool "install: checkpoint in place, rotated journal gone" true (files () = [ 2; -1; 1; -1 ]);
  check_int "install: the directory's fsync" 1 (d "serve.journal.fsyncs");
  check_int "install: compaction counted" 1 (d "serve.journal.compactions");
  let st = Serve_journal.stats j in
  check_int "compaction counted" 1 st.Serve_journal.compactions;
  check_int "the append made during the compaction is the lag left" 1 st.Serve_journal.lag;
  let d = step () in
  check_int "idle below the threshold" 0 (d "serve.journal.fsyncs" + d "serve.journal.compactions");
  Serve_journal.close j;
  let seen, st2 = replay_counts path in
  check_int "nothing corrupt" 0 st2.Serve_journal.skipped_corrupt;
  check_bool "replay order is checkpoint then journal" true (List.map fst seen = [ "a"; "c"; "d" ]);
  (* the whole path *)
  let j = Serve_journal.open_ ~compact_every:3 ~path () in
  Serve_journal.replay j (fun ~canon:_ _ -> ());
  Serve_journal.append j ~canon:"e" (jpayload 5);
  let d =
    counter_deltas (fun () -> Serve_journal.compact j ~entries:[ ("c", jpayload 3); ("e", jpayload 5) ])
  in
  check_int "compact flushes the pending append once" 1 (d "serve.journal.flushes");
  check_int "compact fsyncs the checkpoint file and its directory" 2 (d "serve.journal.fsyncs");
  check_int "compact writes every line" 2 (d "serve.journal.checkpoint_lines");
  check_int "lag folded away" 0 (Serve_journal.stats j).Serve_journal.lag;
  Serve_journal.close j;
  check_bool "compact truncates the journal" true (files () = [ 2; -1; 0; -1 ])

(* A 256-entry cache compacted every 256 appends, fed 40 batches of 32
   fresh requests, goes through three stepwise compactions.  Each takes
   ⌈256/32⌉ + 3 = 11 batches counting its trigger, writes no more than
   32 checkpoint lines in a batch and fsyncs twice (three times under
   --fsync, beside the one fsync of every batch's flush); without
   --fsync no batch fsyncs more than once, and the store never holds
   more than 2L + K + 2b(⌈L/32⌉ + 3) = 1472 lines. *)
let test_compaction_pins () =
  List.iter
    (fun fsync ->
      with_store @@ fun path ->
      let t = Serve_shard.create ~jobs:1 ~cache_capacity:256 ~compact_every:256 ~fsync ~cache_file:path () in
      Fun.protect ~finally:(fun () -> Serve_shard.abort t) @@ fun () ->
      let mode = if fsync then "--fsync" else "default" in
      let trigger = ref (-1) and fsyncs = ref 0 and completed = ref 0 and most = ref 0 in
      for b = 0 to 39 do
        let lines =
          List.init 32 (fun k ->
              req ~id:k ~budget:(10.0 +. (0.0625 *. float_of_int ((32 * b) + k))) jobs3)
        in
        let d = counter_deltas (fun () -> ignore (Serve_shard.handle_batch t lines)) in
        let on_disk =
          List.fold_left
            (fun acc ext -> acc + Int.max 0 (count_lines (path ^ ext)))
            0 [ ""; ".journal.old"; ".journal"; ".tmp" ]
        in
        most := Int.max !most on_disk;
        if on_disk > 1472 then Alcotest.failf "%s: batch %d leaves %d lines on disk" mode b on_disk;
        if d "serve.journal.checkpoint_lines" > 32 then
          Alcotest.failf "%s: batch %d writes %d checkpoint lines" mode b (d "serve.journal.checkpoint_lines");
        if (not fsync) && d "serve.journal.fsyncs" > 1 then
          Alcotest.failf "%s: batch %d fsyncs %d times" mode b (d "serve.journal.fsyncs");
        if !trigger < 0 && Sys.file_exists (path ^ ".journal.old") then begin
          trigger := b;
          fsyncs := 0
        end;
        if !trigger >= 0 then fsyncs := !fsyncs + d "serve.journal.fsyncs" - if fsync then 1 else 0;
        if d "serve.journal.compactions" = 1 then begin
          check_int (Printf.sprintf "%s: compaction %d takes 11 batches" mode !completed) 11 (b - !trigger + 1);
          check_int (Printf.sprintf "%s: compaction %d fsyncs" mode !completed) (if fsync then 3 else 2) !fsyncs;
          incr completed;
          trigger := -1
        end
      done;
      check_int (mode ^ ": three compactions") 3 !completed;
      check_bool (Printf.sprintf "%s: the store reached %d lines" mode !most) true (!most > 1000))
    [ false; true ]

(* appends wait in the channel until the batch's flush: nothing
   reaches the file before it, one flush pushes them all, and only a
   store opened with [fsync] syncs *)
let test_journal_append_buffered () =
  List.iter
    (fun fsync ->
      with_store @@ fun path ->
      let j = Serve_journal.open_ ~fsync ~compact_every:0 ~path () in
      let jf = path ^ ".journal" in
      let d =
        counter_deltas (fun () ->
            for i = 0 to 2 do
              Serve_journal.append j ~canon:(Printf.sprintf "key-%d" i) (jpayload i)
            done;
            check_int "appends not yet on disk before the flush" 0 (String.length (read_file jf));
            Serve_journal.flush j;
            (* a flush with nothing pending does nothing *)
            Serve_journal.flush j)
      in
      Serve_journal.close j;
      check_int "three lines on disk after the flush" 3
        (List.length (String.split_on_char '\n' (read_file jf)) - 1);
      check_int "one flush for the batch" 1 (d "serve.journal.flushes");
      check_int (Printf.sprintf "fsyncs with fsync=%b" fsync) (if fsync then 1 else 0)
        (d "serve.journal.fsyncs"))
    [ false; true ]

(* A journal of 10^3 or 10^4 lines replays at the same words per line,
   and an append costs a fixed number: measured at 408.9 and 409.9
   words per replayed line and 115.0 per append, the same on every run.
   A replay that gathers its lines with [@] before inserting them, or
   an append that formats through a second buffer, breaks these at
   once. *)
let test_journal_replay_linear () =
  let payload i =
    [ ("status", Obs_json.String "ok"); ("value", Obs_json.Float (float_of_int i)) ]
  in
  let run entries =
    with_store @@ fun path ->
    let canons = Array.init entries (Printf.sprintf "key-%d") in
    let payloads = Array.init entries payload in
    let j = Serve_journal.open_ ~compact_every:0 ~path () in
    let before = Gc.minor_words () in
    for i = 0 to entries - 1 do
      Serve_journal.append j ~canon:canons.(i) payloads.(i)
    done;
    let append_words = (Gc.minor_words () -. before) /. float_of_int entries in
    (* close without compaction: the on-disk state a SIGKILL leaves *)
    Serve_journal.close j;
    let j2 = Serve_journal.open_ ~compact_every:0 ~path () in
    let cache = Serve_cache.create ~capacity:entries in
    let before = Gc.minor_words () in
    Serve_journal.replay j2 (fun ~canon payload ->
        Serve_cache.insert cache ~hash:(Serve_key.hash canon) ~canon payload);
    let replay_words = (Gc.minor_words () -. before) /. float_of_int entries in
    let st = Serve_journal.stats j2 in
    Serve_journal.close j2;
    check_int (Printf.sprintf "%d lines replayed" entries) entries st.Serve_journal.replayed;
    check_int "a clean journal has no corrupt line" 0 st.Serve_journal.skipped_corrupt;
    check_int "replay fills the cache" entries (Serve_cache.stats cache).Serve_cache.size;
    (append_words, replay_words)
  in
  let append3, replay3 = run 1_000 in
  let append4, replay4 = run 10_000 in
  List.iter
    (fun (n, w) ->
      check_bool (Printf.sprintf "%.1f words per append at %s lines <= 126" w n) true (w <= 126.0))
    [ ("10^3", append3); ("10^4", append4) ];
  check_bool (Printf.sprintf "%.1f words per replayed line <= 450" replay4) true (replay4 <= 450.0);
  check_bool
    (Printf.sprintf "words per replayed line equal at 10^3 and 10^4: %.1f vs %.1f" replay3 replay4)
    true
    (Float.abs (replay4 -. replay3) <= 0.01 *. replay3)

(* Every truncation, every byte flipped three ways, and every line
   duplicated at every position, of a 3-entry journal: replay never
   raises, replays exactly the lines that survive intact when the file
   is split on newlines, in order, and counts every other non-empty
   line as corrupt. *)
let test_journal_replay_sweep () =
  with_store @@ fun path ->
  build_journal path 3;
  let jf = path ^ ".journal" in
  let clean = read_file jf in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' clean) in
  check_int "3-entry journal is 231 bytes" 231 (String.length clean);
  let entry line =
    match Serve_journal.decode_line line with
    | Some e -> e
    | None -> Alcotest.fail "a clean journal line does not decode"
  in
  let case what contents =
    write_file jf contents;
    let pieces = List.filter (( <> ) "") (String.split_on_char '\n' contents) in
    let intact, corrupt = List.partition (fun p -> List.mem p lines) pieces in
    match replay_counts path with
    | exception e -> Alcotest.failf "%s: replay raised %s" what (Printexc.to_string e)
    | seen, st ->
      if seen <> List.map entry intact || st.Serve_journal.skipped_corrupt <> List.length corrupt
      then
        Alcotest.failf "%s: replayed %d (want %d), skipped %d (want %d)" what (List.length seen)
          (List.length intact) st.Serve_journal.skipped_corrupt (List.length corrupt)
  in
  let n = String.length clean in
  for len = 0 to n do
    case (Printf.sprintf "truncated to %d bytes" len) (String.sub clean 0 len)
  done;
  for i = 0 to n - 1 do
    List.iter
      (fun x ->
        let b = Bytes.of_string clean in
        Bytes.set b i (Char.chr (Char.code clean.[i] lxor x));
        case (Printf.sprintf "byte %d xor 0x%02x" i x) (Bytes.to_string b))
      [ 0x01; 0x20; 0x80 ]
  done;
  List.iteri
    (fun k line ->
      for pos = 0 to List.length lines do
        let before = List.filteri (fun i _ -> i < pos) lines
        and after = List.filteri (fun i _ -> i >= pos) lines in
        case
          (Printf.sprintf "line %d duplicated at %d" k pos)
          (String.concat "" (List.map (fun l -> l ^ "\n") (before @ [ line ] @ after)))
      done)
    lines

(* ---------------- compaction: a crash or an I/O fault at every step ---------------- *)

exception Crash

(* The sweep's store: cache 8, compaction every 8 appends, batches of
   4 lines.  A batch holds 4 fresh makespan requests, or 1 and 3 pings,
   in the pattern 4 4 1 1 1, so that entries of a compaction's snapshot
   outlive its 3 later batches in the cache and reach disk only through
   the rotated journal and the new checkpoint.  Stepwise, compactions
   trigger at batches 1, 6 and 11 and complete at 4, 9 and 14, and
   shutdown compacts whole; the whole path compacts at batches 1, 6 and
   11 too. *)
let sweep_batches = 15

let sweep_solves b = if b mod 5 < 2 then 4 else 1

(* solves before batch [b] *)
let sweep_before b = List.fold_left ( + ) 0 (List.init b sweep_solves)

let sweep_lines =
  lazy
    (Array.init sweep_batches (fun b ->
         List.init 4 (fun k ->
             if k < sweep_solves b then
               req ~id:(4 * b + k) ~budget:(10.0 +. (0.125 *. float_of_int (sweep_before b + k))) jobs3
             else Printf.sprintf {|{"id":%d,"op":"ping"}|} (4 * b + k))))

(* each solve's canonical key in insertion order, the journal line its
   insert writes, and every batch's replies, from a fault-free run *)
let sweep_reference =
  lazy
    (let lines = Lazy.force sweep_lines in
     let srs =
       Array.of_list
         (List.concat (List.init sweep_batches (fun b -> List.filteri (fun k _ -> k < sweep_solves b) lines.(b))))
       |> Array.map decode_solve
     in
     let journal = Hashtbl.create 64 in
     let pool = Par.Pool.create ~jobs:1 () in
     Fun.protect
       ~finally:(fun () -> Par.Pool.shutdown pool)
       (fun () ->
         ignore
           (Serve_batch.run ~pool ~cache:(Serve_cache.create ~capacity:1024) ~policy:Guard.default
              ~on_insert:(fun ~canon p -> Hashtbl.replace journal canon (Serve_journal.encode_line ~canon p))
              srs));
     let replies = with_shards @@ fun t -> List.init sweep_batches (fun b -> Serve_shard.handle_batch t lines.(b)) in
     (Array.map (fun (sr : Serve_protocol.solve_request) -> sr.Serve_protocol.canon) srs, journal, replies))

type fault =
  | Crash_at
  | Short_crash  (** the write is cut short, then the process dies *)
  | Fail of Unix.error
  | Short_fail  (** the write is cut short, then fails with ENOSPC *)

let fault_name = function
  | Crash_at -> "crash"
  | Short_crash -> "short write, crash"
  | Fail e -> Unix.error_message e
  | Short_fail -> "short write, ENOSPC"

let writes site = site = "serve_journal.flush" || site = "serve_journal.slice"

(* hooks that log every journal site visit as (batch, site) and fault
   visit [at] (1-based; 0 faults none) *)
let sweep_hooks ~at ~fault ~batch ~visits =
  let journal site = String.starts_with ~prefix:"serve_journal." site in
  let n = ref 0 and cut = ref false in
  {
    Fault.null with
    Fault.on_enter =
      (fun site ->
        if journal site then begin
          incr n;
          visits := (!batch, site) :: !visits;
          if !cut then begin
            cut := false;
            match fault with
            | Short_crash -> raise Crash
            | _ -> raise (Unix.Unix_error (Unix.ENOSPC, "write", site))
          end;
          if !n = at then
            match fault with
            | Crash_at -> raise Crash
            | Fail e -> raise (Unix.Unix_error (e, "sweep", site))
            | Short_crash | Short_fail -> cut := true
        end);
    Fault.on_float = (fun site v -> if !cut && journal site then Float.round (v /. 2.0) else v);
  }

let sweep_store () =
  let path = Filename.temp_file "pasched_sweep" ".cache" in
  Sys.remove path;
  path

let sweep_files = [ ""; ".journal.old"; ".journal" ]
let sweep_cleanup path = List.iter (fun ext -> rm_f (path ^ ext)) (".tmp" :: sweep_files)

(* Drive the store through every batch, calling [after_batch b] after
   batch [b], then shut it down; a [Crash] drops it where it stands.
   Returns the batch the crash hit ([sweep_batches] for shutdown), each
   batch's replies, and the journal's error count *)
let sweep_drive ?(after_batch = ignore) ~whole ~fsync ~path ~hooks ~batch () =
  let lines = Lazy.force sweep_lines in
  if whole then begin
    (* the perfbench replica's path: compact whole whenever the lag
       says so *)
    let j = Serve_journal.open_ ~fsync ~compact_every:8 ~path () in
    let cache = Serve_cache.create ~capacity:8 in
    let pool = Par.Pool.create ~jobs:1 () in
    Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) @@ fun () ->
    match
      Fault.with_hooks hooks (fun () ->
          for b = 0 to sweep_batches - 1 do
            batch := b;
            ignore
              (Serve_batch.run ~pool ~cache ~policy:Guard.default
                 ~on_insert:(fun ~canon p -> Serve_journal.append j ~canon p)
                 (Array.of_list (List.map decode_solve (List.filteri (fun k _ -> k < sweep_solves b) lines.(b)))));
            Serve_journal.flush j;
            if Serve_journal.needs_compact j then Serve_journal.compact j ~entries:(Serve_cache.to_list cache)
          done;
          batch := sweep_batches;
          Serve_journal.compact j ~entries:(Serve_cache.to_list cache);
          Serve_journal.close j)
    with
    | () -> (None, [], (Serve_journal.stats j).Serve_journal.errors)
    | exception Crash ->
      Serve_journal.drop j;
      (Some !batch, [], 0)
  end
  else begin
    let t = Serve_shard.create ~jobs:1 ~cache_capacity:8 ~compact_every:8 ~fsync ~cache_file:path () in
    let replies = ref [] in
    match
      Fault.with_hooks hooks (fun () ->
          for b = 0 to sweep_batches - 1 do
            batch := b;
            replies := Serve_shard.handle_batch t lines.(b) :: !replies;
            after_batch b
          done;
          batch := sweep_batches;
          Serve_shard.shutdown t)
    with
    | () ->
      let errors = match Serve_shard.journal_stats t with Some js -> js.Serve_journal.errors | None -> 0 in
      (None, List.rev !replies, errors)
    | exception Crash ->
      Serve_shard.abort t;
      (Some !batch, List.rev !replies, 0)
  end

(* lines on disk that do not decode: what a torn write leaves *)
let torn_lines path =
  List.fold_left
    (fun acc ext ->
      match read_file (path ^ ext) with
      | exception Sys_error _ -> acc
      | s ->
        acc
        + List.length
            (List.filter (fun l -> l <> "" && Serve_journal.decode_line l = None) (String.split_on_char '\n' s)))
    0 sweep_files

(* Reopen and replay: never raises, counts exactly the torn lines,
   recovers only the first [inserted] solves' entries with their bytes,
   and every entry in [required] (solve indices) *)
let sweep_recover ~what ~path ~inserted ~required =
  let canons, journal, _ = Lazy.force sweep_reference in
  let torn = torn_lines path in
  let j = Serve_journal.open_ ~path () in
  let cache = Serve_cache.create ~capacity:8 in
  (match
     Serve_journal.replay j (fun ~canon p ->
         let rec index i = if i >= inserted then -1 else if canons.(i) = canon then i else index (i + 1) in
         if index 0 < 0 then Alcotest.failf "%s: recovered an entry never inserted" what;
         if Hashtbl.find journal canon <> Serve_journal.encode_line ~canon p then
           Alcotest.failf "%s: an entry recovered with other bytes" what;
         Serve_cache.insert cache ~hash:(Serve_key.hash canon) ~canon p)
   with
  | () -> ()
  | exception e -> Alcotest.failf "%s: replay raised %s" what (Printexc.to_string e));
  let st = Serve_journal.stats j in
  if st.Serve_journal.skipped_corrupt <> torn then
    Alcotest.failf "%s: skipped %d lines, %d torn" what st.Serve_journal.skipped_corrupt torn;
  let live = List.map fst (Serve_cache.to_list cache) in
  List.iter
    (fun i -> if not (List.mem canons.(i) live) then Alcotest.failf "%s: live flushed entry %d lost" what i)
    required;
  (j, torn)

(* the fault-free run's journal site visits *)
let sweep_visits ~whole ~fsync =
  let path = sweep_store () in
  Fun.protect ~finally:(fun () -> sweep_cleanup path) @@ fun () ->
  let visits = ref [] and batch = ref 0 in
  ignore (sweep_drive ~whole ~fsync ~path ~hooks:(sweep_hooks ~at:0 ~fault:Crash_at ~batch ~visits) ~batch ());
  Array.of_list (List.rev !visits)

(* the sites visited after the checkpoint's rename and before the
   rotated journal's unlink or the journal's truncate: a crash there
   replays pre-snapshot lines over the new checkpoint *)
let after_rename site =
  List.mem site [ "serve_journal.dir_fsync"; "serve_journal.unlink"; "serve_journal.truncate" ]

(* How many solves the cache took by visit [at] (at [site] in batch
   [b]), and which of them have no line in the file: a crash loses the
   batch's appends until its write is done, and an error the append
   it hit, or a batch whose write failed *)
let reached ~visits ~at ~crash b site =
  let appended = ref 0 in
  Array.iteri (fun i (b', s) -> if i < at && b' = b && s = "serve_journal.append" then incr appended) visits;
  let before = sweep_before (Int.min b sweep_batches) in
  if b >= sweep_batches then (before, [])
  else
    let all = before + sweep_solves b in
    if site = "serve_journal.append" then
      if crash then (before + !appended, List.init !appended (( + ) before))
      else (all, [ before + !appended - 1 ])
    else if site = "serve_journal.flush" then (all, List.init (sweep_solves b) (( + ) before))
    else (all, [])

let crash_case ~whole ~fsync ~visits ~fault at =
  let cb, site = visits.(at - 1) in
  let what =
    Printf.sprintf "%s%s, %s at visit %d (%s, batch %d)"
      (if whole then "compact" else "stepwise")
      (if fsync then " --fsync" else "")
      (fault_name fault) at site cb
  in
  let path = sweep_store () in
  Fun.protect ~finally:(fun () -> sweep_cleanup path) @@ fun () ->
  let batch = ref 0 and log = ref [] in
  match sweep_drive ~whole ~fsync ~path ~hooks:(sweep_hooks ~at ~fault ~batch ~visits:log) ~batch () with
  | None, _, _ -> Alcotest.failf "%s: no crash" what
  | Some b, _, _ ->
    if b <> cb then Alcotest.failf "%s: crashed in batch %d" what b;
    (* the cache holds the last 8 solves taken; those whose line was
       written must come back *)
    let taken, unwritten = reached ~visits ~at ~crash:true cb site in
    let required =
      if after_rename site then []
      else List.filter (fun i -> i >= taken - 8 && not (List.mem i unwritten)) (List.init taken Fun.id)
    in
    let j, torn = sweep_recover ~what ~path ~inserted:taken ~required in
    if fault = Crash_at then begin
      Serve_journal.close j;
      if torn > 0 then Alcotest.failf "%s: %d torn lines" what torn
    end
    else begin
      if torn > 1 then Alcotest.failf "%s: %d torn lines" what torn;
      (* the next append after a torn tail lands on a line of its own *)
      let canons, journal, _ = Lazy.force sweep_reference in
      (match Serve_journal.decode_line (Hashtbl.find journal canons.(0)) with
      | Some (canon, p) -> Serve_journal.append j ~canon p
      | None -> Alcotest.fail "reference line does not decode");
      Serve_journal.close j;
      let j2, torn2 = sweep_recover ~what:(what ^ ", then one append") ~path ~inserted:(Int.max 1 taken) ~required:[ 0 ] in
      Serve_journal.close j2;
      if torn2 <> torn then Alcotest.failf "%s: the append after the crash tore a line" what
    end

(* An I/O error anywhere: every batch is answered as without it and the
   error is counted.  A copy of the store taken after the faulted batch
   (what a crash there would leave) recovers every live entry whose
   line reached the file, outside the rename-to-unlink window; the
   store itself, once shutdown compacts it, recovers them all *)
let error_case ~fsync ~visits ~fault at =
  let canons, _, want = Lazy.force sweep_reference in
  let cb, site = visits.(at - 1) in
  let what =
    Printf.sprintf "stepwise%s, %s at visit %d (%s, batch %d)"
      (if fsync then " --fsync" else "")
      (fault_name fault) at site cb
  in
  let path = sweep_store () and copy = sweep_store () in
  Fun.protect ~finally:(fun () -> sweep_cleanup path; sweep_cleanup copy) @@ fun () ->
  let batch = ref 0 and log = ref [] in
  (* a failed write is retried by the next batch's flush: the copy
     waits for it *)
  let copy_after = if site = "serve_journal.flush" then cb + 1 else cb in
  let after_batch b =
    if b = copy_after then
      List.iter
        (fun ext -> match read_file (path ^ ext) with s -> write_file (copy ^ ext) s | exception Sys_error _ -> ())
        sweep_files
  in
  match
    sweep_drive ~after_batch ~whole:false ~fsync ~path ~hooks:(sweep_hooks ~at ~fault ~batch ~visits:log) ~batch ()
  with
  | Some _, _, _ -> Alcotest.failf "%s: crashed" what
  | None, got, errors ->
    List.iteri (fun b (w, g) -> if w <> g then Alcotest.failf "%s: batch %d answered otherwise" what b) (List.combine want got);
    let n = Array.length canons in
    (* shutdown swallows its own failures uncounted *)
    if cb < sweep_batches && errors < 1 then Alcotest.failf "%s: no error counted" what;
    if copy_after < sweep_batches then begin
      let taken, unwritten =
        if copy_after > cb then (sweep_before (Int.min (copy_after + 1) sweep_batches), [])
        else reached ~visits ~at ~crash:false cb site
      in
      let required =
        if after_rename site then []
        else List.filter (fun i -> i >= taken - 8 && not (List.mem i unwritten)) (List.init taken Fun.id)
      in
      let j, torn = sweep_recover ~what:(what ^ ", crash copy") ~path:copy ~inserted:taken ~required in
      Serve_journal.close j;
      if torn > 0 then Alcotest.failf "%s: %d torn lines" what torn
    end;
    let required = if cb < sweep_batches then List.init 8 (fun k -> n - 8 + k) else [] in
    let j, torn = sweep_recover ~what ~path ~inserted:n ~required in
    Serve_journal.close j;
    if torn > 0 then Alcotest.failf "%s: %d torn lines" what torn

(* A crash at every visit of every site, on both paths and in both
   modes.  Over the first compaction's cycle (batches 0 to 4: idle,
   trigger, slice, sync, install) and at the first visit of every site
   past it (shutdown's), a short write then a crash at every write,
   and on the stepwise path ENOSPC, EIO and (where it writes) a short
   write. *)
let test_compaction_crash_sweep () =
  let runs = ref 0 in
  List.iter
    (fun (whole, fsync) ->
      let visits = sweep_visits ~whole ~fsync in
      let seen = Hashtbl.create 16 in
      Array.iteri
        (fun i (b, site) ->
          let faulted = b <= 4 || not (Hashtbl.mem seen site) in
          Hashtbl.replace seen site ();
          List.iter
            (fun fault ->
              incr runs;
              crash_case ~whole ~fsync ~visits ~fault (i + 1))
            (Crash_at :: (if faulted && writes site then [ Short_crash ] else []));
          if faulted && not whole then
            List.iter
              (fun fault ->
                incr runs;
                error_case ~fsync ~visits ~fault (i + 1))
              (Fail Unix.ENOSPC :: Fail Unix.EIO :: (if writes site then [ Short_fail ] else [])))
        visits)
    [ (false, false); (false, true); (true, false); (true, true) ];
  check_bool (Printf.sprintf "%d runs" !runs) true (!runs > 0)

(* ---------------- circuit breaker (unit) ---------------- *)

let breaker_state_pp = function
  | Guard_breaker.Closed -> "closed"
  | Guard_breaker.Open -> "open"
  | Guard_breaker.Half_open -> "half-open"

let check_state what expected got =
  Alcotest.(check string) what (breaker_state_pp expected) (breaker_state_pp got)

let test_breaker_lifecycle () =
  let now = ref 0.0 in
  let br =
    Guard_breaker.create ~now:(fun () -> !now)
      { Guard_breaker.threshold = 2; cooldown_s = 10.0 }
  in
  check_bool "unknown solver admitted" true (Guard_breaker.admit br "s");
  check_state "starts closed" Guard_breaker.Closed (Guard_breaker.state br "s");
  Guard_breaker.record_fail br "s";
  check_state "one failure stays closed" Guard_breaker.Closed (Guard_breaker.state br "s");
  check_bool "still admitted below threshold" true (Guard_breaker.admit br "s");
  Guard_breaker.record_fail br "s";
  check_state "threshold trips it open" Guard_breaker.Open (Guard_breaker.state br "s");
  check_bool "open refuses work" false (Guard_breaker.admit br "s");
  now := 5.0;
  check_bool "still open inside the cooldown" false (Guard_breaker.admit br "s");
  now := 10.0;
  check_state "cooldown elapsed: half-open" Guard_breaker.Half_open (Guard_breaker.state br "s");
  check_bool "half-open admits one probe" true (Guard_breaker.admit br "s");
  Guard_breaker.record_ok br "s";
  check_state "successful probe closes it" Guard_breaker.Closed (Guard_breaker.state br "s");
  check_bool "closed admits again" true (Guard_breaker.admit br "s");
  (* a failed probe re-opens immediately, without a fresh failure run *)
  Guard_breaker.record_fail br "s";
  Guard_breaker.record_fail br "s";
  now := 20.0;
  check_bool "probe admitted" true (Guard_breaker.admit br "s");
  Guard_breaker.record_fail br "s";
  check_state "failed probe re-opens" Guard_breaker.Open (Guard_breaker.state br "s");
  check_bool "re-opened refuses" false (Guard_breaker.admit br "s")

let test_breaker_probe_slot () =
  let now = ref 0.0 in
  let br =
    Guard_breaker.create ~now:(fun () -> !now)
      { Guard_breaker.threshold = 1; cooldown_s = 1.0 }
  in
  Guard_breaker.record_fail br "s";
  now := 1.0;
  check_bool "first half-open caller gets the probe" true (Guard_breaker.admit br "s");
  check_bool "second caller is refused while the probe is out" false
    (Guard_breaker.admit br "s");
  (* other solvers are independent *)
  check_bool "an unrelated solver is unaffected" true (Guard_breaker.admit br "other")

let test_breaker_snapshot () =
  let now = ref 0.0 in
  let br =
    Guard_breaker.create ~now:(fun () -> !now)
      { Guard_breaker.threshold = 1; cooldown_s = 60.0 }
  in
  Guard_breaker.record_fail br "bad";
  (* an entry only exists once a failure was seen: recovered solvers
     show closed/0, never-failed solvers stay out of the listing *)
  Guard_breaker.record_fail br "good";
  Guard_breaker.record_ok br "good";
  check_bool "never-failed solvers are not listed" true
    (List.for_all (fun (n, _, _) -> n <> "unseen") (Guard_breaker.snapshot br));
  match Guard_breaker.snapshot br with
  | [ ("bad", Guard_breaker.Open, 1); ("good", Guard_breaker.Closed, 0) ] -> ()
  | rows ->
    Alcotest.failf "unexpected snapshot: %s"
      (String.concat "; "
         (List.map
            (fun (n, s, f) -> Printf.sprintf "%s=%s/%d" n (breaker_state_pp s) f)
            rows))

(* ---------------- breaker supervision through the daemon ---------------- *)

(* an always-raising solver: non-exact, so auto-selection and the
   differential oracles never pick it up on their own *)
let () =
  let module Flaky = struct
    let name = "test-flaky"
    let doc = "always-raising solver for circuit-breaker tests"

    let capability =
      {
        Capability.objective = Problem.Makespan;
        settings = Capability.Any_procs;
        modes = [ Capability.Budget_mode ];
        exact = false;
        requires = [];
      }

    let solve _ _ = failwith "flaky by design"
  end in
  Engine.register (module Flaky)

let health_of t =
  match Obs_json.of_string (Serve_shard.handle_line t {|{"id":0,"op":"health"}|}) with
  | Ok doc -> (
    match Obs_json.member "health" doc with
    | Some h -> h
    | None -> Alcotest.fail "health reply carries no health object")
  | Error m -> Alcotest.failf "health reply unparseable: %s" m

let breaker_row_state h solver =
  match Option.bind (Obs_json.member "breakers" h) Obs_json.to_list with
  | None -> Alcotest.fail "health carries no breakers list"
  | Some rows -> (
    match
      List.find_opt
        (fun row -> Obs_json.member "solver" row = Some (Obs_json.String solver))
        rows
    with
    | Some row -> Option.bind (Obs_json.member "state" row) Obs_json.to_string_val
    | None -> None)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_breaker_degrade_path () =
  let now = ref 0.0 in
  let t =
    Serve_shard.create ~jobs:1 ~shards:1 ~cache_capacity:32
      ~breaker:(Some { Guard_breaker.threshold = 2; cooldown_s = 100.0 })
      ~breaker_now:(fun () -> !now)
      ()
  in
  Fun.protect ~finally:(fun () -> Serve_shard.shutdown t) @@ fun () ->
  let flaky budget = req ~budget ~solver:"test-flaky" jobs3 in
  (* two supervised failures: Guard's fallback still answers, but each
     counts against the named solver *)
  check_bool "first flaky request answered by the fallback chain" true
    (status_of (Serve_shard.handle_line t (flaky 10.0)) = Some "ok");
  check_bool "still closed below the threshold" true
    (breaker_row_state (health_of t) "test-flaky" = Some "closed");
  ignore (Serve_shard.handle_line t (flaky 11.0));
  check_bool "two consecutive failures open the breaker" true
    (breaker_row_state (health_of t) "test-flaky" = Some "open");
  (* open: the request degrades along Engine.supporting without ever
     running the sick solver, and the answer is never cached *)
  let size_before = (Serve_shard.stats t).Serve_shard.cache.Serve_cache.size in
  let hits_before = (Serve_shard.stats t).Serve_shard.cache.Serve_cache.hits in
  let d1 = Serve_shard.handle_line t (flaky 20.0) in
  check_bool "degraded reroute still answers ok" true (status_of d1 = Some "ok");
  check_bool "reply carries the breaker.degraded diagnostic" true
    (contains ~sub:"breaker.degraded" d1);
  let d2 = Serve_shard.handle_line t (flaky 20.0) in
  check_string "degraded repeats stay byte-identical (deterministic fallback)" d1 d2;
  let st = (Serve_shard.stats t).Serve_shard.cache in
  check_int "degraded answers never enter the cache" size_before st.Serve_cache.size;
  check_int "so the repeat cannot be a cache hit" hits_before st.Serve_cache.hits;
  (* cooldown over: one probe goes through, fails, re-opens *)
  now := 150.0;
  check_bool "half-open after the cooldown" true
    (breaker_row_state (health_of t) "test-flaky" = Some "half-open");
  ignore (Serve_shard.handle_line t (flaky 30.0));
  check_bool "failed probe re-opens the breaker" true
    (breaker_row_state (health_of t) "test-flaky" = Some "open");
  (* a healthy solver is never collateral damage *)
  check_bool "auto requests unaffected throughout" true
    (status_of (Serve_shard.handle_line t (req ~budget:10.0 jobs3)) = Some "ok")

let test_breaker_reject_when_no_fallback () =
  let now = ref 0.0 in
  let state =
    Serve_batch.create_state
      ~now:(fun () -> !now)
      ~breaker:(Some { Guard_breaker.threshold = 1; cooldown_s = 100.0 })
      ()
  in
  let br = Option.get (Serve_batch.breaker_of state) in
  (* every registered solver has just melted down: nowhere to degrade *)
  List.iter (fun name -> Guard_breaker.record_fail br name) (Engine.names ());
  let pool = Par.Pool.create ~jobs:1 () in
  let cache = Serve_cache.create ~capacity:8 in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) @@ fun () ->
  let sr = decode_solve (req ~budget:10.0 jobs3) in
  match Serve_batch.run ~pool ~cache ~policy:Guard.default ~state [| sr |] with
  | [| payload |] ->
    check_bool "refusal is the typed degraded reply" true
      (List.assoc_opt "status" payload = Some (Obs_json.String "degraded"));
    check_bool "classified breaker-open" true
      (List.assoc_opt "class" payload = Some (Obs_json.String "breaker-open"));
    check_int "degraded exits 7" 7
      (Serve_client.exit_code (Serve_protocol.reply_string ~id:Obs_json.Null payload));
    check_int "nothing cached" 0 (Serve_cache.stats cache).Serve_cache.size
  | _ -> Alcotest.fail "expected exactly one payload"

(* ---------------- one supervised solve path ---------------- *)

(* a plain miss, a deadline_s miss and a failing solver share one
   batch and one path: every unique miss is one Guard.solve_with call,
   so the flaky solver runs once before the fallback answers (plain 1
   + deadline 1 + flaky 1 + fallback 1), and batching changes no reply *)
let test_one_solve_path () =
  let lines =
    [
      req ~id:1 ~budget:10.0 jobs3;
      req ~id:2 ~budget:11.0 ~deadline_s:60.0 jobs3;
      req ~id:3 ~budget:12.0 ~solver:"test-flaky" jobs3;
    ]
  in
  let batched = ref [] in
  let d =
    counter_deltas (fun () ->
        batched := with_shards ~breaker:None (fun t -> Serve_shard.handle_batch t lines))
  in
  check_int "engine.solves: one per unique miss, plus the fallback" 4 (d "engine.solves");
  check_int "guard.solves: every miss supervised" 3 (d "guard.solves");
  check_bool "the flaky request is answered by the fallback" true
    (status_of (List.nth !batched 2) = Some "ok");
  let single = with_shards ~breaker:None (fun t -> List.map (Serve_shard.handle_line t) lines) in
  List.iter2 (check_string "batched reply byte-identical to its own batch") single !batched

(* ---------------- health op ---------------- *)

let test_health_op () =
  with_store @@ fun path ->
  let t = Serve_shard.create ~jobs:1 ~shards:2 ~cache_capacity:16 ~cache_file:path () in
  Fun.protect ~finally:(fun () -> Serve_shard.shutdown t) @@ fun () ->
  check_bool "a solve lands first" true
    (status_of (Serve_shard.handle_line t (req ~budget:10.0 jobs3)) = Some "ok");
  let h = health_of t in
  let int_at keys =
    match
      List.fold_left (fun acc k -> Option.bind acc (Obs_json.member k)) (Some h) keys
    with
    | Some (Obs_json.Int n) -> n
    | _ -> Alcotest.failf "health field %s missing" (String.concat "." keys)
  in
  check_int "shard count reported" 2 (int_at [ "shards" ]);
  check_int "cache occupancy reported" 1 (int_at [ "cache"; "size" ]);
  check_int "cache capacity summed over shards" 32 (int_at [ "cache"; "capacity" ]);
  check_int "journal append counted" 1 (int_at [ "journal"; "appends" ]);
  check_int "nothing replayed on a fresh store" 0 (int_at [ "journal"; "replayed" ]);
  (match Option.bind (Obs_json.member "inflight" h) Obs_json.to_list with
  | Some ds -> check_int "per-shard inflight row per shard" 2 (List.length ds)
  | None -> Alcotest.fail "health carries no inflight list");
  check_bool "breakers listed (default config on)" true
    (Obs_json.member "breakers" h <> None);
  let journal_errors h = Option.bind (Obs_json.member "journal" h) (Obs_json.member "errors") in
  check_bool "a healthy journal shows no errors member" true (journal_errors h = None);
  (* one failed flush: the batch is answered, and health counts it *)
  let failing =
    {
      Fault.null with
      Fault.on_enter =
        (fun site ->
          if site = "serve_journal.flush" then raise (Unix.Unix_error (Unix.EIO, "write", site)));
    }
  in
  check_bool "answered through a failed flush" true
    (status_of (Fault.with_hooks failing (fun () -> Serve_shard.handle_line t (req ~budget:11.0 jobs3)))
    = Some "ok");
  check_bool "health counts the journal error" true
    (journal_errors (health_of t) = Some (Obs_json.Int 1))

(* ---------------- crash recovery (SIGKILL simulated by abort) ---------------- *)

let test_crash_warm_recovery () =
  with_store @@ fun path ->
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let c_root = Obs.counter "rootfind.calls" in
  let lines = List.init 3 (fun i -> req ~id:i ~budget:(9.0 +. float_of_int i) jobs3) in
  let t1 = Serve_shard.create ~jobs:1 ~shards:1 ~cache_capacity:32 ~cache_file:path () in
  let cold = Serve_shard.handle_batch t1 lines in
  (* crash: no compaction, no checkpoint — the journal alone recovers *)
  Serve_shard.abort t1;
  check_bool "no checkpoint was written by the crash" true (not (Sys.file_exists path));
  let roots_cold = Obs_metrics.value c_root in
  let t2 = Serve_shard.create ~jobs:1 ~shards:2 ~cache_capacity:32 ~cache_file:path () in
  Fun.protect ~finally:(fun () -> Serve_shard.shutdown t2) @@ fun () ->
  (match Serve_shard.journal_stats t2 with
  | Some js ->
    check_int "all three inserts replayed from the journal" 3 js.Serve_journal.replayed;
    check_int "nothing corrupt in a flushed journal" 0 js.Serve_journal.skipped_corrupt
  | None -> Alcotest.fail "journaled daemon reports no journal stats");
  let warm = Serve_shard.handle_batch t2 lines in
  List.iter2
    (fun c w -> check_string "post-crash reply byte-identical to pre-crash" c w)
    cold warm;
  check_int "no solver re-entry after recovery" roots_cold (Obs_metrics.value c_root);
  check_int "every post-crash request was a cache hit" 3
    (Serve_shard.stats t2).Serve_shard.cache.Serve_cache.hits

(* a journaled 2-shard daemon serves the 4 cold passes and dies
   without compaction: every miss appends once, each batch flushes
   once, and nothing is fsynced *)
let test_journal_per_miss () =
  with_store @@ fun path ->
  let d =
    counter_deltas (fun () ->
        let t = Serve_shard.create ~jobs:1 ~shards:2 ~cache_capacity:128 ~cache_file:path () in
        ignore (cold_passes t);
        Serve_shard.abort t)
  in
  check_int "every request missed" 256 (d "serve.cache.miss");
  check_int "every miss journaled once" 256 (d "serve.journal.appends");
  check_int "one journal flush per batch" 4 (d "serve.journal.flushes");
  check_int "no fsync without --fsync" 0 (d "serve.journal.fsyncs")

let test_shutdown_then_journal_replays () =
  with_store @@ fun path ->
  let line = req ~budget:10.0 jobs3 in
  (* clean shutdown compacts: checkpoint present, journal empty *)
  (with_shards ~shards:1 ~cache_file:path @@ fun t ->
   ignore (Serve_shard.handle_line t line));
  check_bool "checkpoint written on shutdown" true (Sys.file_exists path);
  check_int "journal truncated by the shutdown compaction" 0
    (String.length (read_file (path ^ ".journal")));
  check_bool "no rotated journal or tmp left" false
    (Sys.file_exists (path ^ ".journal.old") || Sys.file_exists (path ^ ".tmp"));
  let t = Serve_shard.create ~jobs:1 ~shards:1 ~cache_capacity:32 ~cache_file:path () in
  Fun.protect ~finally:(fun () -> Serve_shard.shutdown t) @@ fun () ->
  match Serve_shard.journal_stats t with
  | Some js -> check_int "checkpoint replays after a clean shutdown" 1 js.Serve_journal.replayed
  | None -> Alcotest.fail "no journal stats"

(* ---------------- client retry schedule ---------------- *)

let test_retry_bounds () =
  let sched = Serve_client.backoff ~base_ms:50.0 ~cap_ms:400.0 ~seed:7 () in
  let first = Serve_client.next_ms sched in
  check_bool "first sleep within [base, 3*base]" true (first >= 50.0 && first <= 150.0);
  for _ = 1 to 100 do
    let s = Serve_client.next_ms sched in
    check_bool "every sleep within [base, cap]" true (s >= 50.0 && s <= 400.0)
  done;
  (* same seed, same schedule: reproducible for tests *)
  let a = Serve_client.backoff ~base_ms:50.0 ~cap_ms:400.0 ~seed:11 () in
  let b = Serve_client.backoff ~base_ms:50.0 ~cap_ms:400.0 ~seed:11 () in
  for _ = 1 to 20 do
    check_bool "deterministic per seed" true (Serve_client.next_ms a = Serve_client.next_ms b)
  done;
  check_bool "invalid base rejected" true
    (match Serve_client.backoff ~base_ms:0.0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_retry_transient_classifier () =
  check_bool "busy retries" true
    (Serve_client.is_transient {|{"id":1,"status":"busy","class":"busy"}|});
  check_bool "degraded retries" true
    (Serve_client.is_transient {|{"id":1,"status":"degraded","class":"breaker-open"}|});
  check_bool "ok does not retry" false (Serve_client.is_transient {|{"status":"ok"}|});
  check_bool "hard errors do not retry" false
    (Serve_client.is_transient {|{"status":"error","class":"infeasible"}|});
  check_bool "garbage does not retry" false (Serve_client.is_transient "not json");
  check_int "garbage exits as a solver fault" 6 (Serve_client.exit_code "not json")

(* ---------------- socket hardening: client death mid-reply ---------------- *)

let sock_path tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "pasched_%s_%d.sock" tag (Unix.getpid ()))

let test_disconnect_mid_reply () =
  let path = sock_path "test" in
  (* the daemon is its own process: a process that has spawned domains
     (earlier tests here run pools) cannot fork under OCaml 5 *)
  let d =
    Serve_client.start ~exe:(Pasched_exe.path ()) ~socket:path [ "--jobs"; "1"; "--cache"; "8" ]
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Serve_client.stop ~kill:true d);
      rm_f path)
  @@ fun () ->
  (* rude client: submit real work, vanish before the reply *)
  let rude = Serve_client.connect path in
  Serve_client.send rude [ req ~budget:10.0 jobs3 ];
  Serve_client.close rude;
  (* polite client: the daemon must still answer, then stop cleanly *)
  let polite = Serve_client.connect path in
  let ask op = List.map status_of (Serve_client.round_trip polite [ {|{"op":"|} ^ op ^ {|"}|} ]) in
  check_bool "daemon survives the disconnect and still answers" true (ask "ping" = [ Some "ok" ]);
  check_bool "shutdown acknowledged" true (ask "shutdown" = [ Some "ok" ]);
  Serve_client.close polite;
  match Serve_client.stop d with
  | Some (Unix.WEXITED 0) -> ()
  | Some (Unix.WEXITED n) -> Alcotest.failf "daemon exited with %d" n
  | Some (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Alcotest.failf "daemon killed by signal %d" s
  | None -> Alcotest.fail "daemon already reaped"

(* ---------------- client: reply reader ---------------- *)

let check_lines = Alcotest.(check (list string))

let write_all fd s =
  let sent = ref 0 in
  while !sent < String.length s do
    sent := !sent + Unix.write_substring fd s !sent (String.length s - !sent)
  done

let test_reader () =
  let r1 = {|{"id":1,"status":"ok","value":2.5}|} in
  let r2 = {|{"id":2,"status":"busy","class":"busy","shard":0}|} in
  (* a client connection whose daemon end is [peer] *)
  let ours, peer = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let c = Serve_client.of_fd ours in
  Fun.protect
    ~finally:(fun () ->
      Serve_client.close c;
      Unix.close peer)
  @@ fun () ->
  (* two replies in one read, then [r2] cut at every byte offset: the
     bytes before the cut wait in the buffer for the next exchange *)
  for k = 0 to String.length r2 do
    write_all peer (r1 ^ "\n" ^ r1 ^ "\n" ^ String.sub r2 0 k);
    check_lines "replies before the cut" [ r1; r1 ] (Serve_client.round_trip c [ "a"; "b" ]);
    write_all peer (String.sub r2 k (String.length r2 - k) ^ "\n");
    check_lines (Printf.sprintf "reply cut at byte %d" k) [ r2 ] (Serve_client.round_trip c [ "c" ])
  done;
  let sent = Bytes.create 6 in
  check_int "requests sent newline-terminated" 6 (Unix.read peer sent 0 6);
  check_string "in order" "a\nb\nc\n" (Bytes.to_string sent);
  write_all peer (String.sub r1 0 12);
  Unix.shutdown peer Unix.SHUTDOWN_SEND;
  match Serve_client.read_reply c with
  | exception Failure _ -> ()
  | r -> Alcotest.failf "a reply cut by a close was returned: %S" r

(* ---------------- client: retry loop ---------------- *)

(* a scripted daemon: line [l]'s reply is [reply (answer l k) l k] on
   its [k]-th send; returns the exchange and the log of sends *)
let scripted answer =
  let sends = ref [] and tries = Hashtbl.create 8 in
  let reply l =
    let k = 1 + Option.value ~default:0 (Hashtbl.find_opt tries l) in
    Hashtbl.replace tries l k;
    Printf.sprintf {|{"id":"%s","status":"%s","try":%d}|} l (answer l k) k
  in
  let exchange lines =
    sends := String.concat "," lines :: !sends;
    List.map reply lines
  in
  (exchange, fun () -> List.rev !sends)

(* with microsecond sleeps *)
let retry ~retries exchange lines =
  let b = Serve_client.backoff ~base_ms:0.001 ~cap_ms:0.01 () in
  Serve_client.with_retry b ~retries exchange lines

let test_retry_loop () =
  (* b shed once, d degraded once, e an error: only b and d are resent *)
  let exchange, sends =
    scripted (fun l k ->
        match (l.[0], k) with
        | 'b', 1 -> "busy"
        | 'd', 1 -> "degraded"
        | 'e', _ -> "error"
        | _ -> "ok")
  in
  let replies = retry ~retries:3 exchange [ "o1"; "b2"; "e3"; "d4"; "b5" ] in
  check_lines "only transient slots resent" [ "o1,b2,e3,d4,b5"; "b2,d4,b5" ] (sends ());
  check_lines "answers merged back in order"
    [
      {|{"id":"o1","status":"ok","try":1}|};
      {|{"id":"b2","status":"ok","try":2}|};
      {|{"id":"e3","status":"error","try":1}|};
      {|{"id":"d4","status":"ok","try":2}|};
      {|{"id":"b5","status":"ok","try":2}|};
    ]
    replies;
  (* a transport failure resends the whole set *)
  let down = ref [ Failure "mid-reply"; Unix.Unix_error (Unix.ECONNREFUSED, "connect", "") ] in
  let exchange, sends = scripted (fun _ _ -> "ok") in
  let flaky lines =
    match !down with
    | e :: rest ->
      down := rest;
      ignore (exchange lines);
      raise e
    | [] -> exchange lines
  in
  ignore (retry ~retries:2 flaky [ "a"; "b" ]);
  check_lines "whole set resent after each failure" [ "a,b"; "a,b"; "a,b" ] (sends ());
  (* an exhausted budget returns the last replies ... *)
  let exchange, sends = scripted (fun l _ -> if l = "b" then "busy" else "ok") in
  check_lines "last replies returned"
    [ {|{"id":"a","status":"ok","try":1}|}; {|{"id":"b","status":"busy","try":3}|} ]
    (retry ~retries:2 exchange [ "a"; "b" ]);
  check_int "budget spent" 3 (List.length (sends ()));
  (* ... or re-raises the last transport failure *)
  match retry ~retries:1 (fun _ -> failwith "down") [ "a" ] with
  | exception Failure msg -> check_string "last failure re-raised" "down" msg
  | _ -> Alcotest.fail "a dead transport must raise once the budget is spent"

(* ---------------- client: kill-chaos drill ---------------- *)

(* `pasched sim --count 1280 --emit-requests 5`, through a 2-shard
   daemon killed halfway; the [retries] budget masks the outage *)
let run_chaos ~retries =
  let socket = sock_path "chaos" and cache_file = Filename.temp_file "pasched_chaos" ".cache" in
  Sys.remove cache_file;
  Fun.protect ~finally:(fun () -> List.iter rm_f [ socket; cache_file; cache_file ^ ".journal" ])
  @@ fun () ->
  Serve_client.chaos ~exe:(Pasched_exe.path ()) ~socket ~cache_file ~shards:2
    ~cache_capacity:4096 ~max_inflight:0 ~window:64 ~retries
    ~backoff:(Serve_client.backoff ~base_ms:10.0 ())
    ~kill_at:0.5
    (List.of_seq
       (Serve_client.trace_requests ~alpha:3.0 ~batch:5
          (Workload.Stream.make ~seed:42 ~limit:1280
             ~size:(Workload.Stream.Pareto { shape = 2.2; scale = 0.5 })
             (Workload.Stream.Diurnal { base = 1.0; amplitude = 0.8; period = 1000.0 }))))

(* no child of this process is left running or unreaped *)
let check_no_children () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | 0, _ -> Alcotest.fail "a daemon is still running"
  | pid, _ -> Alcotest.failf "daemon %d was never reaped" pid

let test_chaos_drill () =
  let c = run_chaos ~retries:8 in
  let s = c.Serve_client.soak in
  check_int "every request answered ok" 256 s.Serve_client.ok;
  check_int "killed halfway" 2 c.Serve_client.killed_window;
  check_bool "warm recovery" true (c.Serve_client.warm_fraction >= 0.9);
  check_int "nothing corrupt in the journal" 0 c.Serve_client.skipped_corrupt;
  check_bool "pre-kill answers rechecked" true (c.Serve_client.rechecked > 0);
  check_int "rechecks byte-identical" 0 c.Serve_client.mismatches;
  check_no_children ();
  (* without retries the first window after the kill fails on the dead
     connection: the drill raises with its restarted daemon running *)
  (match run_chaos ~retries:0 with
  | exception (Failure _ | Unix.Unix_error _) -> ()
  | _ -> Alcotest.fail "an unmasked outage must raise");
  check_no_children ()

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "defaults" `Quick test_defaults;
          Alcotest.test_case "malformed-json" `Quick test_malformed_json;
          Alcotest.test_case "malformed-fields" `Quick test_malformed_fields;
          Alcotest.test_case "malformed-model" `Quick test_malformed_model;
        ] );
      ( "canonical",
        [
          Alcotest.test_case "reorder-collides" `Quick test_canonical_reorder;
          Alcotest.test_case "distinguishes" `Quick test_canonical_distinguishes;
          Alcotest.test_case "deadline-excluded" `Quick test_deadline_not_in_key;
          Alcotest.test_case "fnv-vectors" `Quick test_fnv_vectors;
          Alcotest.test_case "hex-floats" `Quick test_canon_hex_floats;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru-eviction" `Quick test_lru_eviction;
          Alcotest.test_case "lru-recency" `Quick test_lru_recency;
          Alcotest.test_case "collision-safety" `Quick test_collision_safety;
        ] );
      ( "session",
        [
          Alcotest.test_case "warm-cache-no-solver" `Quick test_warm_cache_no_solver;
          Alcotest.test_case "warm-cache-reordered" `Quick test_warm_cache_reordered;
          Alcotest.test_case "batch-dedupe" `Quick test_batch_dedupe;
          Alcotest.test_case "deadline-reply" `Quick test_deadline_reply;
          Alcotest.test_case "jobs-invariance" `Quick test_jobs_invariance;
          Alcotest.test_case "ops" `Quick test_ops;
          Alcotest.test_case "unknown-solver" `Quick test_unknown_solver_reply;
          Alcotest.test_case "pareto" `Quick test_pareto_reply;
          Alcotest.test_case "one-solve-path" `Quick test_one_solve_path;
          Alcotest.test_case "constraint-routing" `Quick test_constraint_routing;
          Alcotest.test_case "encode-once" `Quick test_encode_once;
        ] );
      ( "shard",
        [
          Alcotest.test_case "route-determinism" `Quick test_route_determinism;
          Alcotest.test_case "route-monotone" `Quick test_route_monotone;
          Alcotest.test_case "transparency" `Quick test_shard_transparency;
          Alcotest.test_case "busy-shed" `Quick test_busy_shed;
          Alcotest.test_case "snapshot-roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "snapshot-tolerant" `Quick test_snapshot_tolerant;
        ] );
      ( "journal",
        [
          Alcotest.test_case "crc-vector" `Quick test_crc_vector;
          Alcotest.test_case "frame-roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "replay-roundtrip" `Quick test_journal_replay_roundtrip;
          Alcotest.test_case "torn-tail" `Quick test_journal_torn_tail;
          Alcotest.test_case "bit-flip" `Quick test_journal_bitflip;
          Alcotest.test_case "duplicate-line" `Quick test_journal_duplicate_line;
          Alcotest.test_case "zero-length" `Quick test_journal_zero_length;
          Alcotest.test_case "layering" `Quick test_journal_layering;
          Alcotest.test_case "compaction" `Quick test_journal_compaction;
          Alcotest.test_case "append-buffered" `Quick test_journal_append_buffered;
          Alcotest.test_case "replay-linear" `Quick test_journal_replay_linear;
          Alcotest.test_case "replay-sweep" `Quick test_journal_replay_sweep;
          Alcotest.test_case "compaction-pins" `Quick test_compaction_pins;
          Alcotest.test_case "compaction-crash-sweep" `Quick test_compaction_crash_sweep;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "lifecycle" `Quick test_breaker_lifecycle;
          Alcotest.test_case "probe-slot" `Quick test_breaker_probe_slot;
          Alcotest.test_case "snapshot" `Quick test_breaker_snapshot;
          Alcotest.test_case "degrade-path" `Quick test_breaker_degrade_path;
          Alcotest.test_case "reject-no-fallback" `Quick test_breaker_reject_when_no_fallback;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "health-op" `Quick test_health_op;
          Alcotest.test_case "crash-warm-recovery" `Quick test_crash_warm_recovery;
          Alcotest.test_case "journal-per-miss" `Quick test_journal_per_miss;
          Alcotest.test_case "shutdown-checkpoint" `Quick test_shutdown_then_journal_replays;
          Alcotest.test_case "retry-bounds" `Quick test_retry_bounds;
          Alcotest.test_case "retry-transient" `Quick test_retry_transient_classifier;
          Alcotest.test_case "disconnect-mid-reply" `Quick test_disconnect_mid_reply;
        ] );
      ( "client",
        [
          Alcotest.test_case "reader" `Quick test_reader;
          Alcotest.test_case "retry-loop" `Quick test_retry_loop;
          Alcotest.test_case "chaos-drill" `Quick test_chaos_drill;
        ] );
      ( "engine-pool",
        [
          Alcotest.test_case "pool-determinism" `Quick test_pool_determinism;
          Alcotest.test_case "pool-exception" `Quick test_pool_exception;
          Alcotest.test_case "pool-shutdown" `Quick test_pool_shutdown_degrades;
        ] );
    ]
