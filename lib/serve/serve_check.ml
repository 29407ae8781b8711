(* serve cases stay small for the same reason chaos cases do: the
   transparency property runs real solves, twice *)
let prepare c = Oracle.truncate 6 c

let request_json ?(rev = false) (c : Oracle.case) =
  let open Obs_json in
  let jobs = Array.to_list (Instance.jobs c.Oracle.inst) in
  let jobs = if rev then List.rev jobs else jobs in
  Obj
    [
      ("id", Int c.Oracle.seed);
      ("op", String "solve");
      ("objective", String "makespan");
      ("alpha", Float c.Oracle.alpha);
      ("budget", Float c.Oracle.energy);
      ("procs", Int 1);
      ( "jobs",
        List (List.map (fun (j : Job.t) -> List [ Float j.Job.release; Float j.Job.work ]) jobs)
      );
    ]

let decode_solve line =
  match Serve_protocol.decode line with
  | Ok { Serve_protocol.op = Serve_protocol.Solve sr; id } -> Ok (id, sr)
  | Ok _ -> Error "decoded to a non-solve op"
  | Error (_, e) -> Error (Guard_error.to_string e)

let roundtrip c =
  let c = prepare c in
  match decode_solve (Obs_json.to_string (request_json ~rev:true c)) with
  | Error m -> Oracle.Fail ("decode failed: " ^ m)
  | Ok (id, sr) -> (
    match decode_solve (Obs_json.to_string (Serve_protocol.solve_request_json ~id sr)) with
    | Error m -> Oracle.Fail ("re-encoded request rejected: " ^ m)
    | Ok (_, sr2) ->
      if
        String.equal sr.Serve_protocol.canon sr2.Serve_protocol.canon
        && Int64.equal sr.Serve_protocol.hash sr2.Serve_protocol.hash
      then Oracle.Pass
      else Oracle.Fail "canonical form is not a fixed point of encode/decode")

let canonical c =
  let c = prepare c in
  match
    ( decode_solve (Obs_json.to_string (request_json c)),
      decode_solve (Obs_json.to_string (request_json ~rev:true c)) )
  with
  | Error m, _ | _, Error m -> Oracle.Fail ("decode failed: " ^ m)
  | Ok (_, a), Ok (_, b) ->
    if not (String.equal a.Serve_protocol.canon b.Serve_protocol.canon) then
      Oracle.Fail "job order leaked into the canonical string"
    else if not (Int64.equal a.Serve_protocol.hash b.Serve_protocol.hash) then
      Oracle.Fail "job order leaked into the hash"
    else if
      not
        (Array.for_all2
           (fun (x : Job.t) (y : Job.t) -> x.Job.release = y.Job.release && x.Job.work = y.Job.work)
           (Instance.jobs a.Serve_protocol.inst)
           (Instance.jobs b.Serve_protocol.inst))
    then Oracle.Fail "job order leaked into the decoded instance"
    else Oracle.Pass

let malformed (c : Oracle.case) =
  let base = Obs_json.to_string (request_json (prepare c)) in
  let corrupt =
    match abs c.Oracle.seed mod 5 with
    | 0 ->
      (* truncation somewhere strictly inside the line *)
      let len = String.length base in
      String.sub base 0 (1 + (abs (c.Oracle.seed / 5) mod (len - 1)))
    | 1 -> {|{"id": 0, "op": "bogus"}|}
    | 2 -> {|{"op": "solve", "objective": "makespan", "budget": 1, "jobs": []}|}
    | 3 -> {|{"op": "solve", "objective": "makespan", "budget": 1, "alpha": 1.0, "jobs": [[0, 1]]}|}
    | _ -> {|{"op": "solve", "objective": "makespan", "budget": -5, "jobs": [[0, 1]]}|}
  in
  match Serve_protocol.decode corrupt with
  | Error (_, Guard_error.Invalid_input _) -> Oracle.Pass
  | Error (_, e) ->
    Oracle.Fail ("rejected with the wrong class: " ^ Guard_error.class_string e)
  | Ok _ -> Oracle.Fail ("corrupted request was accepted: " ^ corrupt)
  | exception e -> Oracle.Fail ("decode raised: " ^ Printexc.to_string e)

let transparency c =
  let c = prepare c in
  let p =
    Problem.make ~objective:Problem.Makespan ~mode:(Problem.Budget c.Oracle.energy)
      ~alpha:c.Oracle.alpha ()
  in
  match Engine.supporting p c.Oracle.inst with
  | [] -> Oracle.Skip "no supporting solver"
  | _ :: _ -> (
    let t = Serve_shard.create ~jobs:1 ~cache_capacity:8 ~policy:Guard.off () in
    let line = Obs_json.to_string (request_json c) in
    let cold = Serve_shard.handle_line t line in
    let warm = Serve_shard.handle_line t line in
    let st = Serve_shard.stats t in
    Serve_shard.shutdown t;
    if not (String.equal cold warm) then Oracle.Fail "warm reply differs from cold reply"
    else
      match Serve_protocol.reply_status cold with
      | None -> Oracle.Fail "reply is not a JSON object with a status"
      | Some "ok" when st.Serve_shard.cache.Serve_cache.hits < 1 ->
        Oracle.Fail "repeat of an ok reply recorded no cache hit"
      | Some _ -> (
        match Obs_json.of_string cold with
        | Error m -> Oracle.Fail ("reply not valid JSON: " ^ m)
        | Ok doc ->
          if String.equal (Obs_json.to_string doc) cold then Oracle.Pass
          else Oracle.Fail "reply JSON does not round-trip through the parser"))

let shard_transparency c =
  let c = prepare c in
  let p =
    Problem.make ~objective:Problem.Makespan ~mode:(Problem.Budget c.Oracle.energy)
      ~alpha:c.Oracle.alpha ()
  in
  match Engine.supporting p c.Oracle.inst with
  | [] -> Oracle.Skip "no supporting solver"
  | _ :: _ ->
    (* a deduped set: distinct budgets make distinct canonical keys *)
    let lines =
      List.init 4 (fun i ->
          let open Obs_json in
          match request_json c with
          | Obj fields ->
            to_string
              (Obj
                 (List.map
                    (function
                      | "budget", _ ->
                        ("budget", Float (c.Oracle.energy *. (1.0 +. (0.25 *. float_of_int i))))
                      | kv -> kv)
                    fields))
          | _ -> assert false)
    in
    let run shards =
      let t = Serve_shard.create ~jobs:1 ~shards ~cache_capacity:8 ~policy:Guard.off () in
      let replies = Serve_shard.handle_batch t lines in
      let repeat = Serve_shard.handle_batch t lines in
      let st = Serve_shard.stats t in
      Serve_shard.shutdown t;
      (replies, repeat, st)
    in
    let one, one_rep, st1 = run 1 in
    let many, many_rep, st3 = run 3 in
    if not (List.equal String.equal one many) then
      Oracle.Fail "replies differ between 1 shard and 3 shards"
    else if not (List.equal String.equal one_rep many_rep) then
      Oracle.Fail "repeat replies differ between 1 shard and 3 shards"
    else if not (List.equal String.equal one one_rep) then
      Oracle.Fail "repeated batch not answered byte-identically"
    else if
      List.exists (fun r -> Serve_protocol.reply_status r = Some "ok") one
      && (st1.Serve_shard.cache.Serve_cache.hits < 1
         || st3.Serve_shard.cache.Serve_cache.hits < 1)
    then Oracle.Fail "repeated batch recorded no cache hit at some shard count"
    else Oracle.Pass

(* journal recovery under randomized crash debris: whatever the
   corruption — torn tail, bit flip, duplicated line, zero-length file
   — replay recovers exactly the intact prefix-closed set and counts
   the rest, never raising *)
let journal_recovery (c : Oracle.case) =
  let seed = abs c.Oracle.seed in
  let k = 4 + (seed mod 5) in
  let payload i = [ ("status", Obs_json.String "ok"); ("n", Obs_json.Int i) ] in
  let path = Filename.temp_file "pasched_jrnl_fuzz" ".cache" in
  Sys.remove path;
  let jf = path ^ ".journal" in
  let cleanup () =
    List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ path; jf; path ^ ".tmp" ]
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let j = Serve_journal.open_ ~compact_every:0 ~path () in
  for i = 0 to k - 1 do
    Serve_journal.append j ~canon:(Printf.sprintf "k%d-%d" seed i) (payload i)
  done;
  Serve_journal.close j;
  let read_all () =
    let ic = open_in_bin jf in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let write_all s =
    let oc = open_out_bin jf in
    output_string oc s;
    close_out oc
  in
  let expect_replayed, expect_skipped =
    match seed mod 4 with
    | 0 ->
      (* torn tail: the crash cut the last line mid-write *)
      let s = read_all () in
      let cut = 2 + (seed / 4 mod 6) in
      write_all (String.sub s 0 (String.length s - cut));
      (k - 1, 1)
    | 1 ->
      (* single bit flip inside one line's entry bytes *)
      let s = read_all () in
      let line = seed / 4 mod k in
      let start = ref 0 in
      for _ = 1 to line do
        start := String.index_from s !start '\n' + 1
      done;
      let stop = String.index_from s !start '\n' in
      let pos = !start + 26 + (seed / 16 mod (stop - !start - 27)) in
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
      write_all (Bytes.to_string b);
      (k - 1, 1)
    | 2 ->
      (* duplicated line: replays twice, insert idempotence absorbs it *)
      let s = read_all () in
      write_all (s ^ String.sub s 0 (String.index s '\n' + 1));
      (k + 1, 0)
    | _ ->
      (* zero-length journal: a crash before any flush *)
      write_all "";
      (0, 0)
  in
  let j2 = Serve_journal.open_ ~compact_every:0 ~path () in
  let n = ref 0 in
  let outcome =
    match Serve_journal.replay j2 (fun ~canon:_ _ -> incr n) with
    | () ->
      let st = Serve_journal.stats j2 in
      if !n <> expect_replayed then
        Oracle.Fail (Printf.sprintf "replayed %d entries, expected %d" !n expect_replayed)
      else if st.Serve_journal.skipped_corrupt <> expect_skipped then
        Oracle.Fail
          (Printf.sprintf "skipped_corrupt %d, expected %d" st.Serve_journal.skipped_corrupt
             expect_skipped)
      else Oracle.Pass
    | exception e -> Oracle.Fail ("replay raised: " ^ Printexc.to_string e)
  in
  Serve_journal.close j2;
  outcome

let props =
  [
    ( "serve:roundtrip",
      "decode . encode is the identity on canonical request forms",
      roundtrip );
    ("serve:canonical", "job order never reaches the cache key or the instance", canonical);
    ( "serve:malformed",
      "corrupted requests are rejected as invalid-input, never an escaped exception",
      malformed );
    ( "serve:cache-transparent",
      "a repeated request is answered byte-identically from cache",
      transparency );
    ( "serve:shard-transparent",
      "a deduped request set is answered byte-identically at any shard count, with cache \
       hits on repeats",
      shard_transparency );
    ( "serve:journal-recovery",
      "journal replay recovers every intact entry and skips crash debris (torn tail, bit \
       flip, duplicate, empty) without raising",
      journal_recovery );
  ]

let registered = ref false

let register () =
  if not !registered then begin
    registered := true;
    List.iter (fun (name, doc, run) -> Oracle.register { Oracle.name; doc; run }) props
  end
