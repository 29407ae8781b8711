(* pasched.obs + pasched.serve: the request reader.  Obs_json's cursor
   and the one-pass Serve_protocol.decode, checked against the tree
   parser and the tree-based decode they replaced, kept here verbatim
   as references.  test_obs checks the cursor's number step. *)

let () = Builtin.init ()

(* ---------------- references ---------------- *)

(* The tree parser before the cursor: [float_of_string] on every
   number's text, [int_of_string] on every \u escape *)
module Ref_json = struct
  open Obs_json

  exception Parse_error of int * string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let error msg = raise (Parse_error (!pos, msg)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        advance ()
      done
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> error (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else error (Printf.sprintf "expected %s" word)
    in
    let add_utf8 buf cp =
      (* encode one Unicode scalar value as UTF-8 *)
      if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else if cp < 0x10000 then begin
        Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
    in
    let hex4 () =
      if !pos + 4 > n then error "truncated \\u escape";
      let v = int_of_string ("0x" ^ String.sub s !pos 4) in
      pos := !pos + 4;
      v
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then error "unterminated string";
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then error "truncated escape";
           (match s.[!pos] with
           | '"' -> advance (); Buffer.add_char buf '"'
           | '\\' -> advance (); Buffer.add_char buf '\\'
           | '/' -> advance (); Buffer.add_char buf '/'
           | 'n' -> advance (); Buffer.add_char buf '\n'
           | 't' -> advance (); Buffer.add_char buf '\t'
           | 'r' -> advance (); Buffer.add_char buf '\r'
           | 'b' -> advance (); Buffer.add_char buf '\b'
           | 'f' -> advance (); Buffer.add_char buf '\012'
           | 'u' ->
             advance ();
             let cp = hex4 () in
             let cp =
               (* surrogate pair *)
               if cp >= 0xD800 && cp <= 0xDBFF && !pos + 2 <= n && s.[!pos] = '\\'
                  && !pos + 1 < n && s.[!pos + 1] = 'u'
               then begin
                 pos := !pos + 2;
                 let lo = hex4 () in
                 0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
               end
               else cp
             in
             add_utf8 buf cp
           | c -> error (Printf.sprintf "bad escape \\%C" c)));
          go ()
        | c ->
          advance ();
          Buffer.add_char buf c;
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_float = ref false in
      if peek () = Some '-' then advance ();
      let digits () =
        while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
          advance ()
        done
      in
      digits ();
      if peek () = Some '.' then begin
        is_float := true;
        advance ();
        digits ()
      end;
      (match peek () with
      | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
      | _ -> ());
      let text = String.sub s start (!pos - start) in
      if text = "" || text = "-" then error "bad number";
      if !is_float then Float (float_of_string text)
      else match int_of_string_opt text with Some i -> Int i | None -> Float (float_of_string text)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> error "unexpected end of input"
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ((k, v) :: acc)
            | Some '}' ->
              advance ();
              List.rev ((k, v) :: acc)
            | _ -> error "expected ',' or '}'"
          in
          Obj (members [])
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              elements (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> error "expected ',' or ']'"
          in
          List (elements [])
        end
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    match parse_value () with
    | v ->
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "at %d: trailing garbage" !pos) else Ok v
    | exception Parse_error (p, msg) -> Error (Printf.sprintf "at %d: %s" p msg)
    | exception Failure msg -> Error msg
end

(* The decode before the one-pass reader: [parse_solve]'s glue over the
   tree, with the job rows and their sort it used *)
module Ref_decode = struct
  open Serve_protocol

  module Obs_json = struct
    include Obs_json

    let of_string = Ref_json.of_string
  end

  module Serve_key = struct
    include Serve_key

    type row = { release : float; work : float; weight : float option; deadline : float option }

    (* [compare] on float options is fine here: decode has already
       rejected non-finite values, and None sorts before Some *)
    let compare_row a b =
      let c = Float.compare a.release b.release in
      if c <> 0 then c
      else
        let c = Float.compare a.work b.work in
        if c <> 0 then c
        else
          let c = compare a.weight b.weight in
          if c <> 0 then c else compare a.deadline b.deadline

    let canonical_jobs rows =
      let sorted = Array.copy rows in
      Array.stable_sort compare_row sorted;
      sorted
  end

  (* local control-flow carrier for the decoder; every raise is caught
     inside [decode] and folded into Invalid_input *)
  exception Bad of string

  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

  let finite what x =
    if not (Float.is_finite x) then bad "%s must be finite" what;
    x

  let as_float what = function
    | Some j -> (
      match Obs_json.to_float j with
      | Some x -> Some (finite what x)
      | None -> bad "%s must be a number" what)
    | None -> None

  let as_int what = function
    | Some j -> (
      match Obs_json.to_int j with Some i -> Some i | None -> bad "%s must be an integer" what)
    | None -> None

  let as_bool what = function
    | Some (Obs_json.Bool b) -> b
    | Some _ -> bad "%s must be a boolean" what
    | None -> false

  let as_string what = function
    | Some j -> (
      match Obs_json.to_string_val j with
      | Some s -> Some s
      | None -> bad "%s must be a string" what)
    | None -> None

  let float_list what = function
    | Some j -> (
      match Obs_json.to_list j with
      | Some elems ->
        Some
          (List.map
             (fun e ->
               match Obs_json.to_float e with
               | Some x -> finite what x
               | None -> bad "%s must contain only numbers" what)
             elems)
      | None -> bad "%s must be a list" what)
    | None -> None

  let parse_jobs = function
    | None -> bad "missing \"jobs\""
    | Some j -> (
      match Obs_json.to_list j with
      | None -> bad "\"jobs\" must be a list of [release, work] pairs"
      | Some [] -> bad "\"jobs\" must be non-empty"
      | Some elems ->
        List.map
          (fun e ->
            match Obs_json.to_list e with
            | Some [ r; w ] -> (
              match (Obs_json.to_float r, Obs_json.to_float w) with
              | Some r, Some w -> (finite "release" r, finite "work" w)
              | _ -> bad "job entries must be [release, work] number pairs")
            | _ -> bad "job entries must be [release, work] number pairs")
          elems)

  let parse_solve doc =
    let field k = Obs_json.member k doc in
    let objective =
      match as_string "\"objective\"" (field "objective") with
      | None -> bad "missing \"objective\""
      | Some s -> (
        match Problem.objective_of_string s with
        | Some o -> o
        | None -> bad "unknown objective %S (makespan|flow|maxflow|wflow|deadline)" s)
    in
    let alpha = Option.value ~default:3.0 (as_float "\"alpha\"" (field "alpha")) in
    let procs = Option.value ~default:1 (as_int "\"procs\"" (field "procs")) in
    let pairs = Array.of_list (parse_jobs (field "jobs")) in
    let n = Array.length pairs in
    let per_job what = function
      | None -> None
      | Some l ->
        if List.length l <> n then bad "%s must have one entry per job" what;
        Some (Array.of_list l)
    in
    let weights = per_job "\"weights\"" (float_list "\"weights\"" (field "weights")) in
    let deadlines = per_job "\"deadlines\"" (float_list "\"deadlines\"" (field "deadlines")) in
    let mode =
      let budget = as_float "\"budget\"" (field "budget") in
      let target = as_float "\"target\"" (field "target") in
      let pareto = as_bool "\"pareto\"" (field "pareto") in
      match (budget, target, pareto) with
      | Some _, Some _, _ -> bad "\"budget\" and \"target\" are mutually exclusive"
      | _, _, true ->
        if budget <> None || target <> None then
          bad "\"pareto\" excludes \"budget\" and \"target\"";
        Problem.Pareto
      | Some e, None, false -> Problem.Budget e
      | None, Some v, false -> Problem.Target v
      | None, None, false ->
        if objective = Problem.Deadline_energy then Problem.Feasible
        else bad "one of \"budget\", \"target\" or \"pareto\": true is required"
    in
    let solver =
      match as_string "\"solver\"" (field "solver") with
      | None | Some "auto" -> None
      | Some s -> Some s
    in
    let points =
      match as_int "\"points\"" (field "points") with
      | None -> 0
      | Some p ->
        if p < 0 then bad "\"points\" must be >= 0";
        p
    in
    let deadline_s =
      match as_float "\"deadline_s\"" (field "deadline_s") with
      | None -> None
      | Some d ->
        if d < 0.0 then bad "\"deadline_s\" must be >= 0";
        Some d
    in
    let speed_cap = as_float "\"speed_cap\"" (field "speed_cap") in
    let levels = float_list "\"levels\"" (field "levels") in
    (* canonical job order before the instance is built: reordered-but-
       equal requests must yield identical instances, ids and replies *)
    let rows =
      Array.mapi
        (fun i (release, work) ->
          {
            Serve_key.release;
            work;
            weight = Option.map (fun a -> a.(i)) weights;
            deadline = Option.map (fun a -> a.(i)) deadlines;
          })
        pairs
    in
    let rows = Serve_key.canonical_jobs rows in
    let pairs = Array.map (fun r -> (r.Serve_key.release, r.Serve_key.work)) rows in
    let weights = Option.map (fun _ -> Array.map (fun r -> Option.get r.Serve_key.weight) rows) weights in
    let deadlines =
      Option.map (fun _ -> Array.map (fun r -> Option.get r.Serve_key.deadline) rows) deadlines
    in
    let problem =
      Problem.make ~procs ?speed_cap ?levels ?weights ?deadlines ~objective ~mode ~alpha ()
    in
    let inst = Instance.of_pairs (Array.to_list pairs) in
    let canon = Serve_key.canon ~solver ~points problem pairs in
    { solver; problem; inst; points; deadline_s; canon; hash = Serve_key.hash canon }

  let decode line =
    let id = ref Obs_json.Null in
    match
      match Obs_json.of_string line with
      | Error msg -> Error (Guard_error.Invalid_input ("request is not valid JSON: " ^ msg))
      | Ok (Obs_json.Obj _ as doc) -> (
        (match Obs_json.member "id" doc with Some v -> id := v | None -> ());
        try
          let op =
            match Obs_json.member "op" doc with
            | None -> Solve (parse_solve doc)
            | Some j -> (
              match Obs_json.to_string_val j with
              | Some "solve" -> Solve (parse_solve doc)
              | Some "stats" -> Stats
              | Some "health" -> Health
              | Some "ping" -> Ping
              | Some "shutdown" -> Shutdown
              | Some s -> bad "unknown op %S (solve|stats|health|ping|shutdown)" s
              | None -> bad "\"op\" must be a string")
          in
          Ok { id = !id; op }
        with
        | Bad msg -> Error (Guard_error.Invalid_input msg)
        | Invalid_argument msg -> Error (Guard_error.Invalid_input msg)
        | e -> Error (Guard_error.of_exn ~solver:"serve.decode" e))
      | Ok _ -> Error (Guard_error.Invalid_input "request must be a JSON object")
    with
    | Ok r -> Ok r
    | Error e -> Error (!id, e)
end

(* ---------------- comparison ---------------- *)

let bits_eq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let rec tree_eq a b =
  match (a, b) with
  | Obs_json.Float x, Obs_json.Float y -> bits_eq x y
  | Obs_json.List xs, Obs_json.List ys -> List.equal tree_eq xs ys
  | Obs_json.Obj xs, Obs_json.Obj ys ->
    List.equal (fun (k, v) (k', v') -> String.equal k k' && tree_eq v v') xs ys
  | a, b -> a = b

let opt_eq eq a b =
  match (a, b) with None, None -> true | Some x, Some y -> eq x y | _ -> false

let arr_eq a b = Array.length a = Array.length b && Array.for_all2 bits_eq a b

let problem_eq (p : Problem.t) (q : Problem.t) =
  p.Problem.objective = q.Problem.objective
  && p.Problem.procs = q.Problem.procs
  && (match (p.Problem.mode, q.Problem.mode) with
     | Problem.Budget a, Problem.Budget b | Problem.Target a, Problem.Target b -> bits_eq a b
     | Problem.Pareto, Problem.Pareto | Problem.Feasible, Problem.Feasible -> true
     | _ -> false)
  && bits_eq p.Problem.alpha q.Problem.alpha
  && opt_eq bits_eq p.Problem.speed_cap q.Problem.speed_cap
  && opt_eq (List.equal bits_eq) p.Problem.levels q.Problem.levels
  && opt_eq arr_eq p.Problem.weights q.Problem.weights
  && opt_eq arr_eq p.Problem.deadlines q.Problem.deadlines

let inst_eq a b =
  let ja = Instance.jobs a and jb = Instance.jobs b in
  Array.length ja = Array.length jb
  && Array.for_all2
       (fun (x : Job.t) (y : Job.t) ->
         x.Job.id = y.Job.id && bits_eq x.Job.release y.Job.release && bits_eq x.Job.work y.Job.work)
       ja jb

let request_eq (a : Serve_protocol.solve_request) (b : Serve_protocol.solve_request) =
  a.Serve_protocol.solver = b.Serve_protocol.solver
  && problem_eq a.Serve_protocol.problem b.Serve_protocol.problem
  && inst_eq a.Serve_protocol.inst b.Serve_protocol.inst
  && a.Serve_protocol.points = b.Serve_protocol.points
  && opt_eq bits_eq a.Serve_protocol.deadline_s b.Serve_protocol.deadline_s
  && String.equal a.Serve_protocol.canon b.Serve_protocol.canon
  && Int64.equal a.Serve_protocol.hash b.Serve_protocol.hash

(* The only texts the cursor changed: a number [float_of_string]
   rejects and a \u escape [int_of_string] rejects used to surface as
   those bare [Failure] texts, and are now positioned *)
let positioned ~reference text =
  let at what = String.starts_with ~prefix:"at " text && String.ends_with ~suffix:(": " ^ what) text in
  (reference = "float_of_string" && at "bad number")
  || (reference = "int_of_string" && at "bad \\u escape")

let same_parse r n =
  match (r, n) with
  | Ok a, Ok b -> tree_eq a b
  | Error a, Error b -> String.equal a b || positioned ~reference:a b
  | _ -> false

let json_prefix = "request is not valid JSON: "

let same_error a b =
  match (a, b) with
  | Guard_error.Invalid_input a, Guard_error.Invalid_input b ->
    String.equal a b
    ||
    let k = String.length json_prefix in
    String.starts_with ~prefix:json_prefix a
    && String.starts_with ~prefix:json_prefix b
    && positioned ~reference:(String.sub a k (String.length a - k)) (String.sub b k (String.length b - k))
  | a, b -> String.equal (Guard_error.to_string a) (Guard_error.to_string b)

let same_decode r n =
  match (r, n) with
  | Ok a, Ok b -> (
    tree_eq a.Serve_protocol.id b.Serve_protocol.id
    &&
    match (a.Serve_protocol.op, b.Serve_protocol.op) with
    | Serve_protocol.Solve x, Serve_protocol.Solve y -> request_eq x y
    | Serve_protocol.Solve _, _ | _, Serve_protocol.Solve _ -> false
    | x, y -> x = y)
  | Error (ia, ea), Error (ib, eb) -> tree_eq ia ib && same_error ea eb
  | _ -> false

let show = function
  | Ok { Serve_protocol.id; op } ->
    Printf.sprintf "ok id=%s %s" (Obs_json.to_string id)
      (match op with Serve_protocol.Solve sr -> sr.Serve_protocol.canon | _ -> "(op)")
  | Error (id, e) -> Printf.sprintf "error id=%s %s" (Obs_json.to_string id) (Guard_error.to_string e)

(* ---------------- fixed request lines ---------------- *)

(* the serve_trace shape: five makespan jobs and a deadline *)
let trace_line =
  {|{"id":4711,"deadline_s":60,"op":"solve","objective":"makespan","alpha":3,"budget":7.1381097765440655,"jobs":[[0,0.51839318916429097],[0.79516013154816573,1.2005620416640961],[1.3313486400385453,0.59262870689497587],[2.4086420106962173,0.63512049934598659],[2.6412131452718348,0.62234245142170322]]}|}

(* the serve_flow shape: 64 equal-work jobs at %.17g releases *)
let flow_line =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    {|{"id":3,"op":"solve","objective":"flow","alpha":3,"budget":186.52381945123456,"jobs":[[0,1]|};
  let release = ref 0.0 in
  for i = 1 to 63 do
    release := !release +. 0.37 +. (float_of_int ((i * 7919) mod 101) /. 97.0);
    Printf.bprintf b ",[%.17g,1]" !release
  done;
  Buffer.add_string b "]}";
  Buffer.contents b

(* every field, a string id with an escape, an unknown key and a
   duplicate key (the first "alpha" wins) *)
let wflow_line =
  {|{"id":"r\u00e9q-7","op":"solve","objective":"wflow","solver":"auto","alpha":2.5,"procs":1,"budget":40.5,"jobs":[[3,1.5],[0,1],[0.5,2],[0.5,1]],"weights":[3,1,2,0.5],"deadlines":[20,10,12,9],"levels":[4,0.5,1,2],"speed_cap":4,"points":3,"x-note":{"a":[1,true,null,-0.0]},"alpha":9}|}

(* hand-picked shapes: wrong types for every field, duplicates of the
   array fields, non-finite numbers, the order of the semantic checks *)
let edge_lines =
  [
    {|{"objective":"makespan","budget":1,"jobs":[[1e999,1e999]]}|};
    {|{"objective":"makespan","budget":1,"jobs":[[1e999,1]]}|};
    {|{"objective":"makespan","budget":1,"jobs":[[0,1],[1,2,3]]}|};
    {|{"objective":"makespan","budget":1,"jobs":[[0,1],"x",[1e999,1]]}|};
    {|{"objective":"makespan","budget":1,"jobs":[]}|};
    {|{"objective":"makespan","budget":1,"jobs":[[]]}|};
    {|{"objective":"makespan","budget":1,"jobs":{"a":1}}|};
    {|{"objective":"makespan","budget":1,"jobs":[[0,1]],"jobs":7}|};
    {|{"objective":"makespan","budget":1,"jobs":7,"jobs":[[0,1]]}|};
    {|{"objective":"wflow","budget":1,"jobs":[[0,1],[0,2]],"weights":[1]}|};
    {|{"objective":"wflow","budget":1,"jobs":[[0,1],[0,2]],"weights":[1,"a"],"deadlines":5}|};
    {|{"objective":"wflow","budget":1,"jobs":[[0,1],[0,2]],"weights":[1,1e999,"a"]}|};
    {|{"objective":"wflow","budget":1,"jobs":[[0,1],[0,2]],"weights":[2,-1],"deadlines":[1,2]}|};
    {|{"objective":"makespan","budget":1,"jobs":[[0,1]],"levels":[]}|};
    {|{"objective":"makespan","budget":1,"jobs":[[0,1]],"levels":[2,"x"],"speed_cap":-1}|};
    {|{"objective":"makespan","budget":1,"jobs":[[-1,1],[0,-1]]}|};
    {|{"objective":"makespan","budget":1,"jobs":[[0,-1],[1,2]]}|};
    {|{"objective":"makespan","budget":-0.0,"jobs":[[-0.0,1],[0,1]]}|};
    {|{"objective":"makespan","budget":1,"target":2,"pareto":"yes","jobs":[[0,1]]}|};
    {|{"objective":"makespan","pareto":true,"target":2,"jobs":[[0,1]]}|};
    {|{"objective":"deadline","jobs":[[0,1]],"deadlines":[2]}|};
    {|{"objective":5,"alpha":"x","procs":1.5,"jobs":[[0,1]]}|};
    {|{"objective":"makespan","alpha":1,"procs":0,"budget":1,"jobs":[[0,1]]}|};
    {|{"objective":"makespan","budget":1,"jobs":[[0,1]],"points":-1,"deadline_s":-1}|};
    {|{"objective":"makespan","budget":1,"jobs":[[0,1]],"points":2.0}|};
    {|{"objective":"makespan","budget":1,"jobs":[[0,1]],"solver":7}|};
    {|{"op":"stats","jobs":"junk","id":[1,{"b":null}]}|};
    {|{"op":7,"id":1}|};
    {|{"op":"nope","id":1,"id":2}|};
    {|{"id":12345678901234567890,"objective":"makespan","budget":1,"jobs":[[0,1]]}|};
    {|{"id":-0,"objective":"makespan","budget":1e-400,"jobs":[[0,1]]}|};
    {|{"objective":"makespan","budget":1,"jobs":[[0,1]],"budget":"x"}|};
    {| { "objective" : "makespan" , "budget" : 1 , "jobs" : [ [ 0 , 1 ] , [ 2 , 3 ] ] } |};
    {|{"objective":"makespan","budget":1.,"jobs":[[.5,01],[-0,1E5]]}|};
    {|{}|};
    {|[]|};
    {|"x"|};
    {|{"x":"\uzzzz"}|};
    {|{"x":"\u12_4","y":"\ud83d\ude00"}|};
    {|{"objective":"makespan","budget":1e,"jobs":[[0,1]]}|};
    {|{"objective":"makespan","budget":-e5,"jobs":[[0,1]]}|};
  ]

(* ---------------- tests ---------------- *)

let check_parse line =
  let r = Ref_json.of_string line and n = Obs_json.of_string line in
  if not (same_parse r n) then
    Alcotest.failf "of_string differs on %S: %s vs %s" line
      (match r with Ok v -> Obs_json.to_string v | Error e -> e)
      (match n with Ok v -> Obs_json.to_string v | Error e -> e)

let check_decode line =
  let r = Ref_decode.decode line and n = Serve_protocol.decode line in
  if not (same_decode r n) then Alcotest.failf "decode differs on %S:\n  %s\n  %s" line (show r) (show n)

let check_same line =
  check_parse line;
  check_decode line

let test_edge_lines () =
  List.iter check_same (trace_line :: flow_line :: wflow_line :: edge_lines);
  (* the fixed lines decode, as the parent did *)
  List.iter
    (fun line ->
      match Serve_protocol.decode line with
      | Ok { Serve_protocol.op = Serve_protocol.Solve _; _ } -> ()
      | _ -> Alcotest.failf "%s does not decode" line)
    [ trace_line; flow_line; wflow_line ]

(* every prefix, every one-byte deletion, and every byte replaced by
   each of twelve structural bytes, of the three fixed lines: decode
   against the reference decode, and the tree parser against its
   reference on the prefixes and deletions *)
let test_mutation_sweep () =
  let subst = [ '"'; ','; ':'; '['; ']'; '{'; '}'; '0'; 'e'; '-'; '.'; ' ' ] in
  List.iter
    (fun line ->
      let n = String.length line in
      for k = 0 to n do
        check_same (String.sub line 0 k)
      done;
      let b = Bytes.of_string line in
      for k = 0 to n - 1 do
        check_same (String.sub line 0 k ^ String.sub line (k + 1) (n - k - 1));
        List.iter
          (fun ch ->
            if line.[k] <> ch then begin
              Bytes.set b k ch;
              check_decode (Bytes.to_string b)
            end)
          subst;
        Bytes.set b k line.[k]
      done)
    [ trace_line; flow_line; wflow_line ]

(* ---- positioned errors ---- *)

let test_positioned_errors () =
  let parse_error s = match Obs_json.of_string s with Error e -> e | Ok _ -> Alcotest.failf "%S parsed" s in
  let decode_error s =
    match Serve_protocol.decode s with
    | Error (_, e) -> Guard_error.to_string e
    | Ok _ -> Alcotest.failf "%S decoded" s
  in
  List.iter
    (fun (s, text) ->
      Alcotest.(check string) ("of_string " ^ s) text (parse_error s);
      Alcotest.(check string) ("decode " ^ s) ("invalid input: request is not valid JSON: " ^ text)
        (decode_error s))
    [
      ({|{"objective":"makespan","budget":1e,"jobs":[[0,1]]}|}, "at 35: bad number");
      ({|{"objective":"makespan","budget":-e5,"jobs":[[0,1]]}|}, "at 36: bad number");
      ({|{"objective":"makespan","x":"\uzzzz","jobs":[[0,1]]}|}, "at 31: bad \\u escape");
    ];
  (* what the grammar accepted stays accepted *)
  List.iter
    (fun (s, v) ->
      match Obs_json.of_string s with
      | Ok w when tree_eq v w -> ()
      | _ -> Alcotest.failf "%S no longer reads as before" s)
    [ ("1.", Obs_json.Float 1.0); (".5", Obs_json.Float 0.5); ("01", Obs_json.Int 1); ("-0", Obs_json.Int 0);
      ("1E5", Obs_json.Float 1e5); ({|"\u1_2_"|}, Obs_json.String "\x12") ]

(* ---- the reader's work ---- *)

(* Minor words per decode are exact and the same on every run, so they
   are pinned at equality: 537 for the 5-job line and 1,807 for the
   64-job one on OCaml 5.1 (1,587 and 9,760 with the tree-based
   decode; one of them is the cursor's nesting depth).  A second
   parse, a list per job or a boxed float per number moves them.  Most of what is left is the result: the canonical
   string, the jobs and the problem.  The key's [Buffer] records take 7
   words on OCaml 5 and 5 on 4.14, so that part is measured *)
let test_decode_words () =
  let words f =
    ignore (Sys.opaque_identity (f ()));
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  (* a one-byte buffer: its records and a two-word byte block *)
  let records = words (fun () -> Buffer.create 1) -. 2.0 in
  let decode line () = Serve_protocol.decode line in
  Alcotest.(check (float 0.0)) "words per 5-job serve_trace decode" (530.0 +. records) (words (decode trace_line));
  Alcotest.(check (float 0.0)) "words per 64-job serve_flow decode" (1800.0 +. records) (words (decode flow_line))

let () =
  Alcotest.run "reader"
    [
      ( "decode",
        [
          Alcotest.test_case "edge-lines" `Quick test_edge_lines;
          Alcotest.test_case "mutation-sweep" `Quick test_mutation_sweep;
          Alcotest.test_case "positioned-errors" `Quick test_positioned_errors;
          Alcotest.test_case "words-pinned" `Quick test_decode_words;
        ] );
    ]
