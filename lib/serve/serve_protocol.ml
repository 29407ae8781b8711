type solve_request = {
  solver : string option;
  problem : Problem.t;
  inst : Instance.t;
  points : int;
  deadline_s : float option;
  canon : string;
  hash : int64;
}

type op = Solve of solve_request | Stats | Health | Ping | Shutdown

type request = { id : Obs_json.t; op : op }

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

let solve_request_json ~id sr =
  let open Obs_json in
  let p = sr.problem in
  let jobs = Instance.jobs sr.inst in
  let floats a = List (Array.to_list (Array.map (fun x -> Float x) a)) in
  let fields =
    [ ("id", id); ("op", String "solve") ]
    @ [ ("solver", match sr.solver with None -> String "auto" | Some s -> String s) ]
    @ [ ("objective", String (Problem.objective_to_string p.Problem.objective)) ]
    @ [ ("alpha", Float p.Problem.alpha); ("procs", Int p.Problem.procs) ]
    @ (match p.Problem.mode with
      | Problem.Budget e -> [ ("budget", Float e) ]
      | Problem.Target v -> [ ("target", Float v) ]
      | Problem.Pareto -> [ ("pareto", Bool true) ]
      | Problem.Feasible -> [])
    @ [
        ( "jobs",
          List
            (Array.to_list
               (Array.map
                  (fun (j : Job.t) -> List [ Float j.Job.release; Float j.Job.work ])
                  jobs)) );
      ]
    @ (match p.Problem.weights with Some w -> [ ("weights", floats w) ] | None -> [])
    @ (match p.Problem.deadlines with Some d -> [ ("deadlines", floats d) ] | None -> [])
    @ (match p.Problem.speed_cap with Some c -> [ ("speed_cap", Float c) ] | None -> [])
    @ (match p.Problem.levels with
      | Some ls -> [ ("levels", List (List.map (fun l -> Float l) ls)) ]
      | None -> [])
    @ (if sr.points <> 0 then [ ("points", Int sr.points) ] else [])
    @ match sr.deadline_s with Some d -> [ ("deadline_s", Float d) ] | None -> []
  in
  Obj fields

let schedule_json sched =
  Obs_json.List
    (List.map
       (fun (e : Schedule.entry) ->
         Obs_json.Obj
           [
             ("job", Obs_json.Int e.Schedule.job.Job.id);
             ("proc", Obs_json.Int e.Schedule.proc);
             ("start", Obs_json.Float e.Schedule.start);
             ("speed", Obs_json.Float e.Schedule.speed);
           ])
       (Schedule.entries sched))

(* runs on pool workers: the buffer is per call, so they share nothing *)
let ok_payload ~points (r : Solve_result.t) =
  let open Obs_json in
  let buf = Buffer.create 256 in
  let raw v =
    Buffer.clear buf;
    write buf v;
    Raw (Buffer.contents buf)
  in
  let float x = Raw (float_to_string x) in
  [
    ("status", String "ok");
    ("solver", String r.Solve_result.solver);
    ("value", float r.Solve_result.value);
    ("energy", float r.Solve_result.energy);
    ( "diagnostics",
      raw (Obj (List.map (fun (k, v) -> (k, Float v)) r.Solve_result.diagnostics)) );
  ]
  @ (match r.Solve_result.schedule with
    | Some s -> [ ("schedule", raw (schedule_json s)) ]
    | None -> [])
  @
  match r.Solve_result.pareto with
  | None -> []
  | Some pa ->
    let bps = pa.Solve_result.breakpoints in
    [ ("breakpoints", raw (List (List.map (fun b -> Float b) bps))) ]
    @
    if points <= 0 || bps = [] then []
    else
      let lo = List.hd bps and hi = List.fold_left Float.max (List.hd bps) bps in
      let samples =
        if hi > lo then pa.Solve_result.sample ~lo ~hi ~n:points
        else [ (lo, pa.Solve_result.value_at lo) ]
      in
      [ ("curve", raw (List (List.map (fun (e, v) -> List [ Float e; Float v ]) samples))) ]

let error_payload e =
  let open Obs_json in
  [
    ("status", String "error");
    ("class", String (Guard_error.class_string e));
    ("message", String (Guard_error.to_string e));
  ]

(* admission-control shed: its own status (never "ok", so it can never
   be cached; never "error", so callers can tell overload from request
   faults), the index of the shard that shed it (operator-facing: which
   shard is saturated) and a fixed message.  Busy replies are therefore
   not shard-count transparent; only ok and error replies are *)
let busy_payload ~shard =
  let open Obs_json in
  [
    ("status", String "busy");
    ("class", String "busy");
    ("shard", Int shard);
    ("message", String "server at admission limit; retry");
  ]

(* circuit-breaker refusal: the named solver's breaker is open and no
   healthy registered solver accepts the instance.  Its own status —
   like "busy" it is transient (the cooldown will elapse) and must
   never be cached; unlike "busy" its text names only the solver, never
   the serving topology *)
let degraded_payload ~solver =
  let open Obs_json in
  [
    ("status", String "degraded");
    ("class", String "breaker-open");
    ("solver", String solver);
    ("message", String "circuit breaker open and no healthy fallback; retry after cooldown");
  ]

let reply_string ~id payload = Obs_json.to_string (Obs_json.Obj (("id", id) :: payload))

let reply_field reply field =
  match Obs_json.of_string reply with
  | Ok doc -> Option.bind (field doc) Obs_json.to_string_val
  | Error _ -> None

let reply_status reply = reply_field reply (Obs_json.member "status")
let reply_class reply = reply_field reply (Obs_json.member "class")
