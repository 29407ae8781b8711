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

(* ---- the one-pass reader ----

   [decode] walks the request object once with [Obs_json]'s cursor.
   The number lists go straight into float arrays and the scalars into
   small trees, one slot a key; the first of two equal keys wins, as
   [List.assoc_opt] does on a parsed object.  A value of the wrong
   shape is still read, for its syntax, and its error is kept, so the
   semantic checks run after the whole line has parsed, in the order
   [parse_solve] gives them. *)

(* room for element n in a growable float column *)
let push a n =
  if n = Array.length !a then begin
    let b = Array.make (2 * n) 0.0 in
    Array.blit !a 0 b 0 n;
    a := b
  end

(* a number list: the values read, or its first error: not a list,
   else the first element that is not a number or not finite *)
let read_floats c what =
  if Obs_json.peek c <> '[' then begin
    ignore (Obs_json.value c);
    Error (Printf.sprintf "%s must be a list" what)
  end
  else begin
    let xs = ref (Array.make 8 0.0) and n = ref 0 and err = ref None in
    if Obs_json.list_open c then begin
      let more = ref true in
      while !more do
        push xs !n;
        (if Obs_json.float_into c !xs !n then begin
           if Option.is_none !err && not (Float.is_finite !xs.(!n)) then
             err := Some (Printf.sprintf "%s must be finite" what)
         end
         else begin
           ignore (Obs_json.value c);
           if Option.is_none !err then err := Some (Printf.sprintf "%s must contain only numbers" what)
         end);
        incr n;
        more := Obs_json.list_next c
      done
    end;
    match !err with Some e -> Error e | None -> Ok (Array.sub !xs 0 !n)
  end

let not_a_pair = Some "job entries must be [release, work] number pairs"

(* job i's [release, work] into rs.(i) and ws.(i), or its error: the
   shape first, then a non-finite work, then a non-finite release *)
let read_job c rs ws i =
  if Obs_json.peek c <> '[' then begin
    ignore (Obs_json.value c);
    not_a_pair
  end
  else if not (Obs_json.list_open c) then not_a_pair
  else begin
    let k = ref 0 and numbers = ref true and more = ref true in
    while !more do
      let read = (!k = 0 && Obs_json.float_into c rs i) || (!k = 1 && Obs_json.float_into c ws i) in
      if not read then begin
        ignore (Obs_json.value c);
        numbers := false
      end;
      incr k;
      more := Obs_json.list_next c
    done;
    if !k <> 2 || not !numbers then not_a_pair
    else if not (Float.is_finite ws.(i)) then Some "work must be finite"
    else if not (Float.is_finite rs.(i)) then Some "release must be finite"
    else None
  end

let read_jobs c =
  if Obs_json.peek c <> '[' then begin
    ignore (Obs_json.value c);
    Error "\"jobs\" must be a list of [release, work] pairs"
  end
  else begin
    let rs = ref (Array.make 16 0.0) and ws = ref (Array.make 16 0.0) in
    let n = ref 0 and err = ref None in
    if Obs_json.list_open c then begin
      let more = ref true in
      while !more do
        push rs !n;
        push ws !n;
        let e = read_job c !rs !ws !n in
        if Option.is_none !err then err := e;
        incr n;
        more := Obs_json.list_next c
      done
    end;
    match !err with
    | Some e -> Error e
    | None when !n = 0 -> Error "\"jobs\" must be non-empty"
    | None -> Ok (Array.sub !rs 0 !n, Array.sub !ws 0 !n)
  end

(* the first value of each known key; the scalars as small trees *)
type fields = {
  mutable id : Obs_json.t option;
  mutable op : Obs_json.t option;
  mutable objective : Obs_json.t option;
  mutable alpha : Obs_json.t option;
  mutable procs : Obs_json.t option;
  mutable budget : Obs_json.t option;
  mutable target : Obs_json.t option;
  mutable pareto : Obs_json.t option;
  mutable solver : Obs_json.t option;
  mutable points : Obs_json.t option;
  mutable deadline_s : Obs_json.t option;
  mutable speed_cap : Obs_json.t option;
  mutable jobs : (float array * float array, string) result option;
  mutable weights : (float array, string) result option;
  mutable deadlines : (float array, string) result option;
  mutable levels : (float array, string) result option;
}

(* a later duplicate is read for its syntax and dropped *)
let first c read = function
  | None -> Some (read c)
  | Some _ as kept ->
    ignore (Obs_json.value c);
    kept

(* [None] for a document that is not an object *)
let read_request c =
  if Obs_json.peek c <> '{' then begin
    ignore (Obs_json.value c);
    None
  end
  else begin
    let f =
      {
        id = None;
        op = None;
        objective = None;
        alpha = None;
        procs = None;
        budget = None;
        target = None;
        pareto = None;
        solver = None;
        points = None;
        deadline_s = None;
        speed_cap = None;
        jobs = None;
        weights = None;
        deadlines = None;
        levels = None;
      }
    in
    let value = Obs_json.value in
    if Obs_json.obj_open c then begin
      let more = ref true in
      while !more do
        (match Obs_json.obj_key c with
        | "id" -> f.id <- first c value f.id
        | "op" -> f.op <- first c value f.op
        | "objective" -> f.objective <- first c value f.objective
        | "alpha" -> f.alpha <- first c value f.alpha
        | "procs" -> f.procs <- first c value f.procs
        | "budget" -> f.budget <- first c value f.budget
        | "target" -> f.target <- first c value f.target
        | "pareto" -> f.pareto <- first c value f.pareto
        | "solver" -> f.solver <- first c value f.solver
        | "points" -> f.points <- first c value f.points
        | "deadline_s" -> f.deadline_s <- first c value f.deadline_s
        | "speed_cap" -> f.speed_cap <- first c value f.speed_cap
        | "jobs" -> f.jobs <- first c read_jobs f.jobs
        | "weights" -> f.weights <- first c (fun c -> read_floats c "\"weights\"") f.weights
        | "deadlines" -> f.deadlines <- first c (fun c -> read_floats c "\"deadlines\"") f.deadlines
        | "levels" -> f.levels <- first c (fun c -> read_floats c "\"levels\"") f.levels
        | _ -> ignore (Obs_json.value c));
        more := Obs_json.obj_next c
      done
    end;
    Some f
  end

let checked = function Some (Error e) -> bad "%s" e | Some (Ok x) -> Some x | None -> None

(* a float column in [order]: the column itself when that is the
   identity (decode's columns are fresh) *)
let permute order a =
  let rec identity k = k = Array.length order || (order.(k) = k && identity (k + 1)) in
  if identity 0 then a
  else begin
    let b = Array.make (Array.length order) 0.0 in
    Array.iteri (fun k i -> b.(k) <- a.(i)) order;
    b
  end

let parse_solve f =
  let objective =
    match as_string "\"objective\"" f.objective with
    | None -> bad "missing \"objective\""
    | Some s -> (
      match Problem.objective_of_string s with
      | Some o -> o
      | None -> bad "unknown objective %S (makespan|flow|maxflow|wflow|deadline)" s)
  in
  let alpha = Option.value ~default:3.0 (as_float "\"alpha\"" f.alpha) in
  let procs = Option.value ~default:1 (as_int "\"procs\"" f.procs) in
  let releases, works =
    match checked f.jobs with Some jobs -> jobs | None -> bad "missing \"jobs\""
  in
  let n = Array.length releases in
  let per_job what a =
    Option.iter (fun a -> if Array.length a <> n then bad "%s must have one entry per job" what) a;
    a
  in
  let weights = per_job "\"weights\"" (checked f.weights) in
  let deadlines = per_job "\"deadlines\"" (checked f.deadlines) in
  let mode =
    let budget = as_float "\"budget\"" f.budget in
    let target = as_float "\"target\"" f.target in
    let pareto = as_bool "\"pareto\"" f.pareto in
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
    match as_string "\"solver\"" f.solver with
    | None | Some "auto" -> None
    | Some s -> Some s
  in
  let points =
    match as_int "\"points\"" f.points with
    | None -> 0
    | Some p ->
      if p < 0 then bad "\"points\" must be >= 0";
      p
  in
  let deadline_s =
    match as_float "\"deadline_s\"" f.deadline_s with
    | None -> None
    | Some d ->
      if d < 0.0 then bad "\"deadline_s\" must be >= 0";
      Some d
  in
  let speed_cap = as_float "\"speed_cap\"" f.speed_cap in
  let levels = Option.map Array.to_list (checked f.levels) in
  (* canonical job order before the instance is built: reordered-but-
     equal requests must yield identical instances, ids and replies *)
  let order = Serve_key.canonical_order ~releases ~works ?weights ?deadlines () in
  let weights = Option.map (permute order) weights and deadlines = Option.map (permute order) deadlines in
  let problem =
    Problem.make ~procs ?speed_cap ?levels ?weights ?deadlines ~objective ~mode ~alpha ()
  in
  let inst = Instance.of_arrays ~releases:(permute order releases) ~works:(permute order works) in
  let canon = Serve_key.canon_jobs ~solver ~points problem (Instance.jobs inst) in
  { solver; problem; inst; points; deadline_s; canon; hash = Serve_key.hash canon }

let decode line =
  match Obs_json.parse_with line read_request with
  | Error msg -> Error (Obs_json.Null, Guard_error.Invalid_input ("request is not valid JSON: " ^ msg))
  | Ok None -> Error (Obs_json.Null, Guard_error.Invalid_input "request must be a JSON object")
  | Ok (Some f) -> (
    let id = Option.value ~default:Obs_json.Null f.id in
    try
      let op =
        match f.op with
        | None -> Solve (parse_solve f)
        | Some j -> (
          match Obs_json.to_string_val j with
          | Some "solve" -> Solve (parse_solve f)
          | Some "stats" -> Stats
          | Some "health" -> Health
          | Some "ping" -> Ping
          | Some "shutdown" -> Shutdown
          | Some s -> bad "unknown op %S (solve|stats|health|ping|shutdown)" s
          | None -> bad "\"op\" must be a string")
      in
      Ok { id; op }
    with
    | Bad msg -> Error (id, Guard_error.Invalid_input msg)
    | Invalid_argument msg -> Error (id, Guard_error.Invalid_input msg)
    | e -> Error (id, Guard_error.of_exn ~solver:"serve.decode" e))

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
