let effective_policy (policy : Guard.policy) (sr : Serve_protocol.solve_request) =
  match sr.deadline_s with
  | Some d -> { policy with Guard.deadline_s = Some d }
  | None -> policy

let resolve_solver (sr : Serve_protocol.solve_request) =
  match sr.solver with
  | Some name -> (
    match Engine.find name with
    | None ->
      Error
        (Guard_error.Invalid_input
           (Printf.sprintf "unknown solver %S (registered: %s)" name
              (String.concat ", " (Engine.names ()))))
    | Some s -> (
      match Capability.accepts (Engine.capability_of s) sr.problem sr.inst with
      | Ok () -> Ok s
      | Error why -> Error (Guard_error.Invalid_input (Printf.sprintf "%s: %s" name why))))
  | None -> (
    match Engine.supporting sr.problem sr.inst with
    | s :: _ -> Ok s
    | [] ->
      Error
        (Guard_error.Invalid_input
           (Printf.sprintf "no registered solver accepts %s on this instance"
              (Problem.to_string sr.problem))))

(* Pareto payloads run result closures (value_at/sample); keep even
   those failures inside the taxonomy *)
let encode (sr : Serve_protocol.solve_request) r =
  match Guard.protect ~name:"serve.encode" (fun () -> Serve_protocol.ok_payload ~points:sr.points r) with
  | Ok payload -> payload
  | Error e -> Serve_protocol.error_payload e

let is_ok_payload = function ("status", Obs_json.String "ok") :: _ -> true | _ -> false

(* ---------------- circuit-breaker supervision ---------------- *)

type state = { breaker : Guard_breaker.t option }

let create_state ?now ?(breaker = Some Guard_breaker.default_config) () =
  { breaker = Option.map (fun cfg -> Guard_breaker.create ?now cfg) breaker }

let no_state = { breaker = None }
let breaker_of state = state.breaker

let c_degraded = Obs.counter "serve.breaker.degraded"
let c_rejected = Obs.counter "serve.breaker.rejected"

(* which solve outcomes indict the solver: a clean answer closes the
   breaker; Guard having had to abandon the solver for its fallback
   chain, or a terminal hard-failure class, extends the failure run;
   request-indicting classes (invalid input, infeasible, deadline) are
   neutral — a stream of bad requests must not open a healthy solver *)
let outcome_of_result = function
  | Ok (r : Solve_result.t) ->
    if List.exists (fun (k, v) -> k = "guard.degraded" && v > 0.0) r.Solve_result.diagnostics
    then `Fail
    else `Ok
  | Error e -> (
    match Guard_error.class_string e with
    | "solver-fault" | "no-convergence" -> `Fail
    | _ -> `Neutral)

let note state name outcome =
  match state.breaker with
  | None -> ()
  | Some br -> (
    match outcome with
    | `Ok -> Guard_breaker.record_ok br name
    | `Fail -> Guard_breaker.record_fail br name
    | `Neutral -> ())

(* an answer produced by a breaker reroute still reports honestly: the
   diagnostic marks it, and it is never cached (a warm reply must stay
   byte-identical to the healthy cold solve) *)
let tag_degraded (r : Solve_result.t) =
  { r with Solve_result.diagnostics = r.Solve_result.diagnostics @ [ ("breaker.degraded", 1.0) ] }

(* when the resolved solver's breaker refuses work, walk the same
   capability order Guard's fallback uses for the first healthy
   alternative; with none, answer a typed degraded refusal rather than
   burning the pool on a solver that just failed [threshold] times *)
let pick_solver state (sr : Serve_protocol.solve_request) s =
  match state.breaker with
  | None -> `Use (s, false)
  | Some br ->
    let name = Engine.name_of s in
    if Guard_breaker.admit br name then `Use (s, false)
    else begin
      match
        List.find_opt
          (fun s' ->
            Engine.name_of s' <> name && Guard_breaker.admit br (Engine.name_of s'))
          (Engine.supporting sr.Serve_protocol.problem sr.Serve_protocol.inst)
      with
      | Some s' ->
        Obs.incr c_degraded;
        `Use (s', true)
      | None ->
        Obs.incr c_rejected;
        `Reject (Serve_protocol.degraded_payload ~solver:name)
    end

let run ~pool ~cache ~policy ?(state = no_state)
    ?(on_insert = fun ~canon:_ (_ : (string * Obs_json.t) list) -> ())
    (reqs : Serve_protocol.solve_request array) =
  let n = Array.length reqs in
  let payloads : (string * Obs_json.t) list option array = Array.make n None in
  (* degraded (breaker-rerouted) answers must not enter the cache *)
  let no_cache = Array.make n false in
  (* 1. cache probe, every request *)
  Array.iteri
    (fun i (sr : Serve_protocol.solve_request) ->
      payloads.(i) <- Serve_cache.find cache ~hash:sr.hash ~canon:sr.canon)
    reqs;
  (* 2. dedupe the misses: first index per canonical key solves, the
     rest share its payload *)
  let first_of = Hashtbl.create 16 in
  let uniq = ref [] in
  Array.iteri
    (fun i (sr : Serve_protocol.solve_request) ->
      if payloads.(i) = None && not (Hashtbl.mem first_of sr.Serve_protocol.canon) then begin
        Hashtbl.add first_of sr.Serve_protocol.canon i;
        uniq := i :: !uniq
      end)
    reqs;
  let uniq = Array.of_list (List.rev !uniq) in
  (* 3. resolve each unique miss to a solver and ask its breaker;
     resolution failures and breaker refusals answer immediately *)
  let work = ref [] in
  Array.iter
    (fun i ->
      let sr = reqs.(i) in
      match resolve_solver sr with
      | Error e -> payloads.(i) <- Some (Serve_protocol.error_payload e)
      | Ok s -> (
        match pick_solver state sr s with
        | `Reject payload ->
          no_cache.(i) <- true;
          payloads.(i) <- Some payload
        | `Use (s, degraded) ->
          if degraded then no_cache.(i) <- true;
          work := (i, s, degraded) :: !work))
    uniq;
  (* 4. one supervised Guard call per item across the pool; breaker
     bookkeeping happens back on the router thread, in request order *)
  let work = Array.of_list (List.rev !work) in
  let answers =
    Par.Pool.init pool (Array.length work) (fun k ->
        let i, s, degraded = work.(k) in
        let sr = reqs.(i) in
        let result =
          Guard.solve_with ~policy:(effective_policy policy sr) s sr.Serve_protocol.problem
            sr.Serve_protocol.inst
        in
        let payload =
          match result with
          | Ok r -> encode sr (if degraded then tag_degraded r else r)
          | Error e -> Serve_protocol.error_payload e
        in
        (payload, outcome_of_result result))
  in
  Array.iteri
    (fun k (i, s, _) ->
      let payload, outcome = answers.(k) in
      note state (Engine.name_of s) outcome;
      payloads.(i) <- Some payload)
    work;
  (* 5. fill successful unique answers into the cache (journaling each
     insert through [on_insert]), then share payloads out to the
     duplicate requests *)
  Array.iter
    (fun i ->
      let sr = reqs.(i) in
      match payloads.(i) with
      | Some payload when is_ok_payload payload && not no_cache.(i) ->
        Serve_cache.insert cache ~hash:sr.Serve_protocol.hash ~canon:sr.Serve_protocol.canon payload;
        on_insert ~canon:sr.Serve_protocol.canon payload
      | _ -> ())
    uniq;
  Array.mapi
    (fun i (sr : Serve_protocol.solve_request) ->
      match payloads.(i) with
      | Some payload -> payload
      | None -> (
        match Hashtbl.find_opt first_of sr.Serve_protocol.canon with
        | Some j -> (
          match payloads.(j) with
          | Some payload -> payload
          | None ->
            Serve_protocol.error_payload
              (Guard_error.Solver_fault
                 { solver = "serve.batch"; exn = Failure "internal: unanswered request" }))
        | None ->
          Serve_protocol.error_payload
            (Guard_error.Solver_fault
               { solver = "serve.batch"; exn = Failure "internal: unanswered request" })))
    reqs
