(* Output checks, and the self-test that shows they reject bad
   outputs.  Inside timed phases only the cheap prefix test runs; the
   field-by-field comparison runs on a seeded sample after timing. *)

(* ---------------- serve replies ---------------- *)

let ok_prefix id = Printf.sprintf "{\"id\":%d,\"status\":\"ok\"" id

let prefix_ok ~id reply =
  let p = ok_prefix id in
  String.length reply >= String.length p && String.sub reply 0 (String.length p) = p

let fields line =
  match Obs_json.of_string line with
  | Ok (Obs_json.Obj kv) -> Ok kv
  | Ok _ -> Error "reply is not a JSON object"
  | Error e -> Error ("unparsable reply: " ^ e)

(* The reference reply: the request decoded and solved in-process
   through Engine, on the solver capability routing picks. *)
let expected_reply line =
  match Serve_protocol.decode line with
  | Error (_, e) -> Error ("request does not decode: " ^ Guard_error.to_string e)
  | Ok { Serve_protocol.id; op = Serve_protocol.Solve sr } -> (
    match Engine.supporting sr.Serve_protocol.problem sr.Serve_protocol.inst with
    | [] -> Error "no solver accepts the request"
    | s :: _ ->
      let r = Engine.solve_with s sr.Serve_protocol.problem sr.Serve_protocol.inst in
      Ok (("id", id) :: Serve_protocol.ok_payload ~points:sr.Serve_protocol.points r))
  | Ok _ -> Error "not a solve request"

(* field by field, on the serialized value (so 20 and 20.0 agree) *)
let compare_fields ~expected reply =
  match fields reply with
  | Error e -> Error e
  | Ok got ->
    let keys l = List.map fst l in
    if keys got <> keys expected then
      Error
        (Printf.sprintf "fields [%s], expected [%s]" (String.concat "," (keys got))
           (String.concat "," (keys expected)))
    else
      match
        List.find_opt
          (fun (k, v) -> Obs_json.to_string v <> Obs_json.to_string (List.assoc k got))
          expected
      with
      | None -> Ok ()
      | Some (k, v) ->
        Error
          (Printf.sprintf "field %S is %s, expected %s" k
             (Obs_json.to_string (List.assoc k got))
             (Obs_json.to_string v))

let resolve_check ~request ~reply =
  match expected_reply request with
  | Error e -> Error e
  | Ok expected -> compare_fields ~expected reply

(* ---------------- simulation ---------------- *)

(* constant policy σ = 2 under P = σ³: each job spends work/2 time at
   power 8, so the energy is exactly 4·Σwork up to rounding *)
let sim_ok ~jobs ~pulled ~work (r : Sim.stream_report) =
  let m = r.Sim.metrics in
  if m.Streaming_metrics.jobs <> jobs || pulled <> jobs then
    Error (Printf.sprintf "simulated %d jobs, pulled %d, expected %d" m.Streaming_metrics.jobs pulled jobs)
  else
    let want = 4.0 *. work in
    let got = m.Streaming_metrics.energy in
    if Float.abs (got -. want) <= 1e-9 *. Float.abs want then Ok ()
    else Error (Printf.sprintf "energy %.17g, expected 4*sum(work) = %.17g" got want)

(* ---------------- Theorem 8 ---------------- *)

let thm8_ok ~roots ~sigma2 =
  match List.filter (fun r -> r > 1.0 && r < 2.0) roots with
  | [ r ] when List.length roots = 1 ->
    if Float.abs (r -. sigma2) <= 1e-9 then Ok ()
    else Error (Printf.sprintf "certified root %.17g, sigma2_numeric %.17g" r sigma2)
  | _ ->
    Error
      (Printf.sprintf "%d certified roots [%s], expected exactly one in (1, 2)" (List.length roots)
         (String.concat "; " (List.map (Printf.sprintf "%.17g") roots)))

let paper_identity_ok () =
  if Flow_hardness.proportional (Flow_hardness.derived_polynomial ~energy:(Rat.of_int 9))
       Flow_hardness.paper_polynomial
  then Ok ()
  else Error "derived polynomial at E = 9 is not proportional to the paper's"

(* ---------------- self-test ---------------- *)

let self_test () =
  let accepts name = function Ok () -> () | Error e -> Pb_util.fail "self-test: %s rejected: %s" name e in
  let rejects name = function
    | Ok () -> Pb_util.fail "self-test: %s was accepted" name
    | Error _ -> ()
  in
  (* a reply, then the same reply with its value corrupted *)
  let request =
    {|{"id":5,"op":"solve","objective":"makespan","alpha":3,"budget":6,"jobs":[[0,1],[0.5,2],[1,0.25]]}|}
  in
  let reply =
    match expected_reply request with
    | Ok kv -> Obs_json.to_string (Obs_json.Obj kv)
    | Error e -> Pb_util.fail "self-test: %s" e
  in
  if not (prefix_ok ~id:5 reply) then Pb_util.fail "self-test: a good reply failed the prefix test";
  accepts "good reply" (resolve_check ~request ~reply);
  let corrupt_value =
    match fields reply with
    | Ok kv ->
      Obs_json.to_string
        (Obs_json.Obj
           (List.map
              (function
                | "value", Obs_json.Float v -> ("value", Obs_json.Float (v *. (1.0 +. 1e-12)))
                | kv -> kv)
              kv))
    | Error e -> Pb_util.fail "self-test: %s" e
  in
  rejects "reply with a corrupted value" (resolve_check ~request ~reply:corrupt_value);
  rejects "truncated reply" (resolve_check ~request ~reply:(String.sub reply 0 (String.length reply / 2)));
  if prefix_ok ~id:6 reply then Pb_util.fail "self-test: a reply with the wrong id passed";
  let busy = {|{"id":5,"status":"busy","class":"busy","shard":0}|} in
  if prefix_ok ~id:5 busy then Pb_util.fail "self-test: a busy reply passed";
  (* a simulation report whose energy was corrupted, and one that lost
     a job: three jobs of total work 3.5 at σ = 2 use energy 14 *)
  let snapshot energy =
    {
      Streaming_metrics.jobs = 3;
      flow_mean = 1.0;
      flow_stddev = 0.0;
      flow_max = 1.0;
      flow_total = 3.0;
      flow_p50 = 1.0;
      flow_p95 = 1.0;
      flow_p99 = 1.0;
      makespan = 4.25;
      energy;
      released_work = 3.5;
    }
  in
  let report energy =
    {
      Sim.metrics = snapshot energy;
      stream_switches = 0;
      clamps = 0;
      peak_temperature = None;
      horizon = 4.25;
      max_backlog = 1;
    }
  in
  accepts "good simulation" (sim_ok ~jobs:3 ~pulled:3 ~work:3.5 (report 14.0));
  rejects "simulation with a corrupted energy" (sim_ok ~jobs:3 ~pulled:3 ~work:3.5 (report (14.0 *. (1.0 +. 1e-7))));
  rejects "simulation that lost a job" (sim_ok ~jobs:4 ~pulled:3 ~work:3.5 (report 14.0));
  (* a moved root, a second root, a root outside (1, 2) *)
  let sigma2 = 1.4142135623730951 in
  accepts "good certificate" (thm8_ok ~roots:[ sigma2 ] ~sigma2);
  rejects "moved root" (thm8_ok ~roots:[ sigma2 +. 1e-7 ] ~sigma2);
  rejects "two roots" (thm8_ok ~roots:[ 1.2; sigma2 ] ~sigma2);
  rejects "root outside (1, 2)" (thm8_ok ~roots:[ 2.5 ] ~sigma2:2.5)
