type kind = Nan | Nonconv | Delay | Raise

type clause = { kind : kind; site : string option; prob : float }
type spec = clause list

let kind_to_string = function
  | Nan -> "nan"
  | Nonconv -> "nonconv"
  | Delay -> "delay"
  | Raise -> "raise"

let kind_of_string = function
  | "nan" -> Some Nan
  | "nonconv" -> Some Nonconv
  | "delay" -> Some Delay
  | "raise" -> Some Raise
  | _ -> None

let default_prob = 0.1
let all_kinds = [ Nan; Nonconv; Delay; Raise ]

let parse_clause s =
  let body, prob =
    match String.index_opt s '@' with
    | None -> (s, Ok default_prob)
    | Some i ->
      let p = String.sub s (i + 1) (String.length s - i - 1) in
      ( String.sub s 0 i,
        match float_of_string_opt p with
        | Some f when f >= 0.0 && f <= 1.0 -> Ok f
        | _ -> Error (Printf.sprintf "bad probability %S (want a float in [0, 1])" p) )
  in
  let kind_s, site =
    match String.index_opt body ':' with
    | None -> (body, None)
    | Some i -> (String.sub body 0 i, Some (String.sub body (i + 1) (String.length body - i - 1)))
  in
  match prob with
  | Error _ as e -> e
  | Ok prob -> (
    match (kind_s, kind_of_string kind_s) with
    | "all", _ -> Ok (List.map (fun kind -> { kind; site; prob }) all_kinds)
    | _, Some kind -> Ok [ { kind; site; prob } ]
    | _, None ->
      Error (Printf.sprintf "unknown fault kind %S (want nan|nonconv|delay|raise|all)" kind_s))

let parse s =
  let clauses = String.split_on_char ',' (String.trim s) in
  let rec go acc = function
    | [] -> Ok (List.concat (List.rev acc))
    | "" :: rest -> go acc rest
    | c :: rest -> (
      match parse_clause (String.trim c) with Ok cs -> go (cs :: acc) rest | Error _ as e -> e)
  in
  match go [] clauses with
  | Ok [] -> Error "empty injection spec"
  | r -> r

type armed = { clause : clause; left : int Atomic.t }

type plan = {
  seed : int;
  armed : armed list;
  visits : int Atomic.t;
  log : (string * string) list Atomic.t;
}

let make ?(max_fires = 4) ~seed spec =
  {
    seed;
    armed = List.map (fun clause -> { clause; left = Atomic.make max_fires }) spec;
    visits = Atomic.make 0;
    log = Atomic.make [];
  }

let site_matches c site =
  match c.site with
  | None -> true
  | Some p ->
    String.length p <= String.length site && String.sub site 0 (String.length p) = p

(* pure decision: uniform draw keyed on (seed, site, kind, visit) *)
let decide plan c site visit =
  c.prob > 0.0
  &&
  let r = Rng.of_pair plan.seed (Hashtbl.hash (site, kind_to_string c.kind, visit)) in
  Rng.float r 1.0 < c.prob

let record plan site kind =
  let entry = (site, kind_to_string kind) in
  let rec push () =
    let old = Atomic.get plan.log in
    if not (Atomic.compare_and_set plan.log old (entry :: old)) then push ()
  in
  push ()

(* try to consume one fire from the clause's budget *)
let consume a =
  let rec go () =
    let left = Atomic.get a.left in
    left > 0 && (Atomic.compare_and_set a.left left (left - 1) || go ())
  in
  go ()

let fire plan site kinds =
  let visit = Atomic.fetch_and_add plan.visits 1 in
  List.iter
    (fun a ->
      let c = a.clause in
      if List.mem c.kind kinds && site_matches c site && decide plan c site visit && consume a
      then begin
        record plan site c.kind;
        match c.kind with
        | Raise -> raise (Fault.Injected { site; kind = "raise" })
        | Nonconv -> raise (Rootfind.No_convergence { iters = 0; residual = Float.infinity })
        | Delay -> Unix.sleepf 5e-4
        | Nan -> ()
      end)
    plan.armed

let hooks plan =
  {
    Fault.null with
    Fault.on_enter = (fun site -> fire plan site [ Raise; Nonconv; Delay ]);
    on_float =
      (fun site v ->
        let visit = Atomic.fetch_and_add plan.visits 1 in
        let corrupted =
          List.exists
            (fun a ->
              let c = a.clause in
              c.kind = Nan && site_matches c site && decide plan c site visit && consume a
              && (record plan site Nan; true))
            plan.armed
        in
        if corrupted then Float.nan else v);
  }

let install plan = Fault.install (hooks plan)
let fired plan = List.rev (Atomic.get plan.log)
