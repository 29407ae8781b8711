module type SOLVER = sig
  val name : string
  val doc : string
  val capability : Capability.t
  val solve : Problem.t -> Instance.t -> Solve_result.t
end

type solver = (module SOLVER)

let registry : solver list ref = ref []

let name_of (module S : SOLVER) = S.name
let doc_of (module S : SOLVER) = S.doc
let capability_of (module S : SOLVER) = S.capability

let register (module S : SOLVER) =
  if List.exists (fun s -> name_of s = S.name) !registry then
    invalid_arg (Printf.sprintf "Engine.register: duplicate solver %S" S.name);
  registry := !registry @ [ (module S) ]

let all () = !registry
let names () = List.map name_of !registry
let find name = List.find_opt (fun s -> name_of s = name) !registry

let supporting problem inst =
  let ok = List.filter (fun s -> Capability.admits (capability_of s) problem inst) !registry in
  let exact, approx = List.partition (fun s -> (capability_of s).Capability.exact) ok in
  exact @ approx

let c_solves = Obs.counter "engine.solves"

(* the span name and args are built only when Obs is on, so a disabled
   solve allocates nothing beyond the capability check and the solver *)
let solve_with (module S : SOLVER) problem inst =
  (match Capability.accepts S.capability problem inst with
  | Ok () -> ()
  | Error why -> invalid_arg (Printf.sprintf "Engine.solve_with %s: %s" S.name why));
  Obs.incr c_solves;
  if Obs.enabled () then
    Obs.span
      ~args:[ ("problem", Problem.to_string problem); ("n", string_of_int (Instance.n inst)) ]
      ("engine.solve." ^ S.name)
      (fun () -> S.solve problem inst)
  else S.solve problem inst

let settings_overlap a b =
  match (a, b) with
  | Capability.Any_procs, _ | _, Capability.Any_procs -> true
  | Capability.Uni_only, Capability.Uni_only -> true
  | Capability.Multi_only, Capability.Multi_only -> true
  | _ -> false

let differential_pairs () =
  let solvers = !registry in
  let rec pairs = function
    | [] -> []
    | s :: tl -> List.map (fun s' -> (s, s')) tl @ pairs tl
  in
  List.filter
    (fun (a, b) ->
      let ca = capability_of a and cb = capability_of b in
      ca.Capability.exact && cb.Capability.exact
      && ca.Capability.objective = cb.Capability.objective
      && settings_overlap ca.Capability.settings cb.Capability.settings
      && List.exists
           (fun m ->
             m <> Capability.Pareto_mode
             && List.mem m ca.Capability.modes && List.mem m cb.Capability.modes)
           [ Capability.Budget_mode; Capability.Target_mode; Capability.Feasible_mode ])
    (pairs solvers)
