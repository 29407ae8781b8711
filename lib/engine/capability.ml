type setting_support = Uni_only | Multi_only | Any_procs

type mode_kind = Budget_mode | Target_mode | Pareto_mode | Feasible_mode

type requirement =
  | Equal_work
  | Common_release
  | Needs_speed_cap
  | Needs_levels
  | Needs_weights
  | Needs_deadlines
  | Max_jobs of int

type t = {
  objective : Problem.objective;
  settings : setting_support;
  modes : mode_kind list;
  exact : bool;
  requires : requirement list;
}

let mode_kind = function
  | Problem.Budget _ -> Budget_mode
  | Problem.Target _ -> Target_mode
  | Problem.Pareto -> Pareto_mode
  | Problem.Feasible -> Feasible_mode

let mode_kind_to_string = function
  | Budget_mode -> "budget"
  | Target_mode -> "target"
  | Pareto_mode -> "pareto"
  | Feasible_mode -> "feasible"

let setting_to_string = function
  | Uni_only -> "uni"
  | Multi_only -> "multi"
  | Any_procs -> "uni+multi"

let requirement_to_string = function
  | Equal_work -> "equal-work"
  | Common_release -> "common-release"
  | Needs_speed_cap -> "speed-cap"
  | Needs_levels -> "levels"
  | Needs_weights -> "weights"
  | Needs_deadlines -> "deadlines"
  | Max_jobs k -> Printf.sprintf "n<=%d" k

(* Why a capability refuses a problem, one case per check in the order
   the checks run.  [check] allocates nothing on acceptance and formats
   nothing at all: routing ({!Engine.supporting}) asks twenty solvers
   per request and keeps the few that accept, so only [accepts] prints
   the text. *)
type refusal =
  | Objective
  | Uni_procs
  | Multi_procs
  | Mode
  | Unhonoured_cap
  | Unhonoured_levels
  | Missing of string
  | Unequal_work
  | Late_release
  | Too_large of int
  | Missized of string * int

(* the first parameter a requirement names that the problem lacks *)
let rec missing (p : Problem.t) = function
  | [] -> None
  | Needs_speed_cap :: _ when Option.is_none p.Problem.speed_cap -> Some (Missing "a speed cap")
  | Needs_levels :: _ when Option.is_none p.Problem.levels -> Some (Missing "discrete speed levels")
  | Needs_weights :: _ when Option.is_none p.Problem.weights -> Some (Missing "per-job weights")
  | Needs_deadlines :: _ when Option.is_none p.Problem.deadlines -> Some (Missing "per-job deadlines")
  | _ :: rest -> missing p rest

let missized what n = function
  | Some a when Array.length a <> n -> Some (Missized (what, Array.length a))
  | _ -> None

(* the first instance-side requirement the instance fails *)
let rec unmet (p : Problem.t) inst = function
  | [] -> None
  | r :: rest -> (
    let refusal =
      match r with
      | Equal_work -> if Instance.is_equal_work inst then None else Some Unequal_work
      | Common_release ->
        if Instance.is_empty inst || (Instance.has_common_release inst && Instance.first_release inst = 0.0)
        then None
        else Some Late_release
      | Max_jobs k -> if Instance.n inst <= k then None else Some (Too_large k)
      | Needs_weights -> missized "weights" (Instance.n inst) p.Problem.weights
      | Needs_deadlines -> missized "deadlines" (Instance.n inst) p.Problem.deadlines
      | Needs_speed_cap | Needs_levels -> None
    in
    match refusal with None -> unmet p inst rest | Some _ -> refusal)

(* Problem-level match (objective, processor count, mode, a constraint
   the solver would drop, a parameter it needs), then the instance-side
   requirements *)
let check cap (p : Problem.t) inst =
  if cap.objective <> p.Problem.objective then Some Objective
  else if cap.settings = Uni_only && p.Problem.procs <> 1 then Some Uni_procs
  else if cap.settings = Multi_only && p.Problem.procs < 2 then Some Multi_procs
  else if not (List.mem (mode_kind p.Problem.mode) cap.modes) then Some Mode
  (* a constraint the solver does not declare would be silently
     dropped, and the answer would break it *)
  else if Option.is_some p.Problem.speed_cap && not (List.mem Needs_speed_cap cap.requires) then
    Some Unhonoured_cap
  else if Option.is_some p.Problem.levels && not (List.mem Needs_levels cap.requires) then
    Some Unhonoured_levels
  else
    match missing p cap.requires with
    | None -> unmet p inst cap.requires
    | refusal -> refusal

let admits cap p inst = Option.is_none (check cap p inst)

let accepts cap (p : Problem.t) inst =
  match check cap p inst with
  | None -> Ok ()
  | Some refusal ->
    Error
      (match refusal with
      | Objective ->
        Printf.sprintf "optimizes %s, not %s"
          (Problem.objective_to_string cap.objective)
          (Problem.objective_to_string p.Problem.objective)
      | Uni_procs -> Printf.sprintf "uniprocessor only, problem has %d processors" p.Problem.procs
      | Multi_procs -> "multiprocessor only, problem is uniprocessor"
      | Mode ->
        Printf.sprintf "mode %s unsupported (handles: %s)"
          (mode_kind_to_string (mode_kind p.Problem.mode))
          (String.concat ", " (List.map mode_kind_to_string cap.modes))
      | Unhonoured_cap -> "does not honour a speed cap"
      | Unhonoured_levels -> "does not honour discrete speed levels"
      | Missing what -> Printf.sprintf "problem must carry %s" what
      | Unequal_work -> "requires equal-work jobs"
      | Late_release -> "requires all jobs released at time 0"
      | Too_large k ->
        Printf.sprintf "instance too large: %d jobs, solver handles <= %d" (Instance.n inst) k
      | Missized (what, len) ->
        Printf.sprintf "%s array has %d entries for %d jobs" what len (Instance.n inst))

let to_string cap =
  Printf.sprintf "%-8s %-9s %-15s %-6s %s"
    (Problem.objective_to_string cap.objective)
    (setting_to_string cap.settings)
    (String.concat "," (List.map mode_kind_to_string cap.modes))
    (if cap.exact then "exact" else "approx")
    (match cap.requires with
    | [] -> "-"
    | rs -> String.concat "," (List.map requirement_to_string rs))
