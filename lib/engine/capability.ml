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

let ( let* ) = Result.bind

let admits cap (p : Problem.t) =
  let* () =
    if cap.objective = p.Problem.objective then Ok ()
    else
      Error
        (Printf.sprintf "optimizes %s, not %s"
           (Problem.objective_to_string cap.objective)
           (Problem.objective_to_string p.Problem.objective))
  in
  let* () =
    match cap.settings with
    | Any_procs -> Ok ()
    | Uni_only when p.Problem.procs = 1 -> Ok ()
    | Uni_only -> Error (Printf.sprintf "uniprocessor only, problem has %d processors" p.Problem.procs)
    | Multi_only when p.Problem.procs >= 2 -> Ok ()
    | Multi_only -> Error "multiprocessor only, problem is uniprocessor"
  in
  let* () =
    if List.mem (mode_kind p.Problem.mode) cap.modes then Ok ()
    else
      Error
        (Printf.sprintf "mode %s unsupported (handles: %s)"
           (mode_kind_to_string (mode_kind p.Problem.mode))
           (String.concat ", " (List.map mode_kind_to_string cap.modes)))
  in
  (* a constraint the solver does not declare would be silently
     dropped, and the answer would break it *)
  let* () =
    if p.Problem.speed_cap <> None && not (List.mem Needs_speed_cap cap.requires) then
      Error "does not honour a speed cap"
    else Ok ()
  in
  let* () =
    if p.Problem.levels <> None && not (List.mem Needs_levels cap.requires) then
      Error "does not honour discrete speed levels"
    else Ok ()
  in
  let need what = function
    | Some _ -> Ok ()
    | None -> Error (Printf.sprintf "problem must carry %s" what)
  in
  List.fold_left
    (fun acc r ->
      let* () = acc in
      match r with
      | Needs_speed_cap -> need "a speed cap" p.Problem.speed_cap
      | Needs_levels -> need "discrete speed levels" p.Problem.levels
      | Needs_weights -> need "per-job weights" p.Problem.weights
      | Needs_deadlines -> need "per-job deadlines" p.Problem.deadlines
      | Equal_work | Common_release | Max_jobs _ -> Ok ())
    (Ok ()) cap.requires

let accepts cap (p : Problem.t) inst =
  let* () = admits cap p in
  let sized what = function
    | Some a when Array.length a <> Instance.n inst ->
      Error
        (Printf.sprintf "%s array has %d entries for %d jobs" what (Array.length a) (Instance.n inst))
    | _ -> Ok ()
  in
  List.fold_left
    (fun acc r ->
      let* () = acc in
      match r with
      | Equal_work ->
        if Instance.is_equal_work inst then Ok () else Error "requires equal-work jobs"
      | Common_release ->
        if Instance.is_empty inst || (Instance.has_common_release inst && Instance.first_release inst = 0.0)
        then Ok ()
        else Error "requires all jobs released at time 0"
      | Max_jobs k ->
        if Instance.n inst <= k then Ok ()
        else Error (Printf.sprintf "instance too large: %d jobs, solver handles <= %d" (Instance.n inst) k)
      | Needs_weights -> sized "weights" p.Problem.weights
      | Needs_deadlines -> sized "deadlines" p.Problem.deadlines
      | Needs_speed_cap | Needs_levels -> Ok ())
    (Ok ()) cap.requires

let to_string cap =
  Printf.sprintf "%-8s %-9s %-15s %-6s %s"
    (Problem.objective_to_string cap.objective)
    (setting_to_string cap.settings)
    (String.concat "," (List.map mode_kind_to_string cap.modes))
    (if cap.exact then "exact" else "approx")
    (match cap.requires with
    | [] -> "-"
    | rs -> String.concat "," (List.map requirement_to_string rs))
