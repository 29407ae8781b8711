type t =
  | Invalid_input of string
  | Infeasible of string
  | No_convergence of { iters : int; residual : float }
  | Deadline_exceeded of { budget_s : float; elapsed_s : float }
  | Solver_fault of { solver : string; exn : exn }

exception Error of t
exception Deadline_hit of { budget_s : float; elapsed_s : float }

let of_exn ~solver = function
  | Error e -> e
  | Deadline_hit { budget_s; elapsed_s } -> Deadline_exceeded { budget_s; elapsed_s }
  | Invalid_argument msg -> Invalid_input msg
  | Frontier.Infeasible_target { target; infimum } ->
    Infeasible
      (Printf.sprintf "makespan target %g is below the achievable infimum %g" target infimum)
  | Rootfind.No_bracket { lo; hi; f_lo; f_hi } ->
    Infeasible
      (Printf.sprintf "no sign change on [%g, %g] (f: %g, %g) — constraints cannot be met" lo hi
         f_lo f_hi)
  | Rootfind.No_convergence { iters; residual } -> No_convergence { iters; residual }
  | exn -> Solver_fault { solver; exn }

let class_string = function
  | Invalid_input _ -> "invalid-input"
  | Infeasible _ -> "infeasible"
  | No_convergence _ -> "no-convergence"
  | Deadline_exceeded _ -> "deadline"
  | Solver_fault _ -> "solver-fault"

let exit_code = function
  | Invalid_input _ -> 2
  | Infeasible _ -> 3
  | No_convergence _ -> 4
  | Deadline_exceeded _ -> 5
  | Solver_fault _ -> 6

(* the same codes keyed by class string, for serve replies that carry
   only the string *)
let class_exit_code = function
  | "invalid-input" -> 2
  | "infeasible" -> 3
  | "no-convergence" -> 4
  | "deadline" -> 5
  | "busy" | "breaker-open" -> 7
  | _ -> 6

let to_string = function
  | Invalid_input msg -> "invalid input: " ^ msg
  | Infeasible msg -> "infeasible: " ^ msg
  | No_convergence { iters; residual } ->
    Printf.sprintf "no convergence after %d iterations (residual %g)" iters residual
  | Deadline_exceeded { budget_s; elapsed_s } ->
    Printf.sprintf "deadline exceeded: %.3fs elapsed against a %.3fs budget" elapsed_s budget_s
  | Solver_fault { solver; exn } ->
    Printf.sprintf "solver %s faulted: %s" solver (Printexc.to_string exn)
