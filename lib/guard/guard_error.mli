(** The typed error taxonomy every supervised solve is normalized
    into.

    The registry and the numeric kernels fail in many shapes —
    [Invalid_argument] from capability checks and smart constructors,
    {!Rootfind.No_bracket} from infeasible budgets,
    {!Rootfind.No_convergence} from exhausted iteration budgets,
    arbitrary exceptions from a faulted solver — and {!Guard} folds
    all of them into this one variant so callers (the CLI, the chaos
    campaign, a service endpoint) can branch on {e class}, not on
    string contents.  Each class owns a distinct CLI exit code. *)

type t =
  | Invalid_input of string
      (** malformed problem/instance, unknown solver, capability
          mismatch — the caller's fault; exit code 2 *)
  | Infeasible of string
      (** no solution exists under the given budget/constraints
          (e.g. a root bracket that cannot close); exit code 3 *)
  | No_convergence of { iters : int; residual : float }
      (** an iterative kernel exhausted its effort budget; exit code 4 *)
  | Deadline_exceeded of { budget_s : float; elapsed_s : float }
      (** the supervised solve ran past its wall-clock budget; exit
          code 5 *)
  | Solver_fault of { solver : string; exn : exn }
      (** the solver raised something unexpected (including injected
          faults); exit code 6 *)

exception Error of t
(** Carrier used to cross non-[result] boundaries (e.g. out of
    cmdliner terms); {!Guard} never lets any other exception escape. *)

exception Deadline_hit of { budget_s : float; elapsed_s : float }
(** Raised by the deadline poll inside an instrumented solve; private
    to the guard layer, classified by {!of_exn}. *)

val of_exn : solver:string -> exn -> t
(** Classify an exception escaping [solver].  Total: anything not
    recognized becomes [Solver_fault]. *)

val class_string : t -> string
(** Stable kebab-case class name: ["invalid-input"], ["infeasible"],
    ["no-convergence"], ["deadline"], ["solver-fault"]. *)

val exit_code : t -> int
(** 2, 3, 4, 5 or 6 respectively (0/1 are success/fuzz-counterexample,
    124/125 remain cmdliner's usage/internal codes). *)

val class_exit_code : string -> int
(** [class_exit_code (class_string e) = exit_code e]; 7 for the serve
    daemon's transient classes ["busy"] and ["breaker-open"]; 6 for any
    other string. *)

val to_string : t -> string
(** One-line human-readable message (no backtrace). *)
