(** Solver capability metadata.

    A capability says which {!Problem.t} values a solver handles and
    under which instance-side preconditions (equal works, common
    release, bounded size) — the machine-checkable version of the
    hypotheses the paper attaches to each algorithm.  The registry uses
    capabilities three ways: to route a problem to solvers
    ({!Engine.supporting}), to reject a mismatched [solve] call with a
    clear error before the solver sees it, and to derive differential
    test pairs automatically (two {e exact} solvers admitting the same
    problem class must agree — see [Derived] in [pasched.check]). *)

type setting_support =
  | Uni_only  (** handles [procs = 1] only *)
  | Multi_only  (** needs [procs >= 2] (cyclic/assignment machinery) *)
  | Any_procs

type mode_kind = Budget_mode | Target_mode | Pareto_mode | Feasible_mode

type requirement =
  | Equal_work  (** all jobs must have the same work (Sections 3–5 hypothesis) *)
  | Common_release  (** all jobs released at time 0 (the Theorem 11 batch setting) *)
  | Needs_speed_cap  (** problem must carry [speed_cap] *)
  | Needs_levels  (** problem must carry discrete [levels] *)
  | Needs_weights  (** problem must carry per-job [weights] *)
  | Needs_deadlines  (** problem must carry per-job [deadlines] *)
  | Max_jobs of int  (** exhaustive/quadratic solver: instance size bound *)

type t = {
  objective : Problem.objective;
  settings : setting_support;
  modes : mode_kind list;
  exact : bool;
      (** optimal up to numeric tolerance; exact solvers sharing a
          problem class are differentially tested against each other *)
  requires : requirement list;
}

val accepts : t -> Problem.t -> Instance.t -> (unit, string) result
(** Problem-level match (objective, processor count, mode, and the
    presence of any required problem parameters) plus the instance-side
    requirements (equal work, common release, size bound, parameter
    arrays sized to the instance).  A problem carrying a [speed_cap] is
    accepted only by solvers that require {!Needs_speed_cap}, and one
    carrying [levels] only by solvers that require {!Needs_levels}: any
    other solver would ignore the constraint. *)

val admits : t -> Problem.t -> Instance.t -> bool
(** [accepts cap p inst = Ok ()], decided by the same check without
    building a message: what routing asks of every registered solver. *)

val to_string : t -> string
(** Compact one-line rendering used by [pasched solve --list-solvers]. *)
