(** Typed problem descriptions — the common language of the solver
    registry ({!Engine}).

    A {!t} names {e what} is being optimized (the objective), {e where}
    (processor count) and {e under which regime} (the paper's "laptop"
    energy-budget mode, its "server" metric-target mode, the full Pareto
    frontier, or deadline feasibility).  Solvers declare which problems
    they handle through {!Capability.t}; consumers build a problem once
    and let the registry find solvers for it.

    The record also carries the model parameters some solvers need
    (power exponent, speed cap, discrete levels, per-job weights or
    deadlines) so a [solve] call is fully determined by
    [(problem, instance)]. *)

type objective =
  | Makespan  (** largest completion time (§3 of the paper) *)
  | Total_flow  (** sum of completion − release (§4) *)
  | Max_flow  (** largest single-job flow *)
  | Weighted_flow  (** weighted sum of flows (§5's non-symmetric metric) *)
  | Deadline_energy
      (** minimum energy meeting every job's deadline (the
          Yao–Demers–Shenker model of §2) *)

type mode =
  | Budget of float  (** "laptop": minimize the objective within an energy budget *)
  | Target of float  (** "server": minimize energy subject to an objective target *)
  | Pareto  (** the whole energy/objective trade-off curve *)
  | Feasible
      (** meet hard per-job constraints (deadlines) at minimum energy;
          only meaningful with {!constructor:Deadline_energy} *)

type t = private {
  objective : objective;
  procs : int;  (** [>= 1]; [1] is the uniprocessor setting *)
  mode : mode;
  alpha : float;  (** power exponent of [P = σ^α]; [> 1] *)
  speed_cap : float option;  (** max speed, for {!Bounded_speed}-style solvers *)
  levels : float list option;  (** discrete speed levels *)
  weights : float array option;  (** per job, release order *)
  deadlines : float array option;  (** per job, release order *)
}

val make :
  ?procs:int ->
  ?speed_cap:float ->
  ?levels:float list ->
  ?weights:float array ->
  ?deadlines:float array ->
  objective:objective ->
  mode:mode ->
  alpha:float ->
  unit ->
  t
(** Smart constructor; [procs] defaults to [1].
    @raise Invalid_argument when [alpha <= 1] (Theorem 1 and the
    convexity of [P = σ^α] require [α > 1]), [procs < 1], a
    non-positive budget or target, a non-positive [speed_cap], empty or
    non-positive [levels], or non-positive weights/deadlines. *)

val objective_to_string : objective -> string
val objective_of_string : string -> objective option
val all_objectives : objective list
val to_string : t -> string
(** One-line description, e.g. ["makespan/2-procs/budget 12"]. *)

val model : t -> Power_model.t
(** The [σ^α] power model of the problem. *)
