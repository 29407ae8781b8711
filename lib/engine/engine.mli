(** The solver registry — the hub between {!Problem} descriptions and
    the ~20 concrete algorithms of [lib/core] and [lib/deadline].

    Solvers register once (see [Builtin]); the CLI, the benchmark
    harness and the differential tester all consume the same registry,
    so adding a solver is a one-file change: write the adapter, register
    it, and the [solve] subcommand, capability-matched fuzz oracles,
    bench enumeration and [Obs] instrumentation pick it up
    automatically.

    Every {!solve_with} call is wrapped in an [engine.solve.<name>]
    trace span and bumps the [engine.solves] counter, so new solvers
    are instrumented by construction. *)

module type SOLVER = sig
  val name : string
  (** unique registry key, kebab-case (e.g. ["dp-makespan"]) *)

  val doc : string
  val capability : Capability.t

  val solve : Problem.t -> Instance.t -> Solve_result.t
  (** Only called on [(problem, instance)] pairs the capability
      {!Capability.accepts}; {!Engine.solve_with} enforces this, raising
      [Invalid_argument] on a mismatch before the solver runs. *)
end

type solver = (module SOLVER)

val register : solver -> unit
(** @raise Invalid_argument on a duplicate name. *)

val all : unit -> solver list
(** In registration order. *)

val names : unit -> string list
val find : string -> solver option

val name_of : solver -> string
val doc_of : solver -> string
val capability_of : solver -> Capability.t

val supporting : Problem.t -> Instance.t -> solver list
(** Registered solvers whose capability accepts the pair, registration
    order (exact solvers first). *)

val solve_with : solver -> Problem.t -> Instance.t -> Solve_result.t
(** The one solve entry point: check the capability, bump
    [engine.solves], and run the solver inside an
    [engine.solve.<name>] span whose args ([problem], [n]) are built
    only when [Obs] is enabled.  Callers that want typed errors,
    deadlines, retries or fallback go through [Guard.solve_with];
    lookup by name or by capability is [find]/[supporting].
    @raise Invalid_argument on a capability mismatch (e.g. an
    equal-work-only solver on unequal works). *)

val differential_pairs : unit -> (solver * solver) list
(** All unordered pairs of {e exact} solvers claiming the same
    objective, an overlapping processor setting and a common
    budget/target/feasible mode — the pairs that must agree on any
    instance satisfying both requirement lists.  [pasched.check]
    derives one fuzz property per pair. *)
