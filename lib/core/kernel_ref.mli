(** Boxed reference kernels — the other side of the unboxed hot
    paths' two claims.

    The top-level functions mirror the {e current} {!Flow} algorithm
    operation for operation on boxed per-call storage (no scratch
    arena, no [Float.Array]), so comparing them against
    {!Flow_frontier.curve} and {!Frontier.sample} for exact float
    equality — as the [kernel:*] fuzz properties and [test_kernel]
    do — certifies the unboxed layout as a pure representation
    change.

    {!Legacy} freezes the pre-scratch PR6-era flow solver, so the
    [kernel_flow_legacy] bench section measures the old cost on the
    same machine as the new (the [kernel] section requires a 3x
    speedup, and [test_kernel] requires the warm path to allocate
    under a third of the old words per solve) and a tolerance
    property pins the new algorithm's roots to the old one's.

    Uninstrumented by design: no [Obs] counters and no [Fault] sites
    of their own (only {!Rootfind}'s shared ones), so each reference
    costs exactly its arithmetic.  Not public solvers — nothing
    outside tests and the bench should call them. *)

type solution = {
  last_speed : float;
  speeds : float array;
  completions : float array;
  flow : float;
  energy : float;
}

val solve_budget :
  ?eps:float -> ?warm:float -> alpha:float -> energy:float -> Instance.t -> solution
(** Boxed mirror of {!Flow.solve_budget}: identical bracketing,
    root finds and materialization, bitwise-equal results.
    @raise Invalid_argument under exactly the conditions of
    {!Flow.solve_budget}. *)

val curve : alpha:float -> Instance.t -> e_lo:float -> e_hi:float -> n:int -> (float * float) list
(** Boxed mirror of {!Flow_frontier.curve}: same energy grid and
    16-point warm-start chunks, evaluated sequentially,
    bitwise-equal results.
    @raise Invalid_argument when [n < 2]. *)

(** The pre-scratch PR6-era flow solver, frozen: derivative-free
    Brent for every pinned window, per-job evaluation everywhere,
    full materialization inside the outer root find.  Benchmark
    baseline and tolerance-comparison target; its results agree with
    the current algorithm's to root-finder precision, not bitwise. *)
module Legacy : sig
  type solution = {
    last_speed : float;
    speeds : float array;
    completions : float array;
    flow : float;
    energy : float;
  }

  val solve_budget :
    ?eps:float -> ?warm:float -> alpha:float -> energy:float -> Instance.t -> solution
  (** PR6-era {!Flow.solve_budget}.
      @raise Invalid_argument under exactly the conditions of
      {!Flow.solve_budget}. *)

  val curve : alpha:float -> Instance.t -> e_lo:float -> e_hi:float -> n:int -> (float * float) list
  (** PR6-era {!Flow_frontier.curve}, evaluated sequentially.
      @raise Invalid_argument when [n < 2]. *)
end

type frontier

val frontier_build : Power_model.t -> Instance.t -> frontier
(** Reference {!Frontier.build} on boxed blocks and segment records;
    the segment set is bitwise identical to the unboxed build's. *)

val makespan_at : frontier -> float -> float
(** Reference {!Frontier.makespan_at} (boxed binary search).
    @raise Invalid_argument when the energy is non-positive or the
    instance is empty. *)

val sample : frontier -> lo:float -> hi:float -> n:int -> (float * float) list
(** Reference {!Frontier.sample} on the same even grid, sequential,
    bitwise-equal results.
    @raise Invalid_argument when [n < 2]. *)
