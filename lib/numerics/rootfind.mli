(** One-dimensional root finding on floats.

    The speed-scaling solvers reduce many subproblems ("what energy makes
    these two blocks merge?", "what speed exhausts the budget?") to
    finding a zero of a monotone function; these are the workhorses.

    Failures are typed so the guard layer can classify them:
    {!No_bracket} carries the rejected endpoints, {!No_convergence}
    the iteration count and final residual.  Every iterative loop
    calls [Fault.tick] (the guard deadline/injection hook) and the
    tolerance/iteration budgets honour [Fault.tol_scale]/
    [Fault.cap_iters], all of which are free when no hooks are
    armed. *)

exception No_bracket of { lo : float; hi : float; f_lo : float; f_hi : float }
(** Raised when a bracketing step cannot find a sign change; carries
    the final endpoints and their function values. *)

exception No_convergence of { iters : int; residual : float }
(** Raised when an iteration budget is exhausted before the tolerance
    is met; [residual] is [|f x|] at the last iterate. *)

val bisect : f:(float -> float) -> lo:float -> hi:float -> ?eps:float -> ?max_iter:int -> unit -> float
(** Plain bisection.  Requires [f lo] and [f hi] to have opposite signs
    (zero counts as either).  [eps] is the interval-width tolerance
    (default [1e-12] relative to magnitude).
    @raise No_bracket when the endpoints do not bracket a root.
    @raise No_convergence when [max_iter] halvings leave the interval
    wider than the tolerance (only reachable under a tightened cap). *)

val brent :
  f:(float -> float) ->
  lo:float ->
  hi:float ->
  ?flo:float ->
  ?fhi:float ->
  ?eps:float ->
  ?max_iter:int ->
  unit ->
  float
(** Brent's method (inverse quadratic interpolation + secant + bisection);
    superlinear on smooth functions, never worse than bisection.

    [flo]/[fhi] optionally pass [f lo]/[f hi] values the caller already
    computed (typically during bracketing), saving the two endpoint
    evaluations; the iteration sequence — hence the returned bits — is
    identical to recomputing them.
    @param eps interval-width tolerance relative to the iterate's
    magnitude (default [1e-12]).
    @raise No_bracket when the endpoints do not bracket a root.
    @raise No_convergence when the iteration budget is exhausted. *)

val newton :
  f:(float -> float) -> df:(float -> float) -> x0:float -> ?eps:float -> ?max_iter:int -> unit -> float
(** Newton iteration from [x0].
    @raise No_convergence on a vanishing derivative, a non-finite
    step, or an exhausted iteration budget. *)

val newton_bracketed :
  f_df:(float -> float * float) ->
  lo:float ->
  hi:float ->
  ?x0:float ->
  ?eps:float ->
  ?max_iter:int ->
  unit ->
  float
(** Safeguarded Newton for a {e decreasing} [f] on a bracket the caller
    has already established: [f lo >= 0 >= f hi], with neither endpoint
    (re-)evaluated here.  [f_df x] returns [(f x, f' x)] from one fused
    evaluation — the intended callers get the derivative for free from
    the same loop that computes the value.  Every iterate tightens the
    bracket; a Newton step that leaves it, or a flat/non-finite
    derivative, falls back to bisection, so the method is never worse
    than bisection while typically converging quadratically.  An
    iterate whose Newton step rounds to nothing (as at [x0] already
    the root) is returned as it is.

    @param x0 initial iterate (clamped into [(lo, hi)]; default the
    bracket midpoint).
    @param eps step-size tolerance relative to the iterate's magnitude
    (default [1e-12]).
    @raise No_convergence when [max_iter] evaluations do not meet the
    tolerance (only reachable under a tightened fault cap). *)

val bracket_outward :
  f:(float -> float) -> lo:float -> hi:float -> ?grow:float -> ?max_iter:int -> unit -> float * float
(** Expand [[lo, hi]] geometrically until the endpoints bracket a sign
    change.  @raise No_bracket if none is found. *)

val find_root : f:(float -> float) -> lo:float -> hi:float -> ?eps:float -> unit -> float
(** Convenience: expand the bracket outward if needed, then Brent. *)
