(** Counterexample minimization.

    Greedy fixpoint over three instance transformations, re-running the
    property after each candidate and keeping only candidates that still
    [Fail]: drop a job, zero a release time, round a work requirement to
    a small integer.  Model parameters (alpha, energy, m) are left
    untouched — they are part of the property's statement, not of the
    structure being minimized.

    Job ids are renumbered [0..n-1] in release order after every accepted
    step, so a minimized case serializes and replays identically (see
    {!Replay}). *)

type stats = { steps : int;  (** accepted shrinking steps *) evals : int  (** property evaluations *) }

val minimize :
  ?max_evals:int -> prop:(Oracle.case -> Oracle.outcome) -> Oracle.case -> Oracle.case * stats
(** Smallest failing case reachable by greedy descent from a failing
    case (returned unchanged if the property does not fail on it).
    [max_evals] (default 2000) bounds the work on pathological cases. *)
