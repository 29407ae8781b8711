(** Canonical cache keys for solve requests.

    Two requests describing the same mathematical problem must map to
    the same key even when they spell it differently: jobs listed in a
    different order, speed levels permuted, floats that print
    differently but compare equal.  {!canonical_order} sorts the job
    rows (release first — matching the order {!Instance.of_pairs}
    imposes, so the decoded instance, its job ids, and therefore the
    {e reply} are also identical across reorderings), carrying each
    job's weight and deadline along with it; {!canon} then renders
    every model parameter with ["%h"] hex-float formatting (exact, no
    rounding ambiguity; the bytes of [Printf]'s ["%h"], written from
    the float's bits) into one canonical string, and {!hash} folds it
    through 64-bit FNV-1a.

    The per-request wall-clock deadline is deliberately {e not} part of
    the key: it bounds supervision, not the answer, so a cached result
    may satisfy a request that arrives with any deadline. *)

val canonical_order :
  releases:float array ->
  works:float array ->
  ?weights:float array ->
  ?deadlines:float array ->
  unit ->
  int array
(** The permutation that sorts the job rows [(release, work, weight,
    deadline)] ascending, stably: row [order.(k)] is the [k]-th in
    canonical order.  The arrays are parallel; absent weights or
    deadlines take no part.  Total on finite inputs. *)

val canon : solver:string option -> points:int -> Problem.t -> (float * float) array -> string
(** The canonical string of a request: solver choice, Pareto sample
    count, every {!Problem.t} field (levels sorted — {!Discrete_levels}
    treats them as a set) and the canonically-ordered [(release, work)]
    pairs.  Weights and deadlines are read from the problem, where they
    are already in canonical job order. *)

val canon_jobs : solver:string option -> points:int -> Problem.t -> Job.t array -> string
(** {!canon} of the jobs' [(release, work)] pairs, in the order given:
    the same string, without building the pairs. *)

val hash : string -> int64
(** 64-bit FNV-1a of the canonical string — the cache's bucket key.
    Entries verify the full canonical string on lookup, so a (vanishingly
    rare) FNV collision degrades to a cache miss, never a wrong answer. *)
