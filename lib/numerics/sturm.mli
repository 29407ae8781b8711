(** Sturm-sequence real-root counting and isolation.

    Exact — integer polynomials evaluated at {!Rat} points — so it
    certifies root counts rather than estimating them — this is what stands in for the paper's GAP computation when we
    check that the Theorem 8 degree-12 polynomial has exactly one root in
    the feasible speed interval.

    Two counters record the work, batched once per call:
    [sturm.chain_builds] counts [chain] calls, and [sturm.sign_evals]
    counts evaluations of one chain element at one point. *)

type chain
(** A Sturm chain of a squarefree polynomial, over integer polynomials:
    each element is a positive multiple of the matching element of the
    rational chain [p, p', -rem ...], times one nonzero constant for the
    whole chain, so every variation count is the rational chain's. *)

val chain : Qpoly.t -> chain
(** Builds the Sturm chain of [squarefree p].  The remainder sequence
    of [p] and [p'] ends in [gcd (p, p')]; when that is not constant it
    is divided out and the chain rebuilt once.
    @raise Invalid_argument on the zero polynomial. *)

val variations_at_neg_inf : chain -> int
val variations_at_pos_inf : chain -> int

val count_roots : chain -> lo:Rat.t -> hi:Rat.t -> int
(** Number of distinct real roots in the half-open interval [(lo, hi]].
    @raise Invalid_argument when [lo > hi]. *)

val count_all_roots : chain -> int
(** Number of distinct real roots on the whole real line. *)

val isolate : chain -> (Rat.t * Rat.t) list
(** Disjoint open-ended intervals [(lo, hi]], in increasing order, each
    containing exactly one distinct real root: bisection of [(-B, B]] on
    variation counts, each point evaluated once, where
    [B = 1 + max |a_i| / |lc|] is the Cauchy bound. *)

val refine : chain -> lo:Rat.t -> hi:Rat.t -> eps:Rat.t -> Rat.t * Rat.t
(** Bisect an isolating interval [(lo, hi]] (exactly one root, possibly
    at [hi]; [lo] may be another root) until its width is at most [eps],
    on the sign of the squarefree polynomial alone.  Returns [(mid, mid)]
    when a midpoint is the root. *)

val isolate_roots : Qpoly.t -> (Rat.t * Rat.t) list
(** [isolate (chain p)]; [[]] for the zero polynomial. *)

val refine_root : Qpoly.t -> lo:Rat.t -> hi:Rat.t -> eps:Rat.t -> Rat.t * Rat.t
(** [refine (chain p)]. *)

val root_floats : ?eps:float -> Qpoly.t -> float list
(** All distinct real roots as floats, isolated exactly then refined to
    [eps] (default [1e-12]). *)
