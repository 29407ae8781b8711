(** Per-domain scratch arenas for the kernel hot paths.

    Every root-find evaluation inside {!Flow.solve_budget} rebuilds a
    run stack, and every {!Incmerge} pass rebuilds a block stack; with
    per-call allocation those stacks dominate the allocation profile
    of a Pareto sweep or a serve batch.  This module keeps one arena
    of growable buffers {e per domain} — [Domain.DLS] on OCaml 5, a
    lazily created global on 4.14 where execution is sequential (the
    [Scratch_slot] copy rule in [lib/core/dune], mirroring
    [lib/fault]) — so warm kernel calls reuse storage and allocate
    nothing proportional to the instance.

    {2 Ownership and validity}

    A buffer returned by {!floats}, {!ints} or {!block_soa} is valid
    {e until the next kernel call on the same domain and slot}.
    Kernels must therefore:

    - never return scratch-backed storage through a public API
      (results are materialized into fresh values at the boundary);
    - use disjoint slot ranges when they can be live simultaneously.

    Slot conventions (documented here, asserted nowhere): slots 0–7
    belong to {!Incmerge}, 8–15 to {!Frontier}'s build pass, 16–23 to
    {!Flow}.  [Frontier.build] calls into [Incmerge] while its own
    slots are live, which the disjoint ranges make safe.

    Determinism: arenas affect only {e where} intermediates live,
    never their values, so results are independent of which domain
    (hence which arena) evaluates a call — the {!Par} jobs-invariance
    contract is preserved, and [test_kernel] checks it bitwise across
    jobs widths on interleaved instance sizes. *)

type t
(** One domain's arena.  Obtain with {!get}; never share across
    domains (the accessor already hands each domain its own). *)

val get : unit -> t
(** The calling domain's arena, created on first use.  O(1) after
    creation: a single domain-local load on OCaml 5. *)

val floats : t -> slot:int -> int -> floatarray
(** [floats t ~slot n] is a float buffer of length [>= n] for [slot].
    Contents are unspecified (previous users of the slot leak
    through); the caller must write before reading.
    @param slot buffer index in [0 .. 23]; see the slot conventions.
    @param n minimum length; the buffer doubles on growth.
    @raise Invalid_argument when [slot] is outside [0 .. 23]. *)

val ints : t -> slot:int -> int -> int array
(** Same contract as {!floats} for an int buffer. *)

val block_soa : t -> slot:int -> int -> Block.Soa.t
(** [block_soa t ~slot n] is an empty ([len = 0]) struct-of-arrays
    block store with capacity [>= n].  Unlike {!floats} this resets
    the store, since a block stack is always rebuilt from scratch.
    @param slot store index in [0 .. 3].
    @raise Invalid_argument when [slot] is outside [0 .. 3]. *)

val harmonic : t -> alpha:float -> n:int -> floatarray
(** [harmonic t ~alpha ~n] is the cached table [H] with
    [H.(l) = sum_{t=1..l} t^(-1/alpha)] valid for indices [0 .. n] —
    the free-run duration table of {!Flow}.  Cached per domain keyed
    on [alpha] and extended in place when [n] grows; because the
    recurrence is deterministic, the cached prefix is bitwise
    identical to a from-scratch rebuild.  Read-only: callers must not
    write to the returned buffer (it is shared by every kernel call on
    the domain).
    @param alpha power exponent, [> 1] (not validated here — callers
    validate instances first).
    @param n largest index needed, [>= 0]. *)

val flow_tables : t -> alpha:float -> n:int -> floatarray * floatarray * floatarray
(** [flow_tables t ~alpha ~n] is [(h, hp, pw)]: the {!harmonic} table
    [h] plus its prefix sums [hp.(l) = sum_{i=1..l} h.(i)] and the
    power sums [pw.(l) = sum_{t=1..l} t^(1 - 1/alpha)], all valid for
    indices [0 .. n] and cached under the same [(alpha, n)] key.  With
    these, a free (unpinned) run of any length contributes to total
    flow and total energy in O(1) — the {!Flow} evaluation path walks
    only pinned jobs.  Same sharing and read-only contract as
    {!harmonic}.
    @param alpha power exponent, [> 1].
    @param n largest index needed, [>= 0]. *)
