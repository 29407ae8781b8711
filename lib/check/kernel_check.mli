(** Differential fuzz properties for the unboxed kernel hot paths.

    [kernel:curve-bitwise] and [kernel:sample-bitwise] compare
    {!Flow_frontier.curve} and {!Frontier.sample} against the boxed
    {!Kernel_ref} mirrors for exact float equality;
    [kernel:flow-legacy-close] pins {!Flow.solve_budget} to the frozen
    PR6-era solver within [1e-9] relative tolerance.  All three skip
    while fault injection is armed — the references are uninstrumented,
    so under chaos the comparison would report injected noise. *)

val register : unit -> unit
(** Register the properties with {!Oracle}.  Idempotent.  Called from
    the CLI after the core and serve property sets, so existing fuzz
    campaign listings keep their prefix order. *)
