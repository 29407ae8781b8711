(** The flow kernel's fuzz property: its optimality certificate.

    [kernel:curve-certified] solves an 8-point {!Flow_frontier.curve}
    around the case's budget, warm-chained as the curve always is, and
    requires every point's flow to equal a cold {!Flow.solve_budget} at
    that budget to [1e-9] relative, and that cold solve to pass the
    registered [flow_budget] property (budget spent to [1e-9], a valid
    schedule, Theorem 1).  Skipped while fault injection is armed:
    injected noise would separate the warm and cold solves. *)

val register : unit -> unit
(** Register the property with {!Oracle}.  Idempotent.  Called from
    the CLI after the core and serve property sets, so existing fuzz
    campaign listings keep their prefix order. *)
