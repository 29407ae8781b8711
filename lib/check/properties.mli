(** The oracle registry: every executable property the fuzzer checks.

    Three families, mirroring the test-plan taxonomy in DESIGN.md:

    {b Differential} — two independent implementations must agree:
    IncMerge vs the exponential brute force and the quadratic DP,
    the frontier curve vs IncMerge and vs the server solver, cyclic
    multiprocessor assignment vs exhaustive assignment, the simulator
    vs the analytic plan, YDS vs its online competitors and its
    intensity lower bound.

    {b Metamorphic} — a known transformation of the input must
    transform the output in a known way: work scaling by [c] at budget
    [c^α·E] preserves the optimal makespan; raising the budget never
    raises it; the frontier is decreasing and convex.

    {b Structural} — every solver's schedule passes
    [Validate.check_with_budget].

    Loading this module registers everything into {!Oracle};
    [registered] forces that initialization for linkers that would
    otherwise drop an unreferenced module. *)

val registered : unit -> Oracle.property list
(** Same as {!Oracle.registered}, after forcing registration. *)
