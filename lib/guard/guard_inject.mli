(** Deterministic fault injection at the named [Fault] sites.

    A {e spec} says what to break and how often; a {e plan} is a spec
    armed with a seed, a per-clause fire budget and a visit counter, so
    the same (seed, spec) pair replays the same faults at the same
    site visits — chaos campaigns are as reproducible as any other
    fuzz case.

    Spec grammar (comma-separated clauses):
    {v
      SPEC   ::= clause ("," clause)*
      clause ::= KIND [":" SITE-PREFIX] ["@" PROB]
      KIND   ::= "nan" | "nonconv" | "delay" | "raise" | "all"
    v}
    ["nan"] corrupts a root-finder result to NaN, ["nonconv"] raises
    {!Rootfind.No_convergence}, ["delay"] sleeps ~0.5ms, ["raise"]
    raises {!Fault.Injected}.  ["all"] expands to all four kinds.  A
    site prefix (e.g. [:rootfind] or [:dp.solve]) restricts the clause
    to matching sites; [PROB] (default [0.1]) is the per-visit firing
    probability.  Examples: ["all"], ["nonconv:rootfind@1"],
    ["nan@0.2,delay@0.05"].

    Each clause stops firing after a bounded number of hits
    ([max_fires], default 4) so retry/fallback paths get a chance to
    recover — mirroring transient real-world faults. *)

type kind = Nan | Nonconv | Delay | Raise

type clause = { kind : kind; site : string option; prob : float }
type spec = clause list

val parse : string -> (spec, string) result
(** Parse the grammar above; [Error] carries a one-line reason. *)

type plan

val make : ?max_fires:int -> seed:int -> spec -> plan
(** Arm a spec.  Decisions are a pure function of [(seed, site, kind,
    visit-index)]; [max_fires] bounds how often each clause fires. *)

val hooks : plan -> Fault.hooks
(** The [Fault] hooks implementing the plan (transparent [tol_scale]
    and [iter_cap]; {!Guard} overlays its own). *)

val install : plan -> unit
(** Arm campaign-wide on the current domain (see [Fault.install]). *)

val fired : plan -> (string * string) list
(** [(site, kind)] pairs in firing order — the determinism witness. *)

val kind_to_string : kind -> string
