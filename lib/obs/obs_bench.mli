(** Machine-readable benchmark artifacts ([BENCH.json]).

    Wraps a benchmark section in wall-clock ({!Obs_clock}) and
    allocation ([Gc.minor_words] and [Gc.counters], both exact)
    measurement and a counter-delta snapshot, and
    serializes the results in the fixed schema

    {v
{ "commit": "<sha>", "date": "<iso8601>",
  "results": [ { "name":    "<section>",
                 "wall_s":    1.23,
                 "allocs_mb": 4.56,
                 "counters": { "incmerge.merge_rounds": 42, ... } } ] }
    v}

    so successive CI runs are diffable by any JSON tool.  CI uploads
    one such file per run, and [scripts/bench_diff.py] gates its
    [wall_s] values against the floors in [bench/baseline.json]. *)

type result = {
  name : string;  (** section name, e.g. ["perf"] or ["fig1"] *)
  wall_s : float;  (** wall-clock seconds, monotonic clock *)
  allocs_mb : float;
      (** megabytes allocated on the OCaml heap during the section:
          minor + major − promoted words, times the word size.  The
          count is exact: a section that allocates one block of [k]
          words reads [k] *)
  counters : (string * int) list;
      (** {!Obs_metrics} counters that changed during the section,
          as deltas; empty when instrumentation is disabled *)
}

val measure : name:string -> (unit -> unit) -> result
(** [measure ~name f] runs [f ()] once and reports its cost.  The
    counter delta is computed from registry snapshots taken before and
    after, so concurrent updates from outside [f] would be attributed
    to it — run sections one at a time. *)

val write_file : path:string -> commit:string -> date:string -> result list -> unit
(** [write_file ~path ~commit ~date results] writes the artifact as
    pretty-printed JSON, with a trailing newline, creating or
    truncating [path].
    @param commit the git revision being measured (or ["unknown"])
    @param date an ISO-8601 UTC timestamp *)
