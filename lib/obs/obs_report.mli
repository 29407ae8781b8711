(** Human-readable rendering of an observability snapshot.

    Counterpart to the machine-readable export ({!Obs_trace.to_json}):
    a fixed-width text report meant for a terminal, printed by
    [pasched --metrics]. *)

val render : Obs_metrics.snapshot -> Obs_trace.event list -> string
(** [render snapshot events] formats the nonzero counters, the touched
    gauges, the populated histograms and the span aggregates as
    sections of a text table.  Zero counters are omitted — after a run
    with instrumentation disabled the report is simply
    ["(no observations recorded)"], which is how tests observe the
    disabled mode. *)
