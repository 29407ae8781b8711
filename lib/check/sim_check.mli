(** Fuzz properties for the trace-scale streaming simulation stack.

    - [sim:queue-drain] — the {!Event_queue} drains sorted by
      time with insertion order breaking ties, under a fuzzed add/pop
      interleaving;
    - [sim:metrics-exact] — {!Streaming_metrics} count/total/mean/max
      agree with a direct fold over the same observations to [1e-9];
    - [sim:stream-vs-driver] — a constant-speed {!Sim.run_stream}
      agrees with {!Online_driver.run} on the same jobs (one FIFO
      server, identical completions);
    - [sim:stream-replay] — a {!Workload.Stream} pulled job-by-job
      equals its own materialization for the same seed. *)

val register : unit -> unit
(** Register the properties with {!Oracle}.  Idempotent.  Called from
    the CLI after the kernel property set, so existing fuzz campaign
    listings keep their prefix order. *)
