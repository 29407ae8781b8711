(** Event-driven execution of schedule plans.

    The paper's machine is an idealized continuous-speed processor; this
    simulator is its stand-in.  Replaying a solver's plan with default
    configuration must reproduce the analytic makespan/flow/energy
    exactly (that agreement is a test invariant); enabling discrete
    speed levels or switch overhead shows how the idealized solution
    degrades on more realistic hardware (§6 of the paper). *)

type config = {
  levels : Discrete_levels.t option;
      (** when set, each constant-speed run is emulated by the two
          bracketing levels (same duration, more energy); speeds outside
          the level range are clamped, which can change timing *)
  switch_time : float;  (** stall per speed transition *)
  switch_energy : float;  (** energy per speed transition *)
}

val default_config : config
(** Idealized processor: continuous speeds, free switching. *)

type job_result = { job : Job.t; proc : int; start : float; completion : float }

type report = {
  results : job_result list;  (** in completion order *)
  makespan : float;
  total_flow : float;
  energy : float;
  switches : int;
  profiles : (int * Speed_profile.t) list;  (** per-processor executed profiles *)
}

val run : ?config:config -> Power_model.t -> Instance.t -> Schedule.t -> report
(** Execute a plan.  Entries on each processor run in planned start
    order; an entry whose planned start arrives while the processor is
    still busy (possible under clamping/overhead) is pushed back.
    @raise Invalid_argument if the plan references jobs missing from the
    instance. *)

(** {2 Trace-scale streaming mode}

    [run] above replays a materialized plan and retains a
    [job_result list] — fine at 10^3 jobs, impossible at 10^7.
    [run_stream] consumes a pull-based job source instead and retains
    nothing per job: metrics are streamed ({!Streaming_metrics}), the
    event queue holds at most [procs] completions plus one stashed
    arrival, and pending jobs live in a ring buffer sized by peak
    backlog.  Peak live memory is therefore a function of the offered
    load, not the trace length.  Per job it allocates two boxed floats
    (the policy's [~backlog] argument and the completion time), beside
    whatever the source and the policy allocate. *)

type stream_config = {
  base : config;  (** levels / switch overhead, as for [run] *)
  procs : int;  (** FIFO multi-server width (>= 1) *)
  thermal : (float * float) option;
      (** [(heating, cooling)] enables the closed-form Newton thermal
          model per processor; idle gaps cool toward 0 *)
  watermark_every : int;
      (** emit a watermark every this many completions (0 = never) *)
}

val default_stream_config : stream_config
(** One idealized processor, no thermal model, no watermarks. *)

type stream_policy = {
  policy_name : string;
  choose : queued:int -> backlog:float -> float;
      (** speed for the job being dispatched, given the number of
          released-but-unfinished jobs (including it) and their total
          remaining work; must be positive and finite *)
}

val constant_policy : float -> stream_policy
(** Run every job at σ. *)

val load_policy : float -> stream_policy
(** [base · max(1, queued)^(1/3)] — a cube-root-power response to queue
    depth, the natural online shape under the cube power model. *)

val avr_policy : base:float -> window:float -> stream_policy
(** [max(base, backlog / window)] — AVR-style density tracking on the
    live backlog: the speed that drains all remaining released work
    within [window] time, floored at [base].  The streaming analogue of
    Yao–Demers–Shenker average-rate, with every released job given the
    same soft deadline [window] ahead in place of per-job deadlines.
    @raise Invalid_argument when [base <= 0] or [window <= 0]. *)

type stream_report = {
  metrics : Streaming_metrics.snapshot;
  stream_switches : int;
  clamps : int;  (** dispatches forced below the requested speed by the
                     top discrete level *)
  peak_temperature : float option;  (** when [thermal] was set *)
  horizon : float;  (** time of the last event *)
  max_backlog : int;  (** peak released-but-undispatched jobs — the
                          quantity that bounds live memory *)
}

val run_stream :
  ?config:stream_config ->
  ?watermark:(Streaming_metrics.snapshot -> unit) ->
  Power_model.t ->
  stream_policy ->
  (unit -> Job.t option) ->
  stream_report
(** Consume the source to exhaustion (jobs must arrive in
    nondecreasing release order, as {!Workload.Stream} guarantees).
    Each job runs to completion on one processor at the policy's speed,
    rounded up to a discrete level when levels are configured; speed
    changes (including idle-to-work, matching [Processor]) pay the
    configured switch overhead.
    @raise Invalid_argument before the first pull if [config.procs < 1],
    if a switch overhead is negative (as {!Processor.create} does) or
    if the thermal heating or cooling is [<= 0] (as {!Thermal} does);
    and during the run if the policy returns a non-positive or
    non-finite speed. *)

val agrees_with_plan : ?tol:float -> report -> Power_model.t -> Schedule.t -> bool
(** True when simulated completions and energy match the plan's analytic
    values within tolerance — the soundness check between the algebraic
    solvers and the executable model. *)
