let c_events = Obs.counter "sim.events_dispatched"
let c_preempt = Obs.counter "sim.preemptions"
let c_switches = Obs.counter "sim.speed_changes"
let c_clamped = Obs.counter "sim.level_clamps"

type config = {
  levels : Discrete_levels.t option;
  switch_time : float;
  switch_energy : float;
}

let default_config = { levels = None; switch_time = 0.0; switch_energy = 0.0 }

type job_result = { job : Job.t; proc : int; start : float; completion : float }

type report = {
  results : job_result list;
  makespan : float;
  total_flow : float;
  energy : float;
  switches : int;
  profiles : (int * Speed_profile.t) list;
}

let run ?(config = default_config) model inst plan =
  Obs.span "sim.run" @@ fun () ->
  let inst_ids = Hashtbl.create 16 in
  Array.iter (fun (j : Job.t) -> Hashtbl.replace inst_ids j.Job.id ()) (Instance.jobs inst);
  List.iter
    (fun (e : Schedule.entry) ->
      if not (Hashtbl.mem inst_ids e.Schedule.job.Job.id) then
        invalid_arg "Sim.run: plan schedules a job that is not in the instance")
    (Schedule.entries plan);
  let nprocs = Stdlib.max 1 (Schedule.n_procs plan) in
  let procs =
    Array.init nprocs
      (Processor.create ~switch_time:config.switch_time ~switch_energy:config.switch_energy model)
  in
  let results = ref [] in
  let started = Hashtbl.create 16 in
  (* entries are sorted by (proc, start); replay each processor in order *)
  List.iter
    (fun (e : Schedule.entry) ->
      Obs.incr c_events;
      let p = procs.(e.Schedule.proc) in
      let job = e.Schedule.job in
      (* a job appearing in a second entry was preempted in between *)
      if Hashtbl.mem started job.Job.id then Obs.incr c_preempt
      else Hashtbl.replace started job.Job.id ();
      let release = job.Job.release in
      let earliest = Float.max e.Schedule.start release in
      let work = job.Job.work in
      let start, completion =
        match config.levels with
        | None -> Processor.run p ~start:earliest ~work ~speed:e.Schedule.speed
        | Some levels ->
          let planned_duration = work /. e.Schedule.speed in
          (match Discrete_levels.two_level_split levels ~work ~duration:planned_duration with
          | Some split -> Processor.run_split p ~start:earliest ~split
          | None ->
            (* outside the level range: clamp *)
            Obs.incr c_clamped;
            let speed =
              if e.Schedule.speed > Discrete_levels.max_speed levels then
                Discrete_levels.max_speed levels
              else Discrete_levels.min_speed levels
            in
            Processor.run p ~start:earliest ~work ~speed)
      in
      results := { job; proc = e.Schedule.proc; start; completion } :: !results)
    (Schedule.entries plan);
  let results = List.sort (fun a b -> compare (a.completion, a.job.Job.id) (b.completion, b.job.Job.id)) !results in
  let makespan = List.fold_left (fun acc r -> Float.max acc r.completion) 0.0 results in
  let total_flow = List.fold_left (fun acc r -> acc +. (r.completion -. r.job.Job.release)) 0.0 results in
  let energy = Array.fold_left (fun acc p -> acc +. Processor.energy p) 0.0 procs in
  let switches = Array.fold_left (fun acc p -> acc + Processor.switches p) 0 procs in
  Obs.add c_switches switches;
  let profiles = Array.to_list (Array.mapi (fun i p -> (i, Processor.profile p)) procs) in
  { results; makespan; total_flow; energy; switches; profiles }

(* ---------- trace-scale streaming mode ---------- *)

type stream_config = {
  base : config;
  procs : int;
  thermal : (float * float) option;
  watermark_every : int;
}

let default_stream_config = { base = default_config; procs = 1; thermal = None; watermark_every = 0 }

type stream_policy = { policy_name : string; choose : queued:int -> backlog:float -> float }

let constant_policy s =
  if s <= 0.0 then invalid_arg "Sim.constant_policy: s <= 0";
  { policy_name = Printf.sprintf "constant-%g" s; choose = (fun ~queued:_ ~backlog:_ -> s) }

let load_policy base =
  if base <= 0.0 then invalid_arg "Sim.load_policy: base <= 0";
  {
    policy_name = Printf.sprintf "load-%g" base;
    choose = (fun ~queued ~backlog:_ -> base *. Float.max 1.0 (float_of_int queued) ** (1.0 /. 3.0));
  }

let avr_policy ~base ~window =
  if base <= 0.0 then invalid_arg "Sim.avr_policy: base <= 0";
  if window <= 0.0 then invalid_arg "Sim.avr_policy: window <= 0";
  {
    policy_name = Printf.sprintf "avr-%g-%g" base window;
    (* AVR-style density tracking on the live backlog: run fast enough
       to drain all remaining released work within [window] time, never
       below [base].  Yao–Demers–Shenker's AVR sums per-job densities
       work/(deadline-release); with no per-job deadlines the stream
       analogue gives every released job the same soft deadline
       [window] ahead, so the summed density is backlog/window. *)
    choose = (fun ~queued:_ ~backlog -> Float.max base (backlog /. window));
  }

type stream_report = {
  metrics : Streaming_metrics.snapshot;
  stream_switches : int;
  clamps : int;
  peak_temperature : float option;
  horizon : float;
  max_backlog : int;
}

(* FIFO multi-server dispatch over a pull-based job source.

   Constant-memory by construction: the event queue never holds more
   than [procs] completions plus the single stashed arrival, pending
   jobs live in a growable ring buffer sized by peak backlog — a
   property of the load, not the trace length — and metrics are
   streamed.  No per-job result is retained.

   Per job it allocates two boxed floats: the [~backlog] argument of
   [policy.choose], and the completion time, which the event queue and
   then [Streaming_metrics.observe] receive as one box.  Without
   flambda a float is boxed when it is stored in a float field of a
   mixed record, in a [ref] captured by a closure, or passed to or
   returned from a function that is not inlined (every call into
   another module under dune's dev profile, which compiles with
   -opaque).  So the scalar state is a float-only record, event times
   come from the stashed job and the processor slots rather than from
   the queue, releases and works reach [observe] and the totals as the
   boxed fields of the pulled [Job.t], and the power of a speed is
   computed again only when the speed changes. *)

type stream_state = {
  mutable now : float;
  mutable horizon : float;
  mutable backlog : float;  (* remaining work of released, undispatched jobs *)
  mutable speed : float;  (* the speed [power] was computed for; 0 before any *)
  mutable power : float;
  mutable peak_temp : float;
}

(* A processor's running job.  Mixed on purpose: [done_at] holds the
   boxed completion time, stored once at dispatch and handed as is to
   the event queue and then to [Streaming_metrics.observe]. *)
type running = { mutable current : Job.t; mutable done_at : float }

(* filler for empty ring-buffer and processor slots; never observed *)
let no_job = Job.make ~id:(-1) ~release:0.0 ~work:1.0

let run_stream ?(config = default_stream_config) ?watermark model policy pull =
  if config.procs < 1 then
    invalid_arg (Printf.sprintf "Sim.run_stream: procs must be >= 1, got %d" config.procs);
  Processor.check_overhead ~switch_time:config.base.switch_time
    ~switch_energy:config.base.switch_energy;
  Option.iter (fun (heating, cooling) -> Thermal.check_params ~heating ~cooling) config.thermal;
  Obs.span "sim.run_stream" @@ fun () ->
  let nprocs = config.procs in
  let levels = config.base.levels in
  let switch_time = config.base.switch_time and switch_energy = config.base.switch_energy in
  let metrics = Streaming_metrics.create () in
  let totals = Streaming_metrics.totals metrics in
  let st = { now = 0.0; horizon = 0.0; backlog = 0.0; speed = 0.0; power = 0.0; peak_temp = 0.0 } in
  let q = Event_queue.of_capacity (nprocs + 1) in
  (* ring buffer of released-but-undispatched jobs; the capacity stays
     a power of two, so wrapping is a mask *)
  let rb = ref (Array.make 64 no_job) in
  let rb_head = ref 0 and rb_count = ref 0 in
  let max_backlog = ref 0 in
  let rb_push (j : Job.t) =
    let cap = Array.length !rb in
    if !rb_count = cap then begin
      let nb = Array.make (2 * cap) no_job in
      for i = 0 to cap - 1 do
        nb.(i) <- !rb.((!rb_head + i) land (cap - 1))
      done;
      rb := nb;
      rb_head := 0
    end;
    !rb.((!rb_head + !rb_count) land (Array.length !rb - 1)) <- j;
    incr rb_count;
    if !rb_count > !max_backlog then max_backlog := !rb_count;
    st.backlog <- st.backlog +. j.Job.work
  in
  let rb_pop () =
    let j = !rb.(!rb_head) in
    (* a dispatched job must not stay reachable from its old slot: a
       minor collection would promote every job the ring still holds *)
    !rb.(!rb_head) <- no_job;
    rb_head := (!rb_head + 1) land (Array.length !rb - 1);
    decr rb_count;
    st.backlog <- st.backlog -. j.Job.work;
    j
  in
  (* per-processor state; [cur_speed] persists across idle gaps like
     Processor.last_speed (0 when never run: idle-to-work is a switch) *)
  let busy = Array.make nprocs false in
  let slots = Array.init nprocs (fun _ -> { current = no_job; done_at = 0.0 }) in
  let cur_speed = Array.make nprocs 0.0 in
  let switches = ref 0 in
  let clamps = ref 0 in
  (* thermal: closed-form Newton segments, extremes at endpoints *)
  let temp = Array.make nprocs 0.0 in
  let temp_at = Array.make nprocs 0.0 in
  let schedule_arrival = function
    | None -> ()
    | Some (j : Job.t) -> Event_queue.add q j.Job.release (-1)
  in
  let dispatch_one p =
    let j = rb_pop () in
    let work = j.Job.work in
    let requested = policy.choose ~queued:(!rb_count + 1) ~backlog:(st.backlog +. work) in
    if requested <= 0.0 || not (Float.is_finite requested) then
      invalid_arg
        (Printf.sprintf "Sim.run_stream: policy %s returned speed %g with pending work"
           policy.policy_name requested);
    let speed =
      match levels with
      | None -> requested
      | Some lv -> (
        match Discrete_levels.round_up lv requested with
        | Some s -> s
        | None ->
          (* above the top level: forced slower than requested *)
          incr clamps;
          Discrete_levels.max_speed lv)
    in
    let start =
      if Float.abs (speed -. cur_speed.(p)) > 1e-12 then begin
        incr switches;
        totals.energy <- totals.energy +. switch_energy;
        st.now +. switch_time
      end
      else st.now
    in
    let dur = work /. speed in
    (* Power_model.power is pure: an unchanged speed keeps its power *)
    if speed <> st.speed then begin
      st.speed <- speed;
      st.power <- Power_model.power model speed
    end;
    (* energy is committed at dispatch, so watermarks carry a running
       total rather than 0 until the end *)
    totals.energy <- totals.energy +. (dur *. st.power);
    let slot = slots.(p) in
    slot.current <- j;
    slot.done_at <- start +. dur;
    (match config.thermal with
    | None -> ()
    | Some (heating, cooling) ->
      (* cool toward 0 over the idle gap, then run the segment *)
      let t0 = temp.(p) *. Float.exp (-.cooling *. (start -. temp_at.(p))) in
      let target = heating *. st.power /. cooling in
      let t1 = target +. ((t0 -. target) *. Float.exp (-.cooling *. dur)) in
      temp.(p) <- t1;
      temp_at.(p) <- slot.done_at;
      if t1 > st.peak_temp then st.peak_temp <- t1);
    busy.(p) <- true;
    cur_speed.(p) <- speed;
    Event_queue.add q slot.done_at p
  in
  let dispatch () =
    let p = ref 0 in
    while !rb_count > 0 && !p < nprocs do
      if not busy.(!p) then dispatch_one !p;
      incr p
    done
  in
  (* the single stashed arrival, as pulled: one look-ahead job keeps
     queue size O(procs) *)
  let stash = ref (pull ()) in
  schedule_arrival !stash;
  let events = ref 0 in
  while not (Event_queue.is_empty q) do
    let v = Event_queue.pop q in
    incr events;
    if v < 0 then begin
      (* arrival of the stashed job *)
      match !stash with
      | None -> assert false
      | Some j ->
        st.now <- j.Job.release;
        if st.now > st.horizon then st.horizon <- st.now;
        rb_push j;
        totals.released_work <- totals.released_work +. j.Job.work;
        stash := pull ();
        schedule_arrival !stash;
        dispatch ()
    end
    else begin
      (* completion on processor [v] *)
      let slot = slots.(v) in
      st.now <- slot.done_at;
      if st.now > st.horizon then st.horizon <- st.now;
      Streaming_metrics.observe metrics ~release:slot.current.Job.release ~completion:slot.done_at;
      busy.(v) <- false;
      (match watermark with
      | Some f
        when config.watermark_every > 0
             && Streaming_metrics.jobs metrics mod config.watermark_every = 0 ->
        f (Streaming_metrics.snapshot metrics)
      | _ -> ());
      dispatch ()
    end
  done;
  Obs.add c_events !events;
  Obs.add c_clamped !clamps;
  Obs.add c_switches !switches;
  {
    metrics = Streaming_metrics.snapshot metrics;
    stream_switches = !switches;
    clamps = !clamps;
    peak_temperature = (match config.thermal with None -> None | Some _ -> Some st.peak_temp);
    horizon = st.horizon;
    max_backlog = !max_backlog;
  }

let agrees_with_plan ?(tol = 1e-9) report model plan =
  let ok_energy =
    let planned = Schedule.energy model plan in
    Float.abs (report.energy -. planned) <= tol *. (1.0 +. planned)
  in
  ok_energy
  && List.for_all
       (fun r ->
         match Schedule.find plan r.job.Job.id with
         | None -> false
         | Some e ->
           Float.abs (r.completion -. Schedule.completion e) <= tol *. (1.0 +. Schedule.completion e))
       report.results
