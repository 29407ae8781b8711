type t = {
  id : int;
  model : Power_model.t;
  switch_time : float;
  switch_energy : float;
  mutable free_at : float;
  mutable energy : float;
  mutable switches : int;
  mutable last_speed : float; (* 0 when idle: entering work from idle is a switch *)
  mutable segments : Speed_profile.segment list; (* reversed *)
}

(* NaN passes the sign test, so the finiteness test must follow it *)
let check_overhead ~switch_time ~switch_energy =
  if switch_time < 0.0 || switch_energy < 0.0 then
    invalid_arg "Processor.create: negative switch overhead";
  if not (Float.is_finite switch_time && Float.is_finite switch_energy) then
    invalid_arg "Processor.create: switch overhead must be finite"

let create ?(switch_time = 0.0) ?(switch_energy = 0.0) model id =
  check_overhead ~switch_time ~switch_energy;
  {
    id;
    model;
    switch_time;
    switch_energy;
    free_at = 0.0;
    energy = 0.0;
    switches = 0;
    last_speed = 0.0;
    segments = [];
  }

let energy p = p.energy
let switches p = p.switches

let pay_switch p at speed =
  if Float.abs (speed -. p.last_speed) > 1e-12 then begin
    p.switches <- p.switches + 1;
    p.energy <- p.energy +. p.switch_energy;
    at +. p.switch_time
  end
  else at

let run_segment p ~start ~work ~speed =
  let begin_at = Float.max start p.free_at in
  let begin_at = pay_switch p begin_at speed in
  let dur = work /. speed in
  let completion = begin_at +. dur in
  p.energy <- p.energy +. (dur *. Power_model.power p.model speed);
  p.segments <- { Speed_profile.t0 = begin_at; t1 = completion; speed } :: p.segments;
  p.last_speed <- speed;
  p.free_at <- completion;
  (begin_at, completion)

let run p ~start ~work ~speed =
  if speed <= 0.0 then invalid_arg "Processor.run: speed <= 0";
  if work < 0.0 then invalid_arg "Processor.run: negative work";
  if work = 0.0 then begin
    let t = Float.max start p.free_at in
    (t, t)
  end
  else run_segment p ~start ~work ~speed

let run_split p ~start ~(split : Discrete_levels.split) =
  let s0, c0 =
    if split.Discrete_levels.low_time > 0.0 then
      run_segment p ~start
        ~work:(split.Discrete_levels.low_speed *. split.Discrete_levels.low_time)
        ~speed:split.Discrete_levels.low_speed
    else (Float.max start p.free_at, Float.max start p.free_at)
  in
  if split.Discrete_levels.high_time > 0.0 then begin
    let _, c1 =
      run_segment p ~start:c0
        ~work:(split.Discrete_levels.high_speed *. split.Discrete_levels.high_time)
        ~speed:split.Discrete_levels.high_speed
    in
    (s0, c1)
  end
  else (s0, c0)

let profile p = Speed_profile.of_segments (List.rev p.segments)
