type pending = { job : Job.t; remaining : float }

type view = {
  now : float;
  queue : pending list;
  energy_spent : float;
  released_work : float;
}

type policy = { policy_name : string; speed : view -> float }

type outcome = {
  completions : (Job.t * float) list;
  makespan : float;
  total_flow : float;
  energy : float;
  profile : Speed_profile.t;
}

let run model inst policy =
  let jobs = Instance.jobs inst in
  let n = Array.length jobs in
  let completions = ref [] in
  let segments = ref [] in
  let energy = ref 0.0 in
  let released_work = ref 0.0 in
  (* [next] indexes the next not-yet-released job; queue is FIFO *)
  let rec step now queue next =
    match (queue, if next < n then Some jobs.(next) else None) with
    | [], None -> now
    | [], Some j ->
      released_work := !released_work +. j.Job.work;
      step (Float.max now j.Job.release) [ { job = j; remaining = j.Job.work } ] (next + 1)
    | head :: rest, upcoming ->
      let view = { now; queue; energy_spent = !energy; released_work = !released_work } in
      let speed = policy.speed view in
      if speed <= 0.0 || not (Float.is_finite speed) then
        invalid_arg
          (Printf.sprintf "Online_driver.run: policy %s returned speed %g with pending work"
             policy.policy_name speed);
      let finish_at = now +. (head.remaining /. speed) in
      let next_arrival = match upcoming with Some j -> j.Job.release | None -> Float.infinity in
      if finish_at <= next_arrival +. 1e-15 then begin
        (* head completes before anything new arrives *)
        let dur = head.remaining /. speed in
        if dur > 0.0 then begin
          segments := { Speed_profile.t0 = now; t1 = finish_at; speed } :: !segments;
          energy := !energy +. (dur *. Power_model.power model speed)
        end;
        completions := (head.job, finish_at) :: !completions;
        step finish_at rest next
      end
      else begin
        (* run until the arrival, then hand the new job to the policy *)
        let j = match upcoming with Some j -> j | None -> assert false in
        let dur = next_arrival -. now in
        let done_work = dur *. speed in
        if dur > 0.0 then begin
          segments := { Speed_profile.t0 = now; t1 = next_arrival; speed } :: !segments;
          energy := !energy +. (dur *. Power_model.power model speed)
        end;
        released_work := !released_work +. j.Job.work;
        let queue' =
          { head with remaining = head.remaining -. done_work } :: rest
          @ [ { job = j; remaining = j.Job.work } ]
        in
        step next_arrival queue' (next + 1)
      end
  in
  let makespan = step 0.0 [] 0 in
  let completions = List.rev !completions in
  let total_flow =
    List.fold_left (fun acc ((j : Job.t), c) -> acc +. (c -. j.Job.release)) 0.0 completions
  in
  {
    completions;
    makespan;
    total_flow;
    energy = !energy;
    profile = Speed_profile.of_segments (List.rev !segments);
  }

let constant_speed s =
  if s <= 0.0 then invalid_arg "Online_driver.constant_speed: s <= 0";
  { policy_name = Printf.sprintf "constant-%g" s; speed = (fun _ -> s) }
