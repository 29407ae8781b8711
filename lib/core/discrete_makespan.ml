type segment_plan = { job : Job.t; segments : Speed_profile.segment list }

type t = {
  plans : segment_plan list;
  makespan : float;
  energy : float;
}

let min_energy model levels ~work =
  let s = Discrete_levels.min_speed levels in
  work /. s *. Power_model.power model s

let energy_of_duration model levels ~work ~duration =
  if work < 0.0 || duration <= 0.0 then invalid_arg "Discrete_makespan.energy_of_duration";
  if work = 0.0 then Some 0.0
  else begin
    let sbar = work /. duration in
    if sbar > Discrete_levels.max_speed levels +. 1e-12 then None
    else if sbar <= Discrete_levels.min_speed levels then Some (min_energy model levels ~work)
    else
      match Discrete_levels.two_level_split levels ~work ~duration with
      | Some split -> Some (Discrete_levels.split_energy model split)
      | None -> None
  end

(* group the entries of a (single-processor) schedule into maximal
   equal-speed runs: Bounded_speed emits one speed per block *)
let groups_of_schedule sched =
  let rec group acc current = function
    | [] -> List.rev (match current with None -> acc | Some g -> g :: acc)
    | (e : Schedule.entry) :: rest ->
      (match current with
      | Some (speed, jobs) when Float.abs (speed -. e.Schedule.speed) <= 1e-12 ->
        group acc (Some (speed, e :: jobs)) rest
      | Some g -> group (g :: acc) (Some (e.Schedule.speed, [ e ])) rest
      | None -> group acc (Some (e.Schedule.speed, [ e ])) rest)
  in
  group [] None (Schedule.entries sched)
  |> List.map (fun (speed, rev_entries) ->
         let entries = List.rev rev_entries in
         let first = List.hd entries in
         (speed, first.Schedule.start, entries))

(* quantize the continuous block structure obtained at budget [budget']:
   within a group, segments whose average speed is between levels use
   the two-level emulation slice by slice (same timing); groups slower
   than the bottom level run packed at the bottom level (never later
   than the continuous plan, so releases stay respected) *)
let plan_at model levels inst ~budget' =
  let smax = Discrete_levels.max_speed levels in
  let smin = Discrete_levels.min_speed levels in
  let continuous = Bounded_speed.solve model ~energy:budget' ~cap:smax inst in
  let plans = ref [] in
  let cost = ref 0.0 in
  let cursor = ref 0.0 in
  List.iter
    (fun (speed, start, entries) ->
      let start = Float.max start !cursor in
      let t = ref start in
      if speed <= smin then
        (* pack consecutively at the bottom level, clamped to releases *)
        List.iter
          (fun (e : Schedule.entry) ->
            let w = e.Schedule.job.Job.work in
            let s0 = Float.max e.Schedule.job.Job.release !t in
            let s1 = s0 +. (w /. smin) in
            plans :=
              { job = e.Schedule.job; segments = [ { Speed_profile.t0 = s0; t1 = s1; speed = smin } ] }
              :: !plans;
            cost := !cost +. (w /. smin *. Power_model.power model smin);
            t := s1)
          entries
      else
        List.iter
          (fun (e : Schedule.entry) ->
            let w = e.Schedule.job.Job.work in
            let d = w /. speed in
            (match Discrete_levels.two_level_split levels ~work:w ~duration:d with
            | None -> invalid_arg "Discrete_makespan: slice above the top level (unreachable)"
            | Some split ->
              let segs = ref [] in
              let tt = ref !t in
              if split.Discrete_levels.low_time > 1e-15 then begin
                segs :=
                  [ { Speed_profile.t0 = !tt; t1 = !tt +. split.Discrete_levels.low_time; speed = split.Discrete_levels.low_speed } ];
                tt := !tt +. split.Discrete_levels.low_time
              end;
              if split.Discrete_levels.high_time > 1e-15 then
                segs :=
                  !segs
                  @ [ { Speed_profile.t0 = !tt; t1 = !tt +. split.Discrete_levels.high_time; speed = split.Discrete_levels.high_speed } ];
              plans := { job = e.Schedule.job; segments = !segs } :: !plans;
              cost := !cost +. Discrete_levels.split_energy model split);
            t := !t +. d)
          entries;
      cursor := !t)
    (groups_of_schedule continuous);
  let plans = List.rev !plans in
  let makespan =
    List.fold_left
      (fun acc p ->
        List.fold_left (fun acc (s : Speed_profile.segment) -> Float.max acc s.Speed_profile.t1) acc p.segments)
      0.0 plans
  in
  (plans, makespan, !cost)

let solve model levels ~energy inst =
  if energy <= 0.0 then invalid_arg "Discrete_makespan.solve: energy must be positive";
  if Instance.is_empty inst then { plans = []; makespan = 0.0; energy = 0.0 }
  else begin
    let floor_total = min_energy model levels ~work:(Instance.total_work inst) in
    if energy < floor_total -. 1e-12 then
      invalid_arg "Discrete_makespan.solve: budget below the discrete energy floor";
    let cost_at b = match plan_at model levels inst ~budget':b with _, _, c -> c in
    (* the effective continuous budget: the largest b whose quantized
       plan still fits in the real budget *)
    let budget' =
      if cost_at energy <= energy then energy
      else begin
        (* cost is ~monotone in b and tends to the floor as b -> 0 *)
        let lo = ref (energy /. 1024.0) in
        let tries = ref 0 in
        while cost_at !lo > energy && !tries < 60 do
          lo := !lo /. 4.0;
          incr tries
        done;
        if cost_at !lo > energy then
          invalid_arg "Discrete_makespan.solve: budget below the discrete energy floor"
        else begin
          (* bisect keeping the feasible end: cost_at lo <= energy <
             cost_at hi throughout, so lo never exceeds the budget and
             ends within 1e-12 of where the plan's cost crosses it *)
          let hi = ref energy in
          while !hi -. !lo > 1e-12 *. !hi do
            Fault.tick ();
            let mid = 0.5 *. (!lo +. !hi) in
            if cost_at mid <= energy then lo := mid else hi := mid
          done;
          !lo
        end
      end
    in
    let plans, makespan, cost = plan_at model levels inst ~budget' in
    { plans; makespan; energy = cost }
  end

let makespan model levels ~energy inst = (solve model levels ~energy inst).makespan
