type sample = { time : float; temperature : float }

(* NaN passes the sign test, so the finiteness test must follow it *)
let check_params ~heating ~cooling =
  if heating <= 0.0 || cooling <= 0.0 then
    invalid_arg "Thermal: heating and cooling must be positive";
  if not (Float.is_finite heating && Float.is_finite cooling) then
    invalid_arg "Thermal: heating and cooling must be finite"

let steady_state model ~heating ~cooling speed =
  check_params ~heating ~cooling;
  heating *. Power_model.power model speed /. cooling

(* evolve from temperature [t] across [dt] at constant [speed] *)
let step model ~heating ~cooling t speed dt =
  let target = heating *. Power_model.power model speed /. cooling in
  target +. ((t -. target) *. Float.exp (-.cooling *. dt))

let boundaries ?t0 profile =
  (* timeline points: profile start (or t0) plus all segment edges *)
  let segs = Speed_profile.segments profile in
  let start = match (t0, segs) with Some t, _ -> t | None, s :: _ -> s.Speed_profile.t0 | None, [] -> 0.0 in
  let points =
    List.concat_map (fun (s : Speed_profile.segment) -> [ s.Speed_profile.t0; s.Speed_profile.t1 ]) segs
  in
  List.sort_uniq compare (start :: points)

let trace model ~heating ~cooling ?t0 ?(initial = 0.0) profile =
  check_params ~heating ~cooling;
  let points = boundaries ?t0 profile in
  match points with
  | [] -> []
  | first :: rest ->
    let samples = ref [ { time = first; temperature = initial } ] in
    let temp = ref initial in
    let prev = ref first in
    List.iter
      (fun t ->
        if t > !prev then begin
          (* speed is constant on (prev, t): sample the midpoint *)
          let speed = Speed_profile.speed_at profile ((!prev +. t) /. 2.0) in
          temp := step model ~heating ~cooling !temp speed (t -. !prev);
          samples := { time = t; temperature = !temp } :: !samples;
          prev := t
        end)
      rest;
    List.rev !samples

let max_temperature model ~heating ~cooling ?initial profile =
  List.fold_left
    (fun acc s -> Float.max acc s.temperature)
    0.0
    (trace model ~heating ~cooling ?initial profile)

let temperature_at model ~heating ~cooling ?(initial = 0.0) profile time =
  check_params ~heating ~cooling;
  let points = List.filter (fun t -> t <= time) (boundaries profile) in
  match points with
  | [] -> initial *. Float.exp (-.cooling *. time)
  | _ ->
    let temp = ref initial and prev = ref (List.hd points) in
    List.iter
      (fun t ->
        if t > !prev then begin
          let speed = Speed_profile.speed_at profile ((!prev +. t) /. 2.0) in
          temp := step model ~heating ~cooling !temp speed (t -. !prev);
          prev := t
        end)
      (List.tl points);
    if time > !prev then begin
      let speed = Speed_profile.speed_at profile ((!prev +. time) /. 2.0) in
      step model ~heating ~cooling !temp speed (time -. !prev)
    end
    else !temp
