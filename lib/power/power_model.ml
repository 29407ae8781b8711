

type t =
  | Alpha of float
  | Custom of { name : string; p : float -> float; dp : (float -> float) option }

let alpha a = if a <= 1.0 then invalid_arg "Power_model.alpha: need alpha > 1" else Alpha a
let cube = Alpha 3.0
let custom ?(name = "custom") ?deriv p = Custom { name; p; dp = deriv }

let name = function
  | Alpha a -> Printf.sprintf "speed^%g" a
  | Custom { name; _ } -> name

let power m s =
  if s < 0.0 then invalid_arg "Power_model.power: negative speed";
  match m with Alpha a -> s ** a | Custom { p; _ } -> p s

let deriv m s =
  match m with
  | Alpha a -> a *. (s ** (a -. 1.0))
  | Custom { dp = Some d; _ } -> d s
  | Custom { p; _ } ->
    let h = 1e-7 *. (1.0 +. Float.abs s) in
    if s > h then (p (s +. h) -. p (s -. h)) /. (2.0 *. h) else (p (s +. h) -. p s) /. h

let alpha_exponent = function Alpha a -> Some a | Custom _ -> None

let energy_run m ~work ~speed =
  if work < 0.0 then invalid_arg "Power_model.energy_run: negative work";
  if work = 0.0 then 0.0
  else if speed <= 0.0 then invalid_arg "Power_model.energy_run: speed <= 0"
  else
    match m with
    | Alpha a -> work *. (speed ** (a -. 1.0))
    | Custom { p; _ } -> work /. speed *. p speed

let energy_in_time m ~work ~duration =
  if duration <= 0.0 then
    if work = 0.0 then 0.0 else invalid_arg "Power_model.energy_in_time: duration <= 0"
  else if work = 0.0 then 0.0
  else energy_run m ~work ~speed:(work /. duration)

let energy_floor m ~work =
  if work < 0.0 then invalid_arg "Power_model.energy_floor: negative work";
  match m with
  | Alpha _ -> 0.0
  | Custom _ -> work *. deriv m 0.0

let speed_for_energy_opt m ~work ~energy =
  if work <= 0.0 then invalid_arg "Power_model.speed_for_energy: work <= 0";
  if energy <= 0.0 then invalid_arg "Power_model.speed_for_energy: energy <= 0";
  match m with
  | Alpha a -> Some ((energy /. work) ** (1.0 /. (a -. 1.0)))
  | Custom _ ->
    (* energy_run is continuous and strictly increasing in speed (by
       strict convexity of P with P(0) = 0), decreasing toward the floor
       work·P'(0) as speed -> 0; bracket upward only *)
    let f s = energy_run m ~work ~speed:s -. energy in
    let lo = 1e-12 in
    if f lo >= 0.0 then None
    else begin
      let hi = ref 1.0 in
      let i = ref 0 in
      while f !hi < 0.0 && !i < 200 do
        hi := !hi *. 2.0;
        incr i
      done;
      if f !hi < 0.0 then None else Some (Rootfind.brent ~f ~lo ~hi:!hi ())
    end

let speed_for_energy m ~work ~energy =
  match speed_for_energy_opt m ~work ~energy with
  | Some s -> s
  | None -> invalid_arg "Power_model.speed_for_energy: budget below the model's energy floor"

let duration_for_energy m ~work ~energy = work /. speed_for_energy m ~work ~energy

let is_strictly_convex ?(lo = 1e-3) ?(hi = 10.0) ?(n = 200) m =
  Convex.is_strictly_convex_on_samples ~f:(power m) ~lo ~hi ~n
