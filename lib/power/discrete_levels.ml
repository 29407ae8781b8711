type t = float array (* sorted increasing, strictly positive, distinct *)

let create speeds =
  if speeds = [] then invalid_arg "Discrete_levels.create: empty";
  (* NaN passes the sign test, so the finiteness test must follow it *)
  List.iter
    (fun s ->
      if s <= 0.0 then invalid_arg "Discrete_levels.create: non-positive level";
      if not (Float.is_finite s) then invalid_arg "Discrete_levels.create: level must be finite")
    speeds;
  let sorted = List.sort_uniq compare speeds in
  Array.of_list sorted

let athlon64 = create [ 0.8; 1.8; 2.0 ]
let levels t = Array.copy t
let min_speed t = t.(0)
let max_speed t = t.(Array.length t - 1)

let round_up t s =
  let n = Array.length t in
  let rec go i = if i >= n then None else if t.(i) >= s then Some t.(i) else go (i + 1) in
  go 0

let round_down t s =
  let rec go i = if i < 0 then None else if t.(i) <= s then Some t.(i) else go (i - 1) in
  go (Array.length t - 1)

let bracket t s =
  match (round_down t s, round_up t s) with
  | Some lo, Some hi -> Some (lo, hi)
  | _ -> None

type split = { low_speed : float; low_time : float; high_speed : float; high_time : float }

let two_level_split t ~work ~duration =
  if duration <= 0.0 then invalid_arg "Discrete_levels.two_level_split: duration <= 0";
  if work < 0.0 then invalid_arg "Discrete_levels.two_level_split: negative work";
  let s = work /. duration in
  match bracket t s with
  | None -> None
  | Some (lo, hi) ->
    if lo = hi then Some { low_speed = lo; low_time = duration; high_speed = hi; high_time = 0.0 }
    else begin
      (* lo*tl + hi*th = work, tl + th = duration *)
      let th = (work -. (lo *. duration)) /. (hi -. lo) in
      let tl = duration -. th in
      Some { low_speed = lo; low_time = tl; high_speed = hi; high_time = th }
    end

let split_energy m { low_speed; low_time; high_speed; high_time } =
  (low_time *. Power_model.power m low_speed) +. (high_time *. Power_model.power m high_speed)

let quantization_overhead m t ~work ~duration =
  if work <= 0.0 then invalid_arg "Discrete_levels.quantization_overhead: work <= 0";
  match two_level_split t ~work ~duration with
  | None -> None
  | Some split ->
    let cont = Power_model.energy_in_time m ~work ~duration in
    Some ((split_energy m split -. cont) /. cont)
