let of_segments m segs =
  List.fold_left
    (fun acc (dur, speed) ->
      if dur < 0.0 then invalid_arg "Energy.of_segments: negative duration";
      acc +. (dur *. Power_model.power m speed))
    0.0 segs

(* one constant speed over the whole time: by convexity the cheapest
   way to finish that work in that time (Lemma 2's averaging argument) *)
let uniform m ~total_work ~total_time = Power_model.energy_in_time m ~work:total_work ~duration:total_time

let average_speed_saves m segs =
  let total_time = List.fold_left (fun a (d, _) -> a +. d) 0.0 segs in
  let total_work = List.fold_left (fun a (d, s) -> a +. (d *. s)) 0.0 segs in
  if total_time <= 0.0 then true
  else begin
    let multi = of_segments m segs in
    let single = uniform m ~total_work ~total_time in
    single <= multi +. (1e-9 *. (1.0 +. multi))
  end
