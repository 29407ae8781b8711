type segment = { t0 : float; t1 : float; speed : float }
type t = segment list (* sorted by t0, non-overlapping *)

let check_segment { t0; t1; speed } =
  if not (Float.is_finite t0 && Float.is_finite t1 && Float.is_finite speed) then
    invalid_arg "Speed_profile: non-finite segment";
  if t1 < t0 then invalid_arg "Speed_profile: t1 < t0";
  if speed < 0.0 then invalid_arg "Speed_profile: negative speed"

let of_segments segs =
  List.iter check_segment segs;
  let sorted = List.sort (fun a b -> compare (a.t0, a.t1) (b.t0, b.t1)) segs in
  let rec check_overlap = function
    | a :: (b :: _ as rest) ->
      if b.t0 < a.t1 -. 1e-12 then invalid_arg "Speed_profile: overlapping segments";
      check_overlap rest
    | _ -> ()
  in
  check_overlap sorted;
  sorted

let segments t = t

let speed_at t time =
  let rec go acc = function
    | [] -> acc
    | s :: rest -> if s.t0 <= time && time <= s.t1 then go s.speed rest else go acc rest
  in
  go 0.0 t

let work t = List.fold_left (fun acc s -> acc +. ((s.t1 -. s.t0) *. s.speed)) 0.0 t

let work_between t a b =
  List.fold_left
    (fun acc s ->
      let lo = Float.max a s.t0 and hi = Float.min b s.t1 in
      if hi > lo then acc +. ((hi -. lo) *. s.speed) else acc)
    0.0 t

let energy m t =
  List.fold_left (fun acc s -> acc +. ((s.t1 -. s.t0) *. Power_model.power m s.speed)) 0.0 t

let duration t = List.fold_left (fun acc s -> acc +. (s.t1 -. s.t0)) 0.0 t

let span = function
  | [] -> None
  | first :: _ as segs ->
    let last_end = List.fold_left (fun acc s -> Float.max acc s.t1) first.t1 segs in
    Some (first.t0, last_end)

let append t seg =
  check_segment seg;
  match span t with
  | None -> [ seg ]
  | Some (_, e) ->
    if seg.t0 < e -. 1e-12 then invalid_arg "Speed_profile.append: segment starts before current end"
    else t @ [ seg ]
