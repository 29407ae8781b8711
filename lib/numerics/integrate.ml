let simpson ~f ~lo ~hi ~n =
  if n < 1 then invalid_arg "Integrate.simpson: n < 1";
  let n = if n land 1 = 1 then n + 1 else n in
  let h = (hi -. lo) /. float_of_int n in
  let acc = ref (f lo +. f hi) in
  for i = 1 to n - 1 do
    let w = if i land 1 = 1 then 4.0 else 2.0 in
    acc := !acc +. (w *. f (lo +. (float_of_int i *. h)))
  done;
  !acc *. h /. 3.0

let adaptive_simpson ~f ~lo ~hi ?(eps = 1e-10) ?(max_depth = 50) () =
  let simpson3 a b fa fm fb = (b -. a) /. 6.0 *. (fa +. (4.0 *. fm) +. fb) in
  let rec go a b fa fm fb whole eps depth =
    let m = 0.5 *. (a +. b) in
    let lm = 0.5 *. (a +. m) and rm = 0.5 *. (m +. b) in
    let flm = f lm and frm = f rm in
    let left = simpson3 a m fa flm fm in
    let right = simpson3 m b fm frm fb in
    let delta = left +. right -. whole in
    if depth <= 0 || Float.abs delta <= 15.0 *. eps then left +. right +. (delta /. 15.0)
    else
      go a m fa flm fm left (eps /. 2.0) (depth - 1)
      +. go m b fm frm fb right (eps /. 2.0) (depth - 1)
  in
  let fa = f lo and fb = f hi in
  let m = 0.5 *. (lo +. hi) in
  let fm = f m in
  go lo hi fa fm fb (simpson3 lo hi fa fm fb) eps max_depth

let piecewise_constant segs =
  List.fold_left
    (fun acc (t0, t1, v) ->
      if t1 < t0 then invalid_arg "Integrate.piecewise_constant: t1 < t0";
      acc +. ((t1 -. t0) *. v))
    0.0 segs
