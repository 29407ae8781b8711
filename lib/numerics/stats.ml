let check_nonempty name xs = if Array.length xs = 0 then invalid_arg ("Stats." ^ name ^ ": empty")

let mean xs =
  check_nonempty "mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs /. float_of_int (n - 1)
  end

let sorted_copy xs =
  let ys = Array.copy xs in
  Array.sort compare ys;
  ys

let quantile xs q =
  check_nonempty "quantile" xs;
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q out of range";
  let ys = sorted_copy xs in
  let n = Array.length ys in
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float (Float.floor pos) in
  let frac = pos -. float_of_int i in
  if i + 1 >= n then ys.(n - 1) else ys.(i) +. (frac *. (ys.(i + 1) -. ys.(i)))

let median xs = quantile xs 0.5

let minimum xs =
  check_nonempty "minimum" xs;
  Array.fold_left Float.min xs.(0) xs

let maximum xs =
  check_nonempty "maximum" xs;
  Array.fold_left Float.max xs.(0) xs

let linear_fit pts =
  let n = Array.length pts in
  if n < 2 then invalid_arg "Stats.linear_fit: need at least two points";
  let nf = float_of_int n in
  let sx = Array.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
  let sy = Array.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
  let sxx = Array.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
  let sxy = Array.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
  let syy = Array.fold_left (fun a (_, y) -> a +. (y *. y)) 0.0 pts in
  let denom = (nf *. sxx) -. (sx *. sx) in
  if denom = 0.0 then invalid_arg "Stats.linear_fit: degenerate x values";
  let slope = ((nf *. sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. nf in
  let ss_tot = syy -. (sy *. sy /. nf) in
  let ss_res =
    Array.fold_left (fun a (x, y) -> a +. ((y -. (slope *. x) -. intercept) ** 2.0)) 0.0 pts
  in
  let r2 = if ss_tot = 0.0 then 1.0 else 1.0 -. (ss_res /. ss_tot) in
  (slope, intercept, r2)

let loglog_slope pts =
  let logged =
    Array.of_list
      (List.filter_map
         (fun (x, y) -> if x > 0.0 && y > 0.0 then Some (Float.log x, Float.log y) else None)
         (Array.to_list pts))
  in
  let slope, _, _ = linear_fit logged in
  slope
