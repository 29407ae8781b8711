type t = { num : Bigint.t; den : Bigint.t }
(* Invariants: den > 0; gcd(|num|, den) = 1; num = 0 implies den = 1. *)

let normalize num den =
  if Bigint.is_zero den then raise Division_by_zero
  else if Bigint.is_zero num then { num = Bigint.zero; den = Bigint.one }
  else begin
    let num, den = if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den) else (num, den) in
    let g = Bigint.gcd num den in
    if Bigint.is_one g then { num; den } else { num = Bigint.div num g; den = Bigint.div den g }
  end

let make = normalize
let of_bigint n = { num = n; den = Bigint.one }
let of_int i = of_bigint (Bigint.of_int i)
let of_ints a b = normalize (Bigint.of_int a) (Bigint.of_int b)
let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)
let num x = x.num
let den x = x.den
let sign x = Bigint.sign x.num
let is_zero x = Bigint.is_zero x.num
let neg x = { x with num = Bigint.neg x.num }
let abs x = { x with num = Bigint.abs x.num }

let inv x =
  if is_zero x then raise Division_by_zero
  else if Bigint.sign x.num > 0 then { num = x.den; den = x.num }
  else { num = Bigint.neg x.den; den = Bigint.neg x.num }

let add a b =
  normalize
    (Bigint.add (Bigint.mul a.num b.den) (Bigint.mul b.num a.den))
    (Bigint.mul a.den b.den)

let sub a b =
  normalize
    (Bigint.sub (Bigint.mul a.num b.den) (Bigint.mul b.num a.den))
    (Bigint.mul a.den b.den)

let mul a b = normalize (Bigint.mul a.num b.num) (Bigint.mul a.den b.den)
let div a b = if is_zero b then raise Division_by_zero else mul a (inv b)

let pow x k =
  if k >= 0 then { num = Bigint.pow x.num k; den = Bigint.pow x.den k }
  else inv { num = Bigint.pow x.num (-k); den = Bigint.pow x.den (-k) }

let compare a b = Bigint.compare (Bigint.mul a.num b.den) (Bigint.mul b.num a.den)
let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let mediant a b = normalize (Bigint.add a.num b.num) (Bigint.add a.den b.den)
(* Small operands keep the plain quotient of the two conversions, so no
   value computed from them moves.  Larger ones would overflow to
   inf/inf or underflow through an infinite denominator: take the
   integer quotient q = |num| 2^s / den with 55-56 bits, round it to the
   53 bits (fewer for a subnormal result) that the float keeps, half to
   even with the remainder as sticky bit, and scale it exactly. *)
let to_float x =
  let nb = Bigint.numbits x.num and db = Bigint.numbits x.den in
  if nb <= 1000 && db <= 1000 then Bigint.to_float x.num /. Bigint.to_float x.den
  else begin
    let s = 55 - nb + db in
    let q, r =
      if s >= 0 then Bigint.divmod (Bigint.shift_left (Bigint.abs x.num) s) x.den
      else Bigint.divmod (Bigint.abs x.num) (Bigint.shift_left x.den (-s))
    in
    (* bits dropped: down to 53 significant bits, or to the 2^-1074 grid *)
    let k = Stdlib.max (Bigint.numbits q - 53) (s - 1074) in
    let q = Bigint.to_int_exn q in
    let m =
      if k > 57 then 0
      else begin
        let m = q asr k and low = q land ((1 lsl k) - 1) and half = 1 lsl (k - 1) in
        if low > half || (low = half && ((not (Bigint.is_zero r)) || m land 1 = 1)) then m + 1 else m
      end
    in
    Float.of_int (Bigint.sign x.num) *. Float.ldexp (Float.of_int m) (k - s)
  end

let of_float_dyadic f =
  if not (Float.is_finite f) then invalid_arg "Rat.of_float_dyadic: not finite"
  else begin
    let m, e = Float.frexp f in
    (* m * 2^53 is an integer for finite floats *)
    let mi = Int64.to_int (Int64.of_float (Float.ldexp m 53)) in
    let e = e - 53 in
    if e >= 0 then of_bigint (Bigint.shift_left (Bigint.of_int mi) e)
    else normalize (Bigint.of_int mi) (Bigint.shift_left Bigint.one (-e))
  end

let to_string x =
  if Bigint.is_one x.den then Bigint.to_string x.num
  else Bigint.to_string x.num ^ "/" ^ Bigint.to_string x.den

let of_string s =
  match String.index_opt s '/' with
  | Some i ->
    make (Bigint.of_string (String.sub s 0 i)) (Bigint.of_string (String.sub s (i + 1) (String.length s - i - 1)))
  | None ->
    (match String.index_opt s '.' with
    | None -> of_bigint (Bigint.of_string s)
    | Some i ->
      let int_part = String.sub s 0 i in
      let frac = String.sub s (i + 1) (String.length s - i - 1) in
      let scale = Bigint.pow (Bigint.of_int 10) (String.length frac) in
      let whole = Bigint.of_string (if int_part = "" || int_part = "-" || int_part = "+" then int_part ^ "0" else int_part) in
      let fnum = if frac = "" then Bigint.zero else Bigint.of_string frac in
      let neg_input = String.length s > 0 && s.[0] = '-' in
      let combined =
        let base = Bigint.mul (Bigint.abs whole) scale in
        let v = Bigint.add base fnum in
        if neg_input then Bigint.neg v else v
      in
      make combined scale)

let pp fmt x = Format.pp_print_string fmt (to_string x)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
  let ( ~- ) = neg
end
