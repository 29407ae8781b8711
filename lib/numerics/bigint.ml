(* Sign-magnitude bignum with 30-bit limbs stored little-endian.  All limb
   products fit in OCaml's 63-bit native int: limbs are < 2^30 so a product
   plus carries stays below 2^62.  Division is Knuth's Algorithm D. *)

let base_bits = 30
let base = 1 lsl base_bits
let mask = base - 1

type t = { sign : int; mag : int array }
(* Invariants: sign is -1, 0 or 1; mag has no high zero limbs;
   sign = 0 iff mag is empty. *)

let zero = { sign = 0; mag = [||] }
let one = { sign = 1; mag = [| 1 |] }
let minus_one = { sign = -1; mag = [| 1 |] }

(* ---------- magnitude helpers ---------- *)

let norm_mag m =
  let n = ref (Array.length m) in
  while !n > 0 && m.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length m then m else Array.sub m 0 !n

let make sign mag =
  let mag = norm_mag mag in
  if Array.length mag = 0 then zero else { sign; mag }

let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + Stdlib.max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let x = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- x land mask;
    carry := x lsr base_bits
  done;
  norm_mag r

(* requires |a| >= |b| *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let x = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if x < 0 then begin
      r.(i) <- x + base;
      borrow := 1
    end
    else begin
      r.(i) <- x;
      borrow := 0
    end
  done;
  norm_mag r

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let x = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- x land mask;
        carry := x lsr base_bits
      done;
      r.(i + lb) <- r.(i + lb) + !carry
    done;
    norm_mag r
  end

let shl_mag a k =
  let la = Array.length a in
  if la = 0 then [||]
  else begin
    let ls = k / base_bits and bs = k mod base_bits in
    let r = Array.make (la + ls + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bs in
      r.(i + ls) <- r.(i + ls) lor (v land mask);
      r.(i + ls + 1) <- r.(i + ls + 1) lor (v lsr base_bits)
    done;
    norm_mag r
  end

let shr_mag a k =
  let la = Array.length a in
  let ls = k / base_bits and bs = k mod base_bits in
  if ls >= la then [||]
  else begin
    let lr = la - ls in
    let r = Array.make lr 0 in
    for i = 0 to lr - 1 do
      let lo = a.(i + ls) lsr bs in
      let hi =
        if bs > 0 && i + ls + 1 < la then (a.(i + ls + 1) lsl (base_bits - bs)) land mask else 0
      in
      r.(i) <- lo lor hi
    done;
    norm_mag r
  end

(* index of the most significant set bit of a non-zero limb *)
let high_bit x =
  let rec go x i = if x = 0 then i - 1 else go (x lsr 1) (i + 1) in
  go x 0

(* Knuth Algorithm D; requires v non-empty. *)
let divmod_mag u v =
  if cmp_mag u v < 0 then ([||], u)
  else
    let n = Array.length v in
    if n = 1 then begin
      let d = v.(0) in
      let lu = Array.length u in
      let q = Array.make lu 0 in
      let r = ref 0 in
      for i = lu - 1 downto 0 do
        let cur = (!r lsl base_bits) lor u.(i) in
        q.(i) <- cur / d;
        r := cur mod d
      done;
      (norm_mag q, if !r = 0 then [||] else [| !r |])
    end
    else begin
      let lu = Array.length u in
      let m = lu - n in
      let s = base_bits - 1 - high_bit v.(n - 1) in
      let vn = Array.make n 0 in
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let x = (v.(i) lsl s) lor !carry in
        vn.(i) <- x land mask;
        carry := x lsr base_bits
      done;
      assert (!carry = 0);
      let un = Array.make (lu + 1) 0 in
      let carry = ref 0 in
      for i = 0 to lu - 1 do
        let x = (u.(i) lsl s) lor !carry in
        un.(i) <- x land mask;
        carry := x lsr base_bits
      done;
      un.(lu) <- !carry;
      let q = Array.make (m + 1) 0 in
      for j = m downto 0 do
        let num = (un.(j + n) lsl base_bits) lor un.(j + n - 1) in
        let qhat = ref (num / vn.(n - 1)) in
        let rhat = ref (num mod vn.(n - 1)) in
        let adjusting = ref true in
        while !adjusting do
          if !qhat >= base || !qhat * vn.(n - 2) > (!rhat lsl base_bits) lor un.(j + n - 2) then begin
            decr qhat;
            rhat := !rhat + vn.(n - 1);
            if !rhat >= base then adjusting := false
          end
          else adjusting := false
        done;
        let borrow = ref 0 and mcarry = ref 0 in
        for i = 0 to n - 1 do
          let p = (!qhat * vn.(i)) + !mcarry in
          mcarry := p lsr base_bits;
          let x = un.(i + j) - (p land mask) - !borrow in
          if x < 0 then begin
            un.(i + j) <- x + base;
            borrow := 1
          end
          else begin
            un.(i + j) <- x;
            borrow := 0
          end
        done;
        let x = un.(j + n) - !mcarry - !borrow in
        if x < 0 then begin
          (* qhat was one too large: add v back *)
          un.(j + n) <- x + base;
          decr qhat;
          let c = ref 0 in
          for i = 0 to n - 1 do
            let y = un.(i + j) + vn.(i) + !c in
            un.(i + j) <- y land mask;
            c := y lsr base_bits
          done;
          un.(j + n) <- (un.(j + n) + !c) land mask
        end
        else un.(j + n) <- x;
        q.(j) <- !qhat
      done;
      let r = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = un.(i) lsr s in
        let hi = if s > 0 then (un.(i + 1) lsl (base_bits - s)) land mask else 0 in
        r.(i) <- lo lor hi
      done;
      (norm_mag q, norm_mag r)
    end

(* ---------- signed operations ---------- *)

let sign x = x.sign
let is_zero x = x.sign = 0
let is_one x = x.sign = 1 && Array.length x.mag = 1 && x.mag.(0) = 1
let is_even x = x.sign = 0 || x.mag.(0) land 1 = 0
let neg x = if x.sign = 0 then x else { x with sign = -x.sign }
let abs x = if x.sign < 0 then neg x else x

let of_int i =
  if i = 0 then zero
  else begin
    let s = if i < 0 then -1 else 1 in
    (* min_int negation is safe: we peel limbs from the absolute value
       without materializing [abs min_int]. *)
    let rec limbs acc i = if i = 0 then List.rev acc else limbs ((i land mask) :: acc) (i lsr base_bits) in
    let a = if i = min_int then Array.of_list (limbs [] (i lxor -1)) else Array.of_list (limbs [] (Stdlib.abs i)) in
    if i = min_int then begin
      (* abs min_int = (lnot min_int) + 1 *)
      make s (add_mag a [| 1 |])
    end
    else make s a
  end

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then cmp_mag a.mag b.mag
  else cmp_mag b.mag a.mag

let equal a b = compare a b = 0

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (add_mag a.mag b.mag)
  else begin
    let c = cmp_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (sub_mag a.mag b.mag)
    else make b.sign (sub_mag b.mag a.mag)
  end

let sub a b = add a (neg b)
let mul a b = if a.sign = 0 || b.sign = 0 then zero else make (a.sign * b.sign) (mul_mag a.mag b.mag)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero
  else if a.sign = 0 then (zero, zero)
  else begin
    let q, r = divmod_mag a.mag b.mag in
    (make (a.sign * b.sign) q, make a.sign r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let pow x k =
  if k < 0 then invalid_arg "Bigint.pow: negative exponent"
  else begin
    let rec go acc b k = if k = 0 then acc else go (if k land 1 = 1 then mul acc b else acc) (mul b b) (k lsr 1) in
    go one x k
  end

let shift_left x k = if x.sign = 0 then zero else make x.sign (shl_mag x.mag k)
let shift_right x k = if x.sign = 0 then zero else make x.sign (shr_mag x.mag k)

let rec gcd a b =
  let a = abs a and b = abs b in
  if is_zero b then a else gcd b (rem a b)

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let succ x = add x one
let pred x = sub x one

let to_int_opt x =
  match Array.length x.mag with
  | 0 -> Some 0
  | 1 -> Some (x.sign * x.mag.(0))
  | 2 -> Some (x.sign * ((x.mag.(1) lsl base_bits) lor x.mag.(0)))
  | 3 when x.mag.(2) < 1 lsl (62 - (2 * base_bits)) ->
    Some (x.sign * ((x.mag.(2) lsl (2 * base_bits)) lor (x.mag.(1) lsl base_bits) lor x.mag.(0)))
  | 3 when x.mag.(2) = 1 lsl (62 - (2 * base_bits)) && x.sign < 0 && x.mag.(1) = 0 && x.mag.(0) = 0 ->
    Some min_int
  | _ -> None

let to_int_exn x =
  match to_int_opt x with Some i -> i | None -> failwith "Bigint.to_int_exn: out of range"

let numbits x =
  let n = Array.length x.mag in
  if n = 0 then 0 else ((n - 1) * base_bits) + high_bit x.mag.(n - 1) + 1

let to_float x =
  let n = Array.length x.mag in
  if n = 0 then 0.0
  else begin
    (* combine the top three limbs (90 bits > float mantissa) exactly,
       then scale by the remaining limb count *)
    let lo = Stdlib.max 0 (n - 3) in
    let acc = ref 0.0 in
    for i = n - 1 downto lo do
      acc := (!acc *. float_of_int base) +. float_of_int x.mag.(i)
    done;
    float_of_int x.sign *. ldexp !acc (base_bits * lo)
  end

let billion = 1_000_000_000

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let chunks = ref [] in
    let m = ref x.mag in
    while Array.length !m > 0 do
      let q, r = divmod_mag !m [| billion |] in
      chunks := (if Array.length r = 0 then 0 else r.(0)) :: !chunks;
      m := q
    done;
    let buf = Buffer.create 32 in
    if x.sign < 0 then Buffer.add_char buf '-';
    (match !chunks with
    | [] -> Buffer.add_char buf '0'
    | first :: rest ->
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let sgn, start = match s.[0] with '-' -> (-1, 1) | '+' -> (1, 1) | _ -> (1, 0) in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let big_billion = of_int billion in
  let chunk = ref 0 and chunk_len = ref 0 in
  for i = start to len - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bigint.of_string: invalid character";
    chunk := (!chunk * 10) + (Char.code c - Char.code '0');
    incr chunk_len;
    if !chunk_len = 9 then begin
      acc := add (mul !acc big_billion) (of_int !chunk);
      chunk := 0;
      chunk_len := 0
    end
  done;
  if !chunk_len > 0 then begin
    let mult = of_int (int_of_float (10. ** float_of_int !chunk_len)) in
    acc := add (mul !acc mult) (of_int !chunk)
  end;
  if sgn < 0 then neg !acc else !acc

let hash x = Array.fold_left (fun h limb -> (h * 31) + limb) x.sign x.mag
let pp fmt x = Format.pp_print_string fmt (to_string x)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( mod ) = rem
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
  let ( ~- ) = neg
end
