type t = Rat.t array
(* little-endian; invariant: no leading (high-index) zero coefficients *)

let normalize (a : Rat.t array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && Rat.is_zero a.(!n - 1) do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let zero : t = [||]
let const c = normalize [| c |]
let one = const Rat.one
let x = normalize [| Rat.zero; Rat.one |]
let of_list l = normalize (Array.of_list l)
let of_int_list l = of_list (List.map Rat.of_int l)
let coeffs p = Array.to_list p
let coeff p i = if i < Array.length p then p.(i) else Rat.zero
let degree p = Array.length p - 1
let leading p = if Array.length p = 0 then Rat.zero else p.(Array.length p - 1)
let is_zero p = Array.length p = 0
let equal a b = Array.length a = Array.length b && Array.for_all2 Rat.equal a b
let neg p = Array.map Rat.neg p

let add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = Stdlib.max la lb in
  normalize (Array.init lr (fun i -> Rat.add (coeff a i) (coeff b i)))

let sub a b =
  let la = Array.length a and lb = Array.length b in
  let lr = Stdlib.max la lb in
  normalize (Array.init lr (fun i -> Rat.sub (coeff a i) (coeff b i)))

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb - 1) Rat.zero in
    for i = 0 to la - 1 do
      for j = 0 to lb - 1 do
        r.(i + j) <- Rat.add r.(i + j) (Rat.mul a.(i) b.(j))
      done
    done;
    normalize r
  end

let scale c p = if Rat.is_zero c then zero else normalize (Array.map (Rat.mul c) p)

let pow p k =
  if k < 0 then invalid_arg "Qpoly.pow: negative exponent";
  let rec go acc b k = if k = 0 then acc else go (if k land 1 = 1 then mul acc b else acc) (mul b b) (k lsr 1) in
  go one p k

let derivative p =
  let n = Array.length p in
  if n <= 1 then zero
  else normalize (Array.init (n - 1) (fun i -> Rat.mul (Rat.of_int (i + 1)) p.(i + 1)))

let eval p v =
  let acc = ref Rat.zero in
  for i = Array.length p - 1 downto 0 do
    acc := Rat.add (Rat.mul !acc v) p.(i)
  done;
  !acc

let eval_float p v =
  let acc = ref 0.0 in
  for i = Array.length p - 1 downto 0 do
    acc := (!acc *. v) +. Rat.to_float p.(i)
  done;
  !acc

let divmod a b =
  if is_zero b then raise Division_by_zero;
  let db = degree b and lc = leading b in
  let r = ref a and q = ref zero in
  while degree !r >= db do
    let d = degree !r in
    let c = Rat.div (leading !r) lc in
    let term = normalize (Array.init (d - db + 1) (fun i -> if i = d - db then c else Rat.zero)) in
    q := add !q term;
    r := sub !r (mul term b)
  done;
  (!q, !r)

let rem a b = snd (divmod a b)

let monic p = if is_zero p then p else scale (Rat.inv (leading p)) p

let rec gcd a b = if is_zero b then monic a else gcd b (rem a b)

let squarefree p = if degree p <= 1 then monic p else fst (divmod p (gcd p (derivative p)))

let compose p q =
  let acc = ref zero in
  for i = Array.length p - 1 downto 0 do
    acc := add (mul !acc q) (const p.(i))
  done;
  !acc

let to_string ?(var = "x") p =
  if is_zero p then "0"
  else begin
    let buf = Buffer.create 64 in
    let first = ref true in
    for i = Array.length p - 1 downto 0 do
      let c = p.(i) in
      if not (Rat.is_zero c) then begin
        if !first then begin
          if Rat.sign c < 0 then Buffer.add_string buf "-";
          first := false
        end
        else Buffer.add_string buf (if Rat.sign c < 0 then " - " else " + ");
        let a = Rat.abs c in
        let show_coeff = i = 0 || not (Rat.equal a Rat.one) in
        if show_coeff then Buffer.add_string buf (Rat.to_string a);
        if i > 0 then begin
          if show_coeff then Buffer.add_char buf '*';
          Buffer.add_string buf var;
          if i > 1 then Buffer.add_string buf ("^" ^ string_of_int i)
        end
      end
    done;
    Buffer.contents buf
  end
