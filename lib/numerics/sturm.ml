(* Integer polynomials: little-endian [Bigint.t] arrays without leading
   zeros.  Chain element i is c * k_i * r_i, where r_i is the element of
   the textbook Sturm chain over [Rat] (p, p', -rem ...), each k_i > 0
   and c is one nonzero constant for the whole chain: k_i leaves every
   sign alone and c < 0 flips all of them at each point, so no variation
   count moves. *)

(* counters are batched: one [Obs.add] per public call *)
let c_chain_builds = Obs.counter "sturm.chain_builds"
let c_sign_evals = Obs.counter "sturm.sign_evals"

type chain = Bigint.t array array
(* element 0 is the squarefree head; never empty *)

let degree (a : Bigint.t array) = Array.length a - 1
let lead a = a.(degree a)

let strip a =
  let n = ref (Array.length a) in
  while !n > 0 && Bigint.is_zero a.(!n - 1) do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

(* positive gcd of the coefficients *)
let content a =
  let rec go g i = if i < 0 || Bigint.is_one g then g else go (Bigint.gcd g a.(i)) (i - 1) in
  go Bigint.zero (degree a)

let primitive a =
  let c = content a in
  if Bigint.is_one c then a else Array.map (fun x -> Bigint.div x c) a

(* a positive rational multiple of [p] with coprime integer coefficients *)
let of_qpoly p =
  let cs = Array.of_list (Qpoly.coeffs p) in
  let l =
    Array.fold_left
      (fun l c ->
        let d = Rat.den c in
        Bigint.mul l (Bigint.div d (Bigint.gcd l d)))
      Bigint.one cs
  in
  primitive (Array.map (fun c -> Bigint.mul (Rat.num c) (Bigint.div l (Rat.den c))) cs)

let derivative a = Array.init (Stdlib.max 0 (degree a)) (fun i -> Bigint.mul (Bigint.of_int (i + 1)) a.(i + 1))

(* [lc(b)^k a - q b] of degree below [b]'s, with the sign of [lc(b)^k]:
   k rounds of cancelling the leading term, each scaling [r] by lc(b) *)
let pseudo_rem a b =
  let db = degree b and lb = lead b in
  let r = Array.copy a in
  let k = ref 0 in
  for dr = degree a downto db do
    let lr = r.(dr) in
    if not (Bigint.is_zero lr) then begin
      let s = dr - db in
      for i = 0 to dr - 1 do
        let t = Bigint.mul lb r.(i) in
        r.(i) <- (if i >= s then Bigint.sub t (Bigint.mul lr b.(i - s)) else t)
      done;
      incr k
    end
  done;
  (strip (Array.sub r 0 db), if !k land 1 = 1 then Bigint.sign lb else 1)

(* exact quotient of integer polynomials *)
let div_exact a b =
  let db = degree b and lb = lead b in
  let r = Array.copy a in
  let q = Array.make (degree a - db + 1) Bigint.zero in
  for i = degree a - db downto 0 do
    let c = Bigint.div r.(i + db) lb in
    q.(i) <- c;
    for j = 0 to db do
      r.(i + j) <- Bigint.sub r.(i + j) (Bigint.mul c b.(j))
    done
  done;
  q

(* primitive remainder sequence of [p] and [p']: element i+1 is
   -prem(e(i-1), e(i)), negated again when lc^k < 0 so that it is a
   positive multiple of -rem, over its content; the last element is a
   multiple of gcd(p, p') *)
let remainders p =
  let rec go acc a b =
    if degree b = 0 then List.rev (b :: acc)
    else
      match pseudo_rem a b with
      | [||], _ -> List.rev (b :: acc)
      | r, s -> go (b :: acc) b (primitive (if s > 0 then Array.map Bigint.neg r else r))
  in
  if degree p = 0 then [ p ] else go [ p ] p (primitive (derivative p))

let chain p =
  if Qpoly.is_zero p then invalid_arg "Sturm.chain: zero polynomial";
  Obs.incr c_chain_builds;
  let p = of_qpoly p in
  let rs = Array.of_list (remainders p) in
  let g = rs.(Array.length rs - 1) in
  (* a constant gcd leaves p squarefree and [rs] final; otherwise p = g *
     head with an integer head (Gauss's lemma: g is primitive) *)
  if degree g = 0 then rs else Array.of_list (remainders (div_exact p g))

(* sign of a(n/d), d > 0, as the sign of sum a_i n^i d^(D-i) by
   homogeneous Horner; [dpow.(j)] = d^j *)
let sign_at dpow n a =
  let dg = degree a in
  let acc = ref a.(dg) in
  for i = dg - 1 downto 0 do
    acc := Bigint.add (Bigint.mul !acc n) (Bigint.mul a.(i) dpow.(dg - i))
  done;
  Bigint.sign !acc

let powers d k =
  let t = Array.make (k + 1) Bigint.one in
  for j = 1 to k do
    t.(j) <- Bigint.mul t.(j - 1) d
  done;
  t

let count_variations signs =
  let rec go last acc = function
    | [] -> acc
    | 0 :: rest -> go last acc rest
    | s :: rest -> if last <> 0 && s <> last then go s (acc + 1) rest else go s acc rest
  in
  go 0 0 signs

(* variations of the whole chain at [v]; costs [Array.length ch] sign
   evaluations *)
let variations ch v =
  let n = Rat.num v and dpow = powers (Rat.den v) (degree ch.(0)) in
  count_variations (Array.to_list (Array.map (sign_at dpow n) ch))

let sign_at_pos_inf a = Bigint.sign (lead a)
let sign_at_neg_inf a = if degree a land 1 = 1 then -sign_at_pos_inf a else sign_at_pos_inf a
let variations_at_pos_inf ch = count_variations (Array.to_list (Array.map sign_at_pos_inf ch))
let variations_at_neg_inf ch = count_variations (Array.to_list (Array.map sign_at_neg_inf ch))

let count_roots ch ~lo ~hi =
  if Rat.compare lo hi > 0 then invalid_arg "Sturm.count_roots: lo > hi";
  Obs.add c_sign_evals (2 * Array.length ch);
  variations ch lo - variations ch hi

let count_all_roots ch = variations_at_neg_inf ch - variations_at_pos_inf ch

(* 1 + max |a_i| / |lc|: invariant under scaling, so an integer multiple
   gives the same bound as the rational polynomial *)
let cauchy a =
  let lc = Bigint.abs (lead a) in
  let m = Array.fold_left (fun m c -> Bigint.max m (Bigint.abs c)) Bigint.zero a in
  Rat.add Rat.one (Rat.make m lc)

let midpoint lo hi = Rat.div (Rat.add lo hi) (Rat.of_int 2)

let isolate ch =
  let h = ch.(0) in
  if degree h < 1 then []
  else begin
    let evals = ref 0 in
    let var x =
      evals := !evals + Array.length ch;
      variations ch x
    in
    (* each endpoint's variation count is passed down, so every point
       of the bisection tree is evaluated once *)
    let rec split lo vlo hi vhi acc =
      let k = vlo - vhi in
      if k = 0 then acc
      else if k = 1 then (lo, hi) :: acc
      else begin
        let mid = midpoint lo hi in
        let vmid = var mid in
        (* process the right half first so the accumulator ends up sorted
           in increasing order *)
        let acc = split mid vmid hi vhi acc in
        split lo vlo mid vmid acc
      end
    in
    let b = cauchy h in
    let lo = Rat.neg b in
    let roots = split lo (var lo) b (var b) [] in
    Obs.add c_sign_evals !evals;
    roots
  end

let refine ch ~lo ~hi ~eps =
  let h = ch.(0) in
  let evals = ref 0 in
  let sign x =
    incr evals;
    sign_at (powers (Rat.den x) (degree h)) (Rat.num x) h
  in
  (* the head is squarefree and (lo, hi] holds exactly one of its roots,
     so the root is left of mid exactly when p(mid) and p(hi) share a
     sign (never when p(hi) = 0); [lo] itself may be a root, never
     consulted *)
  let rec go lo hi shi =
    if Rat.compare (Rat.sub hi lo) eps <= 0 then (lo, hi)
    else begin
      let mid = midpoint lo hi in
      let smid = sign mid in
      if smid = 0 then (mid, mid)
      else if smid = shi then go lo mid smid
      else go mid hi shi
    end
  in
  let r = go lo hi (sign hi) in
  Obs.add c_sign_evals !evals;
  r

let isolate_roots p = if Qpoly.is_zero p then [] else isolate (chain p)
let refine_root p ~lo ~hi ~eps = refine (chain p) ~lo ~hi ~eps

let root_floats ?(eps = 1e-12) p =
  let eps = Rat.of_float_dyadic eps in
  if Qpoly.is_zero p then []
  else begin
    let ch = chain p in
    isolate ch
    |> List.map (fun (lo, hi) ->
           let lo, hi = refine ch ~lo ~hi ~eps in
           (Rat.to_float lo +. Rat.to_float hi) /. 2.0)
  end
