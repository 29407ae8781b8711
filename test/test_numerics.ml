(* Tests for the numerics substrate: bignums, rationals, polynomials,
   Sturm sequences, root finding, quadrature, statistics. *)



let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let checkf = Alcotest.(check (float 1e-9))

(* ---------- Bigint unit tests ---------- *)

let bi = Bigint.of_int

let test_bigint_roundtrip_small () =
  List.iter
    (fun i -> check_int "to_int (of_int i)" i (Bigint.to_int_exn (bi i)))
    [ 0; 1; -1; 42; -42; max_int; min_int; 1 lsl 30; (1 lsl 30) - 1; -(1 lsl 40) ]

let test_bigint_string_roundtrip () =
  List.iter
    (fun s -> check_str "to_string (of_string s)" s (Bigint.to_string (Bigint.of_string s)))
    [ "0"; "1"; "-1"; "123456789"; "-987654321012345678901234567890"; "1000000000000000000000000000" ]

let test_bigint_add_carry () =
  let a = Bigint.of_string "999999999999999999999999" in
  check_str "add 1" "1000000000000000000000000" Bigint.(to_string (add a one))

let test_bigint_mul_big () =
  let a = Bigint.of_string "123456789123456789" in
  let b = Bigint.of_string "987654321987654321" in
  check_str "mul" "121932631356500531347203169112635269" Bigint.(to_string (mul a b))

let test_bigint_divmod_exact () =
  let a = Bigint.of_string "121932631356500531347203169112635269" in
  let b = Bigint.of_string "987654321987654321" in
  let q, r = Bigint.divmod a b in
  check_str "q" "123456789123456789" (Bigint.to_string q);
  check_bool "r = 0" true (Bigint.is_zero r)

let test_bigint_divmod_signs () =
  (* truncated division semantics, like Stdlib *)
  let cases = [ (7, 3); (-7, 3); (7, -3); (-7, -3); (0, 5); (6, 2); (-6, 2) ] in
  List.iter
    (fun (a, b) ->
      let q, r = Bigint.divmod (bi a) (bi b) in
      check_int (Printf.sprintf "q %d/%d" a b) (a / b) (Bigint.to_int_exn q);
      check_int (Printf.sprintf "r %d/%d" a b) (a mod b) (Bigint.to_int_exn r))
    cases

let test_bigint_pow () =
  check_str "2^100" "1267650600228229401496703205376" Bigint.(to_string (pow (of_int 2) 100));
  check_str "3^0" "1" Bigint.(to_string (pow (of_int 3) 0));
  check_str "(-2)^3" "-8" Bigint.(to_string (pow (of_int (-2)) 3))

let test_bigint_gcd () =
  check_int "gcd 12 18" 6 Bigint.(to_int_exn (gcd (bi 12) (bi 18)));
  check_int "gcd 0 5" 5 Bigint.(to_int_exn (gcd (bi 0) (bi 5)));
  check_int "gcd -12 18" 6 Bigint.(to_int_exn (gcd (bi (-12)) (bi 18)));
  let a = Bigint.of_string "123456789123456789" in
  check_str "gcd a a" "123456789123456789" Bigint.(to_string (gcd a a))

let test_bigint_shift () =
  check_str "1 << 100" Bigint.(to_string (pow (of_int 2) 100)) Bigint.(to_string (shift_left one 100));
  check_int "x >> 3" (12345 lsr 3) Bigint.(to_int_exn (shift_right (bi 12345) 3));
  check_int "x >> big" 0 Bigint.(to_int_exn (shift_right (bi 12345) 100));
  List.iter
    (fun (name, x, bits) -> check_int ("numbits " ^ name) bits (Bigint.numbits x))
    Bigint.
      [
        ("0", zero, 0);
        ("1", one, 1);
        ("-12345", bi (-12345), 14);
        ("2^90", shift_left one 90, 91);
        ("2^100 - 1", pred (shift_left one 100), 100);
      ]

let test_bigint_to_float () =
  checkf "to_float small" 12345.0 (Bigint.to_float (bi 12345));
  let big = Bigint.pow (bi 10) 30 in
  check_bool "to_float big" true (Float.abs (Bigint.to_float big -. 1e30) /. 1e30 < 1e-12);
  (* two roundings, not the nearest float: 2^83 + 2^30 + 1 is more than
     half an ulp (2^30 of 2^31) above 2^83, yet the third limb's 1 is
     lost first.  Rat.to_float, and the Theorem 8 roots pinned in
     test_flow, rely on this rounding *)
  let x = Bigint.add (Bigint.shift_left Bigint.one 83) (Bigint.succ (Bigint.shift_left Bigint.one 30)) in
  Alcotest.(check (float 0.0)) "2^83 + 2^30 + 1" 0x1p+83 (Bigint.to_float x);
  check_bool "the nearest float is one ulp up" true (0x1.0000000000001p+83 -. 0x1p+83 = 0x1p+31)

(* property: bigint arithmetic agrees with int64 on small operands *)
let prop_bigint_matches_int =
  QCheck.Test.make ~count:500 ~name:"bigint add/sub/mul/divmod match int"
    QCheck.(pair (int_range (-100000) 100000) (int_range (-100000) 100000))
    (fun (a, b) ->
      let ba = bi a and bb = bi b in
      Bigint.to_int_exn (Bigint.add ba bb) = a + b
      && Bigint.to_int_exn (Bigint.sub ba bb) = a - b
      && Bigint.to_int_exn (Bigint.mul ba bb) = a * b
      &&
      if b = 0 then true
      else begin
        let q, r = Bigint.divmod ba bb in
        Bigint.to_int_exn q = a / b && Bigint.to_int_exn r = a mod b
      end)

let prop_bigint_divmod_identity =
  (* exercise multi-limb Knuth division: a = q*b + r, |r| < |b| *)
  let gen_big =
    QCheck.Gen.(
      map2
        (fun digits sign ->
          let s = String.concat "" (List.map string_of_int digits) in
          let s = if s = "" then "0" else s in
          if sign then "-" ^ s else s)
        (list_size (int_range 1 40) (int_range 0 9))
        bool)
  in
  let arb = QCheck.make ~print:(fun s -> s) gen_big in
  QCheck.Test.make ~count:500 ~name:"bigint divmod identity on big operands" (QCheck.pair arb arb)
    (fun (sa, sb) ->
      let a = Bigint.of_string sa and b = Bigint.of_string sb in
      QCheck.assume (not (Bigint.is_zero b));
      let q, r = Bigint.divmod a b in
      Bigint.equal a (Bigint.add (Bigint.mul q b) r)
      && Bigint.compare (Bigint.abs r) (Bigint.abs b) < 0
      && (Bigint.is_zero r || Bigint.sign r = Bigint.sign a))

let prop_bigint_string_roundtrip =
  let gen =
    QCheck.Gen.(
      map2
        (fun first rest -> String.concat "" (string_of_int first :: List.map string_of_int rest))
        (int_range 1 9)
        (list_size (int_range 0 50) (int_range 0 9)))
  in
  QCheck.Test.make ~count:300 ~name:"bigint decimal round-trip"
    (QCheck.make ~print:(fun s -> s) gen)
    (fun s -> Bigint.to_string (Bigint.of_string s) = s)

(* ---------- Rat ---------- *)

let q = Rat.of_ints

let test_rat_normalization () =
  check_bool "2/4 = 1/2" true (Rat.equal (q 2 4) (q 1 2));
  check_bool "-2/-4 = 1/2" true (Rat.equal (q (-2) (-4)) (q 1 2));
  check_bool "den > 0" true (Bigint.sign (Rat.den (q 1 (-2))) > 0);
  check_str "print" "-1/2" (Rat.to_string (q 1 (-2)))

let test_rat_arith () =
  check_bool "1/2 + 1/3 = 5/6" true Rat.(equal (add (q 1 2) (q 1 3)) (q 5 6));
  check_bool "1/2 * 2/3 = 1/3" true Rat.(equal (mul (q 1 2) (q 2 3)) (q 1 3));
  check_bool "(1/2) / (3/4) = 2/3" true Rat.(equal (div (q 1 2) (q 3 4)) (q 2 3));
  check_bool "pow (2/3) (-2) = 9/4" true Rat.(equal (pow (q 2 3) (-2)) (q 9 4))

let test_rat_of_string () =
  check_bool "3/4" true (Rat.equal (Rat.of_string "3/4") (q 3 4));
  check_bool "2.75" true (Rat.equal (Rat.of_string "2.75") (q 11 4));
  check_bool "-2.5" true (Rat.equal (Rat.of_string "-2.5") (q (-5) 2));
  check_bool "42" true (Rat.equal (Rat.of_string "42") (q 42 1))

let test_rat_of_float_dyadic () =
  check_bool "0.5" true (Rat.equal (Rat.of_float_dyadic 0.5) (q 1 2));
  check_bool "-0.375" true (Rat.equal (Rat.of_float_dyadic (-0.375)) (q (-3) 8));
  checkf "roundtrip pi" Float.pi (Rat.to_float (Rat.of_float_dyadic Float.pi))

let test_rat_to_float_extremes () =
  let checkx = Alcotest.(check (float 0.0)) and pow2 = Bigint.shift_left Bigint.one in
  (* both halves overflowed to infinity: inf /. inf was nan *)
  checkx "(2^1100 + 1) / 2^1100" 1.0 (Rat.to_float (Rat.make (Bigint.succ (pow2 1100)) (pow2 1100)));
  (* the denominator overflowed to infinity: the quotient was 0 *)
  checkx "3 / 2^1074" (3.0 *. 0x1p-1074) (Rat.to_float (Rat.make (Bigint.of_int 3) (pow2 1074)));
  checkx "smallest subnormal round trip" 4.9e-324 (Rat.to_float (Rat.of_float_dyadic 4.9e-324));
  (* 2^1053 + 2^1000 is halfway between two floats: ties go to even,
     anything above goes up *)
  let above k = Rat.make (Bigint.add (pow2 1053) k) Bigint.one in
  checkx "halfway rounds to even" 0x1p1053 (Rat.to_float (above (pow2 1000)));
  checkx "just above halfway rounds up" (Float.succ 0x1p1053) (Rat.to_float (above (Bigint.succ (pow2 1000))));
  (* 2^-1075 is halfway between 0 and the least subnormal; 2^-1075 (1 +
     2^-59) is just above it, and rounding to 53 bits before the
     subnormal grid would make it a tie first *)
  checkx "subnormal halfway rounds to even" 0.0 (Rat.to_float (Rat.make Bigint.one (pow2 1075)));
  checkx "subnormal rounds once" 0x1p-1074 (Rat.to_float (Rat.make (Bigint.succ (pow2 59)) (pow2 1134)))

let prop_rat_float_roundtrip =
  (* uniform bit patterns reach every exponent; the second generator
     clears the exponent field so subnormals are drawn just as often *)
  let gen =
    QCheck.Gen.(
      map Int64.float_of_bits (oneof [ int64; map (Int64.logand 0x800F_FFFF_FFFF_FFFFL) int64 ]))
  in
  QCheck.Test.make ~count:1000 ~name:"to_float (of_float_dyadic f) = f on finite floats"
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun f ->
      QCheck.assume (Float.is_finite f);
      Float.equal (Rat.to_float (Rat.of_float_dyadic f)) f)

let prop_rat_field_laws =
  let arb = QCheck.(pair (int_range (-1000) 1000) (int_range 1 1000)) in
  QCheck.Test.make ~count:300 ~name:"rational field laws" (QCheck.pair arb arb)
    (fun (((a, b) as _x), ((c, d) as _y)) ->
      let x = q a b and y = q c d in
      Rat.(equal (add x y) (add y x))
      && Rat.(equal (mul x y) (mul y x))
      && Rat.(equal (sub (add x y) y) x)
      && (Rat.is_zero y || Rat.(equal (mul (div x y) y) x))
      && Rat.(equal (mul x (add y one)) (add (mul x y) x)))

let prop_rat_compare_matches_float =
  let arb = QCheck.(pair (int_range (-1000) 1000) (int_range 1 64)) in
  QCheck.Test.make ~count:300 ~name:"rational compare consistent with floats" (QCheck.pair arb arb)
    (fun ((a, b), (c, d)) ->
      let x = q a b and y = q c d in
      let fx = float_of_int a /. float_of_int b and fy = float_of_int c /. float_of_int d in
      if Float.abs (fx -. fy) > 1e-9 then compare fx fy = Rat.compare x y else true)

(* ---------- Qpoly ---------- *)

let p_of l = Qpoly.of_int_list l

let test_qpoly_basic () =
  let p = p_of [ 1; 2; 3 ] in
  (* 1 + 2x + 3x^2 *)
  check_int "degree" 2 (Qpoly.degree p);
  check_bool "eval 2 = 17" true Rat.(equal (Qpoly.eval p (Rat.of_int 2)) (Rat.of_int 17));
  check_bool "leading" true Rat.(equal (Qpoly.leading p) (Rat.of_int 3));
  check_int "zero degree" (-1) (Qpoly.degree Qpoly.zero)

let test_qpoly_arith () =
  let a = p_of [ 1; 1 ] in
  (* 1 + x *)
  let b = p_of [ -1; 1 ] in
  (* -1 + x *)
  check_bool "(1+x)(x-1) = x^2-1" true (Qpoly.equal (Qpoly.mul a b) (p_of [ -1; 0; 1 ]));
  check_bool "add" true (Qpoly.equal (Qpoly.add a b) (p_of [ 0; 2 ]));
  check_bool "sub cancels" true (Qpoly.is_zero (Qpoly.sub a a));
  check_bool "pow" true (Qpoly.equal (Qpoly.pow a 2) (p_of [ 1; 2; 1 ]))

let test_qpoly_derivative () =
  let p = p_of [ 5; 0; 3; 2 ] in
  (* 5 + 3x^2 + 2x^3 -> 6x + 6x^2 *)
  check_bool "derivative" true (Qpoly.equal (Qpoly.derivative p) (p_of [ 0; 6; 6 ]))

let test_qpoly_divmod () =
  let a = p_of [ -1; 0; 0; 1 ] in
  (* x^3 - 1 *)
  let b = p_of [ -1; 1 ] in
  (* x - 1 *)
  let quot, r = Qpoly.divmod a b in
  check_bool "x^3-1 = (x-1)(x^2+x+1)" true (Qpoly.equal quot (p_of [ 1; 1; 1 ]));
  check_bool "rem 0" true (Qpoly.is_zero r)

let test_qpoly_gcd () =
  (* gcd((x-1)(x-2), (x-1)(x-3)) = x - 1 *)
  let g = Qpoly.gcd (Qpoly.mul (p_of [ -1; 1 ]) (p_of [ -2; 1 ])) (Qpoly.mul (p_of [ -1; 1 ]) (p_of [ -3; 1 ])) in
  check_bool "gcd" true (Qpoly.equal g (p_of [ -1; 1 ]))

let test_qpoly_squarefree () =
  (* (x-1)^3 (x+2) -> squarefree has the same roots, each simple *)
  let p = Qpoly.mul (Qpoly.pow (p_of [ -1; 1 ]) 3) (p_of [ 2; 1 ]) in
  let sf = Qpoly.squarefree p in
  check_int "squarefree degree" 2 (Qpoly.degree sf);
  check_bool "root 1" true (Rat.is_zero (Qpoly.eval sf Rat.one));
  check_bool "root -2" true (Rat.is_zero (Qpoly.eval sf (Rat.of_int (-2))))

let test_qpoly_compose () =
  (* p(x) = x^2, q = x+1: p(q) = x^2 + 2x + 1 *)
  let c = Qpoly.compose (p_of [ 0; 0; 1 ]) (p_of [ 1; 1 ]) in
  check_bool "compose" true (Qpoly.equal c (p_of [ 1; 2; 1 ]))

let prop_qpoly_ring_laws =
  let gen = QCheck.Gen.(list_size (int_range 0 6) (int_range (-10) 10)) in
  let arb = QCheck.make ~print:(fun l -> String.concat ";" (List.map string_of_int l)) gen in
  QCheck.Test.make ~count:200 ~name:"polynomial ring laws" (QCheck.triple arb arb arb)
    (fun (la, lb, lc) ->
      let a = p_of la and b = p_of lb and c = p_of lc in
      Qpoly.equal (Qpoly.mul a b) (Qpoly.mul b a)
      && Qpoly.equal (Qpoly.mul a (Qpoly.add b c)) (Qpoly.add (Qpoly.mul a b) (Qpoly.mul a c))
      && Qpoly.equal (Qpoly.add a (Qpoly.neg a)) Qpoly.zero)

let prop_qpoly_divmod_identity =
  let gen = QCheck.Gen.(list_size (int_range 1 7) (int_range (-10) 10)) in
  let arb = QCheck.make ~print:(fun l -> String.concat ";" (List.map string_of_int l)) gen in
  QCheck.Test.make ~count:200 ~name:"polynomial division identity" (QCheck.pair arb arb)
    (fun (la, lb) ->
      let a = p_of la and b = p_of lb in
      QCheck.assume (not (Qpoly.is_zero b));
      let quot, r = Qpoly.divmod a b in
      Qpoly.equal a (Qpoly.add (Qpoly.mul quot b) r) && Qpoly.degree r < Qpoly.degree b)

(* ---------- Sturm ---------- *)

let test_sturm_quadratic () =
  (* x^2 - 2: two real roots *)
  let p = p_of [ -2; 0; 1 ] in
  let ch = Sturm.chain p in
  check_int "roots of x^2-2" 2 (Sturm.count_all_roots ch);
  check_int "roots in (0,2]" 1 (Sturm.count_roots ch ~lo:Rat.zero ~hi:(Rat.of_int 2));
  check_int "roots in (2,3]" 0 (Sturm.count_roots ch ~lo:(Rat.of_int 2) ~hi:(Rat.of_int 3))

let test_sturm_no_real_roots () =
  let p = p_of [ 1; 0; 1 ] in
  (* x^2 + 1 *)
  check_int "x^2+1 has no real roots" 0 (Sturm.count_all_roots (Sturm.chain p))

let test_sturm_multiple_roots () =
  (* (x-1)^2 (x+3): 2 distinct roots *)
  let p = Qpoly.mul (Qpoly.pow (p_of [ -1; 1 ]) 2) (p_of [ 3; 1 ]) in
  check_int "distinct roots" 2 (Sturm.count_all_roots (Sturm.chain p))

let test_sturm_isolate_cubic () =
  (* (x+2)(x)(x-5) *)
  let p = Qpoly.mul (Qpoly.mul (p_of [ 2; 1 ]) (p_of [ 0; 1 ])) (p_of [ -5; 1 ]) in
  let roots = Sturm.root_floats p in
  check_int "3 roots" 3 (List.length roots);
  List.iter2 (fun expected got -> checkf "root" expected got) [ -2.0; 0.0; 5.0 ] roots

let test_sturm_wilkinson_ish () =
  (* product (x - i) for i in 1..8: isolates 8 close-packed roots *)
  let p = List.fold_left (fun acc i -> Qpoly.mul acc (p_of [ -i; 1 ])) Qpoly.one [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let roots = Sturm.root_floats p in
  check_int "8 roots" 8 (List.length roots);
  List.iteri (fun i r -> checkf "root i" (float_of_int (i + 1)) r) roots

let prop_sturm_counts_match_roots =
  (* random product of distinct linear factors: count must equal factor count *)
  let gen = QCheck.Gen.(list_size (int_range 1 6) (int_range (-20) 20)) in
  let arb = QCheck.make ~print:(fun l -> String.concat ";" (List.map string_of_int l)) gen in
  QCheck.Test.make ~count:100 ~name:"sturm count equals number of distinct linear factors" arb
    (fun roots ->
      let distinct = List.sort_uniq compare roots in
      let p = List.fold_left (fun acc r -> Qpoly.mul acc (p_of [ -r; 1 ])) Qpoly.one roots in
      Sturm.count_all_roots (Sturm.chain p) = List.length distinct)

(* The textbook algorithm over Rat that the integer chain replaced:
   squarefree part by a Rat gcd, remainders over Rat, signs by exact
   Rat evaluation, and refinement on root counts.  Sturm must give the
   same counts and the same exact intervals. *)
module Rat_sturm = struct
  (* the squarefree part and its chain *)
  let chain p =
    let p = Qpoly.squarefree p in
    let rec build acc a b = if Qpoly.is_zero b then List.rev acc else build (b :: acc) b (Qpoly.neg (Qpoly.rem a b)) in
    if Qpoly.degree p = 0 then (p, [ p ]) else (p, build [ p ] p (Qpoly.derivative p))

  let variations ch v =
    let signs = List.filter (( <> ) 0) (List.map (fun p -> Rat.sign (Qpoly.eval p v)) ch) in
    fst (List.fold_left (fun (n, last) s -> ((if last <> 0 && s <> last then n + 1 else n), s)) (0, 0) signs)

  let count ch lo hi = variations ch lo - variations ch hi
  let mid lo hi = Rat.div (Rat.add lo hi) (Rat.of_int 2)

  let isolate (sf, ch) =
    let bound = List.fold_left (fun m c -> Rat.max m (Rat.abs c)) Rat.zero (Qpoly.coeffs sf) in
    let b = Rat.add Rat.one (Rat.div bound (Rat.abs (Qpoly.leading sf))) in
    let rec split lo hi acc =
      match count ch lo hi with 0 -> acc | 1 -> (lo, hi) :: acc | _ -> split lo (mid lo hi) (split (mid lo hi) hi acc)
    in
    if Qpoly.degree sf < 1 then [] else split (Rat.neg b) b []

  let refine (sf, ch) ~lo ~hi ~eps =
    let rec go lo hi =
      if Rat.compare (Rat.sub hi lo) eps <= 0 then (lo, hi)
      else begin
        let m = mid lo hi in
        if Rat.is_zero (Qpoly.eval sf m) then (m, m) else if count ch lo m = 1 then go lo m else go m hi
      end
    in
    go lo hi
end

(* c * f1^e1 * f2^e2 ... of degree <= 8: factors of degree 1-2 with
   rational coefficients, exponents up to 3, c of either sign; one in
   four is such a product of degree <= 4 in x^2, whose remainders drop
   two degrees at a time *)
let gen_sturm_poly =
  let open QCheck.Gen in
  let rat = map2 Rat.of_ints (int_range (-6) 6) (int_range 1 4) in
  let nonzero = map2 Rat.of_ints (oneofl [ -3; -2; -1; 1; 2; 3 ]) (int_range 1 3) in
  let factor =
    map3 (fun cs lc e -> Qpoly.pow (Qpoly.of_list (cs @ [ lc ])) e) (list_size (int_range 1 2) rat) nonzero
      (frequency [ (3, return 1); (2, return 2); (1, return 3) ])
  in
  let product max_degree =
    map2
      (fun c fs ->
        List.fold_left
          (fun acc f -> if Qpoly.degree acc + Qpoly.degree f <= max_degree then Qpoly.mul acc f else acc)
          (Qpoly.const c) fs)
      nonzero (list_size (int_range 1 5) factor)
  in
  frequency [ (3, product 8); (1, map (fun p -> Qpoly.compose p (Qpoly.pow Qpoly.x 2)) (product 4)) ]

let arb_sturm_poly = QCheck.make ~print:(fun p -> Qpoly.to_string p) gen_sturm_poly
let show_intervals l = String.concat " " (List.map (fun (a, b) -> Rat.to_string a ^ ".." ^ Rat.to_string b) l)

let prop_sturm_counts_match_rat_reference =
  let point = QCheck.Gen.map2 Rat.of_ints (QCheck.Gen.int_range (-40) 40) (QCheck.Gen.int_range 1 8) in
  let arb =
    QCheck.make
      ~print:(fun (p, (a, b)) ->
        Printf.sprintf "%s on (%s, %s]" (Qpoly.to_string p) (Rat.to_string a) (Rat.to_string b))
      QCheck.Gen.(pair gen_sturm_poly (pair point point))
  in
  QCheck.Test.make ~count:300 ~name:"sturm count_roots = Rat reference" arb (fun (p, (a, b)) ->
      let lo = Rat.min a b and hi = Rat.max a b in
      Sturm.count_roots (Sturm.chain p) ~lo ~hi = Rat_sturm.count (snd (Rat_sturm.chain p)) lo hi)

let prop_sturm_intervals_match_rat_reference =
  QCheck.Test.make ~count:100 ~name:"sturm isolate/refine = Rat reference intervals" arb_sturm_poly (fun p ->
      let refined refine = List.map (fun (lo, hi) -> refine ~lo ~hi ~eps:(Rat.of_ints 1 1024)) in
      let ch = Sturm.chain p and ref_ch = Rat_sturm.chain p in
      let ivs = Sturm.isolate ch and ref_ivs = Rat_sturm.isolate ref_ch in
      let same a b = List.equal (fun (a, b) (c, d) -> Rat.equal a c && Rat.equal b d) a b in
      if not (same ivs ref_ivs) then
        QCheck.Test.fail_reportf "isolate: %s, reference %s" (show_intervals ivs) (show_intervals ref_ivs);
      let r = refined (Sturm.refine ch) ivs and ref_r = refined (Rat_sturm.refine ref_ch) ivs in
      if not (same r ref_r) then
        QCheck.Test.fail_reportf "refine: %s, reference %s" (show_intervals r) (show_intervals ref_r);
      true)

let test_sturm_refine_edges () =
  (* the pairs the count-based bisection returned: a root at hi, a root
     exactly at a midpoint, and a root at the excluded lo with another
     inside *)
  let check name p eps (lo, hi) =
    let a, b = Sturm.refine_root (p_of p) ~lo:Rat.zero ~hi:Rat.one ~eps in
    check_str name (lo ^ " " ^ hi) (Rat.to_string a ^ " " ^ Rat.to_string b)
  in
  let milli = Rat.of_ints 1 1000 and nano = Rat.of_ints 1 1_000_000_000 in
  check "x(x-1), 1e-3" [ 0; -1; 1 ] milli ("1023/1024", "1");
  check "x(x-1), 1e-9" [ 0; -1; 1 ] nano ("1073741823/1073741824", "1");
  check "2x-1" [ -1; 2 ] milli ("1/2", "1/2");
  check "x(3x-1), 1e-3" [ 0; -1; 3 ] milli ("341/1024", "171/512");
  check "x(3x-1), 1e-9" [ 0; -1; 3 ] nano ("357913941/1073741824", "178956971/536870912")

(* bisection never reaches a width of eps <= 0: each entry point
   refuses it before any work *)
let test_sturm_eps_rejected () =
  let p = p_of [ -2; 0; 1 ] in
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: no Invalid_argument" name
  in
  let lo = Rat.one and hi = Rat.of_int 2 in
  List.iter
    (fun eps ->
      let e = Rat.to_string eps in
      raises ("refine eps=" ^ e) (fun () -> Sturm.refine (Sturm.chain p) ~lo ~hi ~eps);
      raises ("refine_root eps=" ^ e) (fun () -> Sturm.refine_root p ~lo ~hi ~eps))
    [ Rat.zero; Rat.of_ints (-1) 1000 ];
  List.iter
    (fun eps -> raises (Printf.sprintf "root_floats eps=%g" eps) (fun () -> Sturm.root_floats ~eps p))
    [ 0.0; -0.0; -1e-12; Float.nan; Float.infinity ];
  check_int "a positive eps still refines" 2 (List.length (Sturm.root_floats ~eps:1e-9 p))

(* ---------- Rootfind ---------- *)

let test_bisect_sqrt2 () =
  let r = Rootfind.bisect ~f:(fun x -> (x *. x) -. 2.0) ~lo:0.0 ~hi:2.0 () in
  checkf "sqrt 2" (Float.sqrt 2.0) r

let test_brent_cubic () =
  let r = Rootfind.brent ~f:(fun x -> (x ** 3.0) -. (2.0 *. x) -. 5.0) ~lo:2.0 ~hi:3.0 () in
  checkf "brent cubic" 2.0945514815423265 r

let test_newton () =
  let r = Rootfind.newton ~f:(fun x -> (x *. x) -. 2.0) ~df:(fun x -> 2.0 *. x) ~x0:1.0 () in
  checkf "newton sqrt2" (Float.sqrt 2.0) r

let test_no_bracket () =
  match Rootfind.bisect ~f:(fun x -> (x *. x) +. 1.0) ~lo:(-1.0) ~hi:1.0 () with
  | _ -> Alcotest.fail "expected No_bracket"
  | exception Rootfind.No_bracket { lo; hi; f_lo; f_hi } ->
    checkf "No_bracket lo" (-1.0) lo;
    checkf "No_bracket hi" 1.0 hi;
    checkf "No_bracket f_lo" 2.0 f_lo;
    checkf "No_bracket f_hi" 2.0 f_hi

let test_no_convergence_capped () =
  (* an artificially tight iteration cap must surface as a typed
     No_convergence carrying the residual, not a silent midpoint *)
  match Rootfind.bisect ~f:(fun x -> (x *. x) -. 2.0) ~lo:0.0 ~hi:2.0 ~max_iter:3 () with
  | _ -> Alcotest.fail "expected No_convergence"
  | exception Rootfind.No_convergence { iters; residual } ->
    Alcotest.(check int) "iters = cap" 3 iters;
    check_bool "residual finite" true (Float.is_finite residual)

let test_bracket_outward () =
  let lo, hi = Rootfind.bracket_outward ~f:(fun x -> x -. 100.0) ~lo:0.0 ~hi:1.0 () in
  check_bool "brackets 100" true (lo <= 100.0 && hi >= 100.0)

let prop_brent_finds_planted_root =
  QCheck.Test.make ~count:200 ~name:"brent finds planted root"
    QCheck.(float_range (-100.0) 100.0)
    (fun r ->
      let f x = (x -. r) *. (1.0 +. ((x -. r) ** 2.0)) in
      let got = Rootfind.find_root ~f ~lo:(r -. 7.3) ~hi:(r +. 11.9) () in
      Float.abs (got -. r) < 1e-7)

(* ---------- Integrate ---------- *)

let test_simpson_poly () =
  (* integral of x^2 on [0,3] = 9, Simpson is exact on cubics *)
  checkf "simpson x^2" 9.0 (Integrate.simpson ~f:(fun x -> x *. x) ~lo:0.0 ~hi:3.0 ~n:4)

let test_adaptive_exp () =
  checkf "adaptive e^x" (Float.exp 1.0 -. 1.0) (Integrate.adaptive_simpson ~f:Float.exp ~lo:0.0 ~hi:1.0 ())

let test_piecewise () =
  checkf "piecewise" 11.0 (Integrate.piecewise_constant [ (0.0, 2.0, 4.0); (2.0, 3.0, 3.0) ]);
  Alcotest.check_raises "bad segment" (Invalid_argument "Integrate.piecewise_constant: t1 < t0")
    (fun () -> ignore (Integrate.piecewise_constant [ (1.0, 0.0, 1.0) ]))

let prop_adaptive_matches_closed_form =
  QCheck.Test.make ~count:100 ~name:"adaptive simpson matches closed form for x^a"
    QCheck.(pair (float_range 1.1 4.0) (float_range 0.5 5.0))
    (fun (a, hi) ->
      let v = Integrate.adaptive_simpson ~f:(fun x -> x ** a) ~lo:0.0 ~hi () in
      let expect = (hi ** (a +. 1.0)) /. (a +. 1.0) in
      Float.abs (v -. expect) <= 1e-6 *. (1.0 +. expect))

(* ---------- Convex ---------- *)

let test_convexity_checks () =
  check_bool "x^3 convex on (0,5)" true
    (Convex.is_strictly_convex_on_samples ~f:(fun x -> x ** 3.0) ~lo:0.1 ~hi:5.0 ~n:50);
  check_bool "sqrt not convex" false
    (Convex.is_convex_on_samples ~f:Float.sqrt ~lo:0.1 ~hi:5.0 ~n:50);
  check_bool "linear convex, not strictly" true
    (Convex.is_convex_on_samples ~f:(fun x -> (2.0 *. x) +. 1.0) ~lo:0.0 ~hi:5.0 ~n:50);
  check_bool "linear not strictly convex" false
    (Convex.is_strictly_convex_on_samples ~f:(fun x -> (2.0 *. x) +. 1.0) ~lo:0.0 ~hi:5.0 ~n:50)

let test_ternary_min () =
  checkf "min (x-3)^2" 3.0 (Convex.ternary_min ~f:(fun x -> (x -. 3.0) ** 2.0) ~lo:(-10.0) ~hi:10.0 ())

let test_golden_min () =
  checkf "golden min" 3.0 (Convex.golden_min ~f:(fun x -> (x -. 3.0) ** 2.0) ~lo:(-10.0) ~hi:10.0 ())

let test_minimize_convex_sum () =
  (* min x^2 + 2 y^2 s.t. x + y = 3: x = 2, y = 1 *)
  let xs =
    Convex.minimize_convex_sum ~n:2
      ~f:(fun i v -> if i = 0 then v *. v else 2.0 *. v *. v)
      ~total:3.0 ()
  in
  Alcotest.(check (float 1e-4)) "x" 2.0 xs.(0);
  Alcotest.(check (float 1e-4)) "y" 1.0 xs.(1)

(* ---------- Stats ---------- *)

let test_stats_basic () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  checkf "mean" 2.5 (Stats.mean xs);
  checkf "median" 2.5 (Stats.median xs);
  checkf "var" (5.0 /. 3.0) (Stats.variance xs);
  checkf "min" 1.0 (Stats.minimum xs);
  checkf "max" 4.0 (Stats.maximum xs);
  checkf "q0" 1.0 (Stats.quantile xs 0.0);
  checkf "q1" 4.0 (Stats.quantile xs 1.0)

let test_linear_fit () =
  let pts = Array.init 10 (fun i -> (float_of_int i, (2.0 *. float_of_int i) +. 1.0)) in
  let slope, intercept, r2 = Stats.linear_fit pts in
  checkf "slope" 2.0 slope;
  checkf "intercept" 1.0 intercept;
  checkf "r2" 1.0 r2

let test_loglog_slope () =
  (* y = x^2 should have log-log slope 2 *)
  let pts = Array.init 20 (fun i -> let x = float_of_int (i + 1) in (x, x *. x)) in
  checkf "slope 2" 2.0 (Stats.loglog_slope pts)


(* ---------- Poly_ring: generic polynomials and resultants ---------- *)

let test_poly_ring_matches_qpoly () =
  (* the functor instantiated at Rat agrees with the specialized Qpoly *)
  let a = Poly_ring.Qx.of_list [ Rat.of_int 1; Rat.of_int 2; Rat.of_int 3 ] in
  let b = Poly_ring.Qx.of_list [ Rat.of_int (-1); Rat.of_int 1 ] in
  let prod = Poly_ring.Qx.mul a b in
  let expect = Qpoly.mul (Qpoly.of_int_list [ 1; 2; 3 ]) (Qpoly.of_int_list [ -1; 1 ]) in
  List.iteri
    (fun i c -> check_bool "coeff" true (Rat.equal c (Poly_ring.Qx.coeff prod i)))
    (Qpoly.coeffs expect);
  check_int "degree" (Qpoly.degree expect) (Poly_ring.Qx.degree prod)

let test_determinant_small () =
  let r = Rat.of_int in
  (* det [[1,2],[3,4]] = -2 *)
  check_bool "2x2" true
    (Rat.equal (r (-2)) (Poly_ring.Qx.determinant [| [| r 1; r 2 |]; [| r 3; r 4 |] |]));
  (* det of identity *)
  check_bool "identity" true
    (Rat.equal (r 1)
       (Poly_ring.Qx.determinant [| [| r 1; r 0; r 0 |]; [| r 0; r 1; r 0 |]; [| r 0; r 0; r 1 |] |]));
  (* singular *)
  check_bool "singular" true
    (Rat.equal (r 0) (Poly_ring.Qx.determinant [| [| r 1; r 2 |]; [| r 2; r 4 |] |]))

let test_resultant_linear_factors () =
  (* Res(x - a, x - b) = a - b (up to sign convention: b - a) *)
  let r = Rat.of_int in
  let lin c = Poly_ring.Qx.of_list [ Rat.neg (r c); Rat.one ] in
  let res = Poly_ring.Qx.resultant (lin 5) (lin 2) in
  check_bool "nonzero when distinct" true (not (Rat.is_zero res));
  check_bool "value +-3" true (Rat.equal (Rat.abs res) (r 3));
  (* common root -> resultant zero *)
  check_bool "zero when shared" true (Rat.is_zero (Poly_ring.Qx.resultant (lin 4) (lin 4)))

let prop_resultant_detects_common_roots =
  QCheck.Test.make ~count:100 ~name:"resultant zero iff common linear factor"
    QCheck.(triple (int_range (-8) 8) (int_range (-8) 8) (int_range (-8) 8))
    (fun (a, b, c) ->
      let lin v = Poly_ring.Qx.of_list [ Rat.of_int (-v); Rat.one ] in
      (* p = (x-a)(x-b), q = (x-c) *)
      let p = Poly_ring.Qx.mul (lin a) (lin b) in
      let q = lin c in
      let res = Poly_ring.Qx.resultant p q in
      Rat.is_zero res = (c = a || c = b))

let test_bivariate_resultant_eliminates () =
  (* y^2 - x and y - x: eliminating y must give x^2 - x (common solutions
     have x = y = y^2 -> x^2 = x) *)
  let module B = Poly_ring.Qxy in
  let p = B.of_list [ Qpoly.neg Qpoly.x; Qpoly.zero; Qpoly.one ] in
  let q = B.of_list [ Qpoly.neg Qpoly.x; Qpoly.one ] in
  let res = B.resultant p q in
  check_bool "x^2 - x" true
    (Qpoly.equal res (Qpoly.sub (Qpoly.pow Qpoly.x 2) Qpoly.x)
    || Qpoly.equal res (Qpoly.sub Qpoly.x (Qpoly.pow Qpoly.x 2)))

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "pasched_numerics"
    [
      ( "bigint",
        [
          Alcotest.test_case "int round-trip" `Quick test_bigint_roundtrip_small;
          Alcotest.test_case "string round-trip" `Quick test_bigint_string_roundtrip;
          Alcotest.test_case "add with carry" `Quick test_bigint_add_carry;
          Alcotest.test_case "multi-limb mul" `Quick test_bigint_mul_big;
          Alcotest.test_case "multi-limb exact divmod" `Quick test_bigint_divmod_exact;
          Alcotest.test_case "divmod sign conventions" `Quick test_bigint_divmod_signs;
          Alcotest.test_case "pow" `Quick test_bigint_pow;
          Alcotest.test_case "gcd" `Quick test_bigint_gcd;
          Alcotest.test_case "shifts" `Quick test_bigint_shift;
          Alcotest.test_case "to_float" `Quick test_bigint_to_float;
          qt prop_bigint_matches_int;
          qt prop_bigint_divmod_identity;
          qt prop_bigint_string_roundtrip;
        ] );
      ( "rat",
        [
          Alcotest.test_case "normalization" `Quick test_rat_normalization;
          Alcotest.test_case "arithmetic" `Quick test_rat_arith;
          Alcotest.test_case "of_string" `Quick test_rat_of_string;
          Alcotest.test_case "of_float_dyadic" `Quick test_rat_of_float_dyadic;
          Alcotest.test_case "to_float overflow and underflow" `Quick test_rat_to_float_extremes;
          qt prop_rat_float_roundtrip;
          qt prop_rat_field_laws;
          qt prop_rat_compare_matches_float;
        ] );
      ( "qpoly",
        [
          Alcotest.test_case "basics" `Quick test_qpoly_basic;
          Alcotest.test_case "arithmetic" `Quick test_qpoly_arith;
          Alcotest.test_case "derivative" `Quick test_qpoly_derivative;
          Alcotest.test_case "divmod" `Quick test_qpoly_divmod;
          Alcotest.test_case "gcd" `Quick test_qpoly_gcd;
          Alcotest.test_case "squarefree" `Quick test_qpoly_squarefree;
          Alcotest.test_case "compose" `Quick test_qpoly_compose;
          qt prop_qpoly_ring_laws;
          qt prop_qpoly_divmod_identity;
        ] );
      ( "sturm",
        [
          Alcotest.test_case "quadratic" `Quick test_sturm_quadratic;
          Alcotest.test_case "no real roots" `Quick test_sturm_no_real_roots;
          Alcotest.test_case "multiple roots" `Quick test_sturm_multiple_roots;
          Alcotest.test_case "isolate cubic" `Quick test_sturm_isolate_cubic;
          Alcotest.test_case "packed roots" `Quick test_sturm_wilkinson_ish;
          Alcotest.test_case "refinement edge cases" `Quick test_sturm_refine_edges;
          Alcotest.test_case "non-positive eps rejected" `Quick test_sturm_eps_rejected;
          qt prop_sturm_counts_match_roots;
          qt prop_sturm_counts_match_rat_reference;
          qt prop_sturm_intervals_match_rat_reference;
        ] );
      ( "rootfind",
        [
          Alcotest.test_case "bisect" `Quick test_bisect_sqrt2;
          Alcotest.test_case "brent" `Quick test_brent_cubic;
          Alcotest.test_case "newton" `Quick test_newton;
          Alcotest.test_case "no bracket raises" `Quick test_no_bracket;
          Alcotest.test_case "capped iterations raise No_convergence" `Quick
            test_no_convergence_capped;
          Alcotest.test_case "bracket outward" `Quick test_bracket_outward;
          qt prop_brent_finds_planted_root;
        ] );
      ( "integrate",
        [
          Alcotest.test_case "simpson exact on x^2" `Quick test_simpson_poly;
          Alcotest.test_case "adaptive exp" `Quick test_adaptive_exp;
          Alcotest.test_case "piecewise constant" `Quick test_piecewise;
          qt prop_adaptive_matches_closed_form;
        ] );
      ( "convex",
        [
          Alcotest.test_case "convexity checks" `Quick test_convexity_checks;
          Alcotest.test_case "ternary min" `Quick test_ternary_min;
          Alcotest.test_case "golden min" `Quick test_golden_min;
          Alcotest.test_case "water filling" `Quick test_minimize_convex_sum;
        ] );
      ( "poly-ring",
        [
          Alcotest.test_case "functor matches qpoly" `Quick test_poly_ring_matches_qpoly;
          Alcotest.test_case "determinants" `Quick test_determinant_small;
          Alcotest.test_case "resultant of linear factors" `Quick test_resultant_linear_factors;
          Alcotest.test_case "bivariate elimination" `Quick test_bivariate_resultant_eliminates;
          qt prop_resultant_detects_common_roots;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "linear fit" `Quick test_linear_fit;
          Alcotest.test_case "loglog slope" `Quick test_loglog_slope;
        ] );
    ]
