let paper_polynomial =
  (* little-endian: constant term first *)
  Qpoly.of_int_list
    [ -729; 4374; -10449; 12150; -5940; -1026; 2415; -738; -159; 108; 6; -12; 2 ]

let derived_polynomial ~energy =
  let x = Qpoly.x in
  let one = Qpoly.one in
  let xm1 = Qpoly.sub x one in
  (* 1/σ1 + 1/x = 1  =>  σ1 = x/(x-1); clear denominators throughout *)
  let xm1_3 = Qpoly.pow xm1 3 in
  (* (σ1³ − x³)² = (σ3²)³ with σ3² = E − σ1² − x²:
     multiply both sides by (x−1)⁶ *)
  let lhs = Qpoly.mul (Qpoly.pow x 6) (Qpoly.pow (Qpoly.sub one xm1_3) 2) in
  let n =
    Qpoly.sub
      (Qpoly.sub (Qpoly.scale energy (Qpoly.pow xm1 2)) (Qpoly.pow x 2))
      (Qpoly.mul (Qpoly.pow x 2) (Qpoly.pow xm1 2))
  in
  Qpoly.sub lhs (Qpoly.pow n 3)

let derived_via_resultant ~energy =
  (* tower: Q[x] (x = sigma2)  ->  Qxy (y = sigma1)  ->  Qxyz (z = sigma3) *)
  let module Qxy = Poly_ring.Qxy in
  let module Qxyz = Poly_ring.Make (struct
    type t = Qxy.t

    let zero = Qxy.zero
    let one = Qxy.one
    let add = Qxy.add
    let mul = Qxy.mul
    let neg = Qxy.neg
    let equal = Qxy.equal
    let to_string = Qxy.to_string ?var:None
  end) in
  (* energy equation: z^2 + (y^2 + x^2 - E) = 0 *)
  let e1 =
    Qxyz.of_list
      [
        Qxy.add (Qxy.pow Qxy.x 2)
          (Qxy.const (Qpoly.sub (Qpoly.pow Qpoly.x 2) (Qpoly.const energy)));
        Qxy.zero;
        Qxy.one;
      ]
  in
  (* theorem-1 relation: -z^3 + (y^3 - x^3) = 0 *)
  let e3 =
    Qxyz.of_list
      [
        Qxy.sub (Qxy.pow Qxy.x 3) (Qxy.const (Qpoly.pow Qpoly.x 3));
        Qxy.zero;
        Qxy.zero;
        Qxy.neg Qxy.one;
      ]
  in
  (* eliminate sigma3 *)
  let in_y = Qxyz.resultant e1 e3 in
  (* completion equation: (x - 1) y - x = 0 *)
  let e2 =
    Qxy.of_list [ Qpoly.neg Qpoly.x; Qpoly.sub Qpoly.x Qpoly.one ]
  in
  (* eliminate sigma1 *)
  Qxy.resultant in_y e2

let proportional p q =
  if Qpoly.is_zero p || Qpoly.is_zero q then Qpoly.is_zero p && Qpoly.is_zero q
  else
    Qpoly.degree p = Qpoly.degree q
    && Qpoly.equal (Qpoly.scale (Qpoly.leading q) p) (Qpoly.scale (Qpoly.leading p) q)

let boundary_roots ~energy =
  let ch = Sturm.chain (derived_polynomial ~energy:(Rat.of_float_dyadic energy)) in
  Sturm.isolate ch
  |> List.filter_map (fun (lo, hi) ->
         (* keep roots inside the feasible interval (1, 2) *)
         if Rat.compare hi (Rat.of_int 1) <= 0 || Rat.compare lo (Rat.of_int 2) >= 0 then None
         else begin
           let lo, hi = Sturm.refine ch ~lo ~hi ~eps:(Rat.of_ints 1 1_000_000_000) in
           let mid = (Rat.to_float lo +. Rat.to_float hi) /. 2.0 in
           if mid > 1.0 && mid < 2.0 then Some mid else None
         end)

let theorem8 = Instance.theorem8

let sigma2_numeric ~energy =
  let sol = Flow.solve_budget ~alpha:3.0 ~energy theorem8 in
  sol.Flow.speeds.(1)

(* completion of J2 relative to J3's release classifies the configuration:
   > 1 all-busy, = 1 boundary, < 1 gap *)
let c2 energy = (Flow.solve_budget ~alpha:3.0 ~energy theorem8).Flow.completions.(1)

let measured_window ?(tol = 1e-9) () =
  let lower =
    (* largest energy with C2 > 1 *)
    Rootfind.bisect ~f:(fun e -> c2 e -. 1.0 -. 1e-12) ~lo:6.0 ~hi:11.5 ~eps:tol ()
  in
  let upper =
    (* smallest energy with C2 < 1: bisect on distance from boundary *)
    Rootfind.bisect ~f:(fun e -> c2 e -. 1.0 +. 1e-12) ~lo:10.5 ~hi:14.0 ~eps:tol ()
  in
  (lower, upper)

let analytic_window () =
  let cb r = r ** (1.0 /. 3.0) in
  let lower =
    ((3.0 ** (2.0 /. 3.0)) +. (2.0 ** (2.0 /. 3.0)) +. 1.0)
    *. (((1.0 /. cb 3.0) +. (1.0 /. cb 2.0)) ** 2.0)
  in
  let upper = (2.0 +. (2.0 ** (2.0 /. 3.0))) *. ((1.0 +. (1.0 /. cb 2.0)) ** 2.0) in
  (lower, upper)
