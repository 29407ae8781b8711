(* SplitMix64 after Steele, Lea & Flood (OOPSLA'14).  The state walks an
   arithmetic sequence with odd step [gamma]; outputs are a bijective
   mix of the state, and [split] derives a child whose (state, gamma)
   come from two further draws of the parent, mixed independently. *)

type t = { mutable state : int64; gamma : int64 }

let golden_gamma = 0x9e3779b97f4a7c15L

(* Stafford's "variant 13" 64-bit finalizer. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Gammas must be odd; mixing with a different finalizer constant keeps
   the child stream decorrelated from the parent's outputs. *)
let mix_gamma z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xff51afd7ed558ccdL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L in
  Int64.logor z 1L

let next_state t =
  t.state <- Int64.add t.state t.gamma;
  t.state

let bits64 t = mix64 (next_state t)

let make seed = { state = mix64 (Int64.of_int seed); gamma = golden_gamma }

let of_pair seed index =
  let t = make seed in
  (* absorb the index as one extra state step of index-dependent size *)
  { state = mix64 (Int64.add t.state (mix64 (Int64.of_int index))); gamma = golden_gamma }

let split t =
  let s = bits64 t in
  let g = mix_gamma (next_state t) in
  { state = s; gamma = g }

let copy t = { state = t.state; gamma = t.gamma }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* shift keeps the value non-negative; modulo bias is irrelevant at
     test-generation bounds (« 2^62) *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (bits64 t) 1) (Int64.of_int bound))

let float t bound =
  let u = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) *. 0x1.0p-53 in
  u *. bound
