(* SplitMix64 after Steele, Lea & Flood (OOPSLA'14).  The state walks an
   arithmetic sequence with odd step [gamma]; outputs are a bijective
   mix of the state, and [split] derives a child whose (state, gamma)
   come from two further draws of the parent, mixed independently.

   The state lives in an 8-byte buffer, not a mutable [int64] field:
   without flambda every store to such a field boxes a fresh [Int64]
   (3 words), while the bytes primitives read and write it unboxed.
   With the mixers inlined, a [bits53] or [int] draw allocates
   nothing. *)

type t = { state : Bytes.t; gamma : int64 }

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let golden_gamma = 0x9e3779b97f4a7c15L

(* Stafford's "variant 13" 64-bit finalizer. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Gammas must be odd; mixing with a different finalizer constant keeps
   the child stream decorrelated from the parent's outputs. *)
let mix_gamma z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xff51afd7ed558ccdL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L in
  Int64.logor z 1L

let[@inline] next_state t =
  let s = Int64.add (get64 t.state 0) t.gamma in
  set64 t.state 0 s;
  s

let[@inline] bits64 t = mix64 (next_state t)

let create state gamma =
  let b = Bytes.create 8 in
  set64 b 0 state;
  { state = b; gamma }

let make seed = create (mix64 (Int64.of_int seed)) golden_gamma

let of_pair seed index =
  let t = make seed in
  (* absorb the index as one extra state step of index-dependent size *)
  create (mix64 (Int64.add (get64 t.state 0) (mix64 (Int64.of_int index)))) golden_gamma

let split t =
  let s = bits64 t in
  let g = mix_gamma (next_state t) in
  create s g

let copy t = create (get64 t.state 0) t.gamma

let bits53 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 11)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* shift keeps the value non-negative; modulo bias is irrelevant at
     test-generation bounds (« 2^62) *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (bits64 t) 1) (Int64.of_int bound))

(* a 53-bit int converts exactly: the same float as Int64.to_float of
   those bits, so every seeded stream keeps its values *)
let float t bound = float_of_int (bits53 t) *. 0x1.0p-53 *. bound
