(** Arbitrary-precision signed integers.

    A from-scratch portable bignum used by {!Rat} and {!Sturm} for exact
    arithmetic (the sealed build environment has no [zarith]).  Values are
    immutable.  Internally numbers are sign-magnitude with 30-bit limbs,
    so all intermediate limb products fit in OCaml's native 63-bit [int].

    The API mirrors the subset of [Zarith.Z] the rest of the library
    needs; operations never overflow and raise only on division by zero
    or unparsable strings. *)

type t

val zero : t
val one : t
val minus_one : t

val of_int : int -> t

val to_int_opt : t -> int option
(** [to_int_opt x] is [Some i] when [x] fits in a native [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit in a native [int]. *)

val of_string : string -> t
(** Parse an optionally-signed decimal numeral.
    @raise Invalid_argument on empty or non-numeric input. *)

val to_string : t -> string
(** Decimal rendering, e.g. ["-12345678901234567890"]. *)

val to_float : t -> float
(** Nearest float; large values lose precision but keep sign and scale. *)

val numbits : t -> int
(** Bit length of [|x|]: the least [k] with [|x| < 2^k]; [0] for zero. *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], [|r| < |b|] and [r]
    having the sign of [a] (truncated division, like [Stdlib.( / )]).
    @raise Division_by_zero when [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val pow : t -> int -> t
(** [pow x k] for [k >= 0].  @raise Invalid_argument on negative [k]. *)

val shift_left : t -> int -> t
(** Multiplication by [2^k], [k >= 0]. *)

val shift_right : t -> int -> t
(** Arithmetic-magnitude shift: [shift_right x k = x / 2^k] truncated
    toward zero, [k >= 0]. *)

val gcd : t -> t -> t
(** Non-negative greatest common divisor; [gcd zero zero = zero]. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val min : t -> t -> t
val max : t -> t -> t

val is_zero : t -> bool
val is_one : t -> bool
val is_even : t -> bool

val succ : t -> t
val pred : t -> t

val hash : t -> int

val pp : Format.formatter -> t -> unit

(** Infix aliases, intended for local [open Bigint.Infix]. *)
module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( mod ) : t -> t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
  val ( ~- ) : t -> t
end
