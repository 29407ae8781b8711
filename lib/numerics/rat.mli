(** Exact rational numbers over {!Bigint}.

    Values are kept normalized: the denominator is positive and the
    numerator and denominator are coprime.  Used wherever the paper's
    arguments need exact arithmetic — block-speed bookkeeping in tests
    and the Sturm-sequence machinery behind the Theorem 8 polynomial. *)

type t

val zero : t
val one : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den] is [num/den] normalized.
    @raise Division_by_zero when [den] is zero. *)

val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints a b] is [a/b].  @raise Division_by_zero when [b = 0]. *)

val num : t -> Bigint.t
val den : t -> Bigint.t
(** Denominator, always positive. *)

val of_string : string -> t
(** Accepts ["3"], ["-3/4"], and decimal notation ["2.75"]. *)

val to_string : t -> string
val to_float : t -> float

val of_float_dyadic : float -> t
(** Exact dyadic rational equal to the given (finite) float.
    @raise Invalid_argument on NaN or infinities. *)

val sign : t -> int
val neg : t -> t
val abs : t -> t
val inv : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val pow : t -> int -> t
(** [pow x k] for any integer [k]; negative exponents invert.
    @raise Division_by_zero when [x] is zero and [k < 0]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val is_zero : t -> bool

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
  val ( ~- ) : t -> t
end
