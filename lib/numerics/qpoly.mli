(** Dense univariate polynomials with exact {!Rat} coefficients.

    Coefficient arrays are little-endian (index [i] holds the coefficient
    of [x^i]) and never carry leading zeros.  This is the symbolic engine
    used to re-derive the degree-12 Theorem 8 polynomial from the
    instance's optimality conditions and to run {!Sturm} root isolation
    on it. *)

type t

val zero : t
val one : t

val x : t
(** The monomial [x]. *)

val const : Rat.t -> t
val of_list : Rat.t list -> t
(** Little-endian coefficients; trailing zeros are stripped. *)

val of_int_list : int list -> t
(** Convenience: [of_int_list [c0; c1; ...]] is [c0 + c1 x + ...]. *)

val coeffs : t -> Rat.t list
(** Little-endian, no leading zeros; [[]] for the zero polynomial. *)

val degree : t -> int
(** [-1] for the zero polynomial. *)

val leading : t -> Rat.t
(** Leading coefficient; [Rat.zero] for the zero polynomial. *)

val equal : t -> t -> bool
val is_zero : t -> bool
val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val scale : Rat.t -> t -> t
val pow : t -> int -> t
val derivative : t -> t

val eval : t -> Rat.t -> Rat.t
(** Exact Horner evaluation. *)

val eval_float : t -> float -> float

val divmod : t -> t -> t * t
(** Euclidean division: [a = q*b + r] with [deg r < deg b].
    @raise Division_by_zero when [b] is zero. *)

val rem : t -> t -> t

val gcd : t -> t -> t
(** Monic greatest common divisor. *)

val squarefree : t -> t
(** [p / gcd (p, p')]: same roots, all simple. *)

val compose : t -> t -> t
(** [compose p q] is [p(q(x))]. *)

val to_string : ?var:string -> t -> string
