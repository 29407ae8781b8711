(** Seeded splittable PRNG (SplitMix64).

    The fuzzing harness needs two things [Random.State] does not give
    cleanly: O(1) construction of an independent stream for every
    (seed, case-index) pair without shared mutable history, and a
    [split] that lets a generator hand disjoint randomness to its
    sub-generators so inserting a new draw upstream does not perturb
    every draw downstream.  SplitMix64 (Steele, Lea & Flood, OOPSLA'14)
    provides both with a 64-bit state and a per-stream gamma. *)

type t

val make : int -> t
(** Stream seeded from the integer (any value is fine, including 0). *)

val of_pair : int -> int -> t
(** Independent stream for a (seed, index) pair — the per-case streams
    of the fuzz loop.  Distinct pairs give unrelated streams. *)

val split : t -> t
(** A fresh stream statistically independent of the parent; the parent
    advances by one draw. *)

val copy : t -> t

val bits64 : t -> int64
(** Next 64 raw bits; advances the state. *)

val bits53 : t -> int
(** The top 53 of the next 64 bits, in [[0, 2^53)]: a unit-interval
    draw as an integer, so a hot loop in another module can scale it
    by [0x1.0p-53] without the boxed float that {!float} returns.
    Allocates nothing. *)

val int : t -> int -> int
(** [int t bound] is uniform in [[0, bound)].
    @raise Invalid_argument when [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [[0, bound)] (53-bit resolution):
    [float_of_int (bits53 t) *. 0x1.0p-53 *. bound]. *)
