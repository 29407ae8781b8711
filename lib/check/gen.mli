(** Generator combinators over the splittable {!Rng}.

    A generator is a function of a size parameter and an RNG stream;
    the size drives how large the generated structures get, so the same
    combinators serve quick smoke sweeps (small sizes) and deeper
    soaks.  All generators are deterministic in the stream: the fuzz
    loop derives one independent stream per (seed, case index) and the
    whole campaign replays from the seed alone. *)

type 'a t = size:int -> Rng.t -> 'a

val run : size:int -> seed:int -> 'a t -> 'a
(** Generate one value from a fresh stream. *)

(** {2 Core combinators} *)

val return : 'a -> 'a t

val int_range : int -> int -> int t
(** Inclusive bounds. @raise Invalid_argument when [lo > hi]. *)

val oneof : 'a t list -> 'a t
val frequency : (int * 'a t) list -> 'a t
val list_n : int t -> 'a t -> 'a list t
(** Length drawn first, then that many elements. *)

(** {2 Domain generators}

    Layered on {!Workload}: the arrival-pattern and work-distribution
    space of the library, with parameters scaled so that solvers stay
    in numerically honest regimes ([alpha > 1], positive budgets). *)

val case : Oracle.case t
(** A full test case: an instance (one of the five arrival patterns with
    randomized parameters, equal, uniform, heavy-tailed or
    partition-style works, 1 to about [size] jobs), [alpha] in [[1.5, 4]]
    with the literature's 2 and 3 drawn often, an energy budget scaled
    to the instance's total work, 1–4 processors, and a sub-seed for
    auxiliary randomness. *)
