(** Power/speed models.

    The paper assumes power is a continuous strictly convex function of
    processor speed; most prior work specializes to [power = speed^α]
    with [α > 1] (Yao, Demers and Shenker's model).  This module carries
    both: the α-model, for which every solver has closed forms, and
    arbitrary user-supplied convex functions (e.g. the wireless
    transmission power curves of Uysal-Biyikoglu et al.), for which the
    solvers fall back to numeric inversion. *)

type t

val alpha : float -> t
(** The standard model [P(σ) = σ^α].
    @raise Invalid_argument unless [α > 1]. *)

val cube : t
(** [alpha 3.0], the model used in all of the paper's figures. *)

val custom : ?name:string -> ?deriv:(float -> float) -> (float -> float) -> t
(** [custom p] wraps an arbitrary power function assumed continuous and
    strictly convex on [σ >= 0] with [p 0 = 0] (checkable with
    {!is_strictly_convex}).  [deriv] supplies [P'] when known; otherwise
    derivatives are estimated by central differences. *)

val name : t -> string
val power : t -> float -> float
(** [power m σ] is the power drawn at speed [σ >= 0]. *)

val deriv : t -> float -> float
(** dP/dσ. *)

val alpha_exponent : t -> float option
(** [Some α] for α-models, [None] otherwise. *)

val energy_run : t -> work:float -> speed:float -> float
(** Energy to run [work] units at constant [speed]: [(work/speed) · P(speed)].
    For the α-model this is [work · speed^(α-1)].
    @raise Invalid_argument when [speed <= 0] and [work > 0]. *)

val energy_in_time : t -> work:float -> duration:float -> float
(** Energy to finish [work] in exactly [duration] at constant speed
    [work/duration]. *)

val energy_floor : t -> work:float -> float
(** Infimum energy to complete [work] at any speed: [work · P'(0)].
    Zero for α-models; positive for convex models with positive slope at
    zero (e.g. wireless transmission power), in which case budgets below
    the floor admit no schedule at all. *)

val speed_for_energy_opt : t -> work:float -> energy:float -> float option
(** Inverse of {!energy_run} in [speed]: the constant speed at which
    running [work] consumes exactly [energy].  Closed form for α-models,
    monotone root finding otherwise.  [None] when [energy] does not
    exceed the {!energy_floor}.
    @raise Invalid_argument on non-positive [work] or [energy]. *)

val speed_for_energy : t -> work:float -> energy:float -> float
(** Like {!speed_for_energy_opt}.
    @raise Invalid_argument when the budget is below the energy floor. *)

val duration_for_energy : t -> work:float -> energy:float -> float
(** [work / speed_for_energy]. *)

val is_strictly_convex : ?lo:float -> ?hi:float -> ?n:int -> t -> bool
(** Sample-based sanity check of the paper's standing assumption. *)
