(** First-order thermal model on top of speed profiles.

    The related work of Bansal, Kimbrel and Pruhs (§2 of the paper)
    optimizes maximum CPU temperature under Newton's law of cooling:
    [T'(t) = heating·P(σ(t)) − cooling·T(t)].  Within a constant-speed
    segment the solution is exponential approach to the steady state
    [heating·P(σ)/cooling], so temperature extremes occur at segment
    boundaries and the whole trace has a closed form — no ODE stepping
    needed (the adaptive integrator in the test suite cross-checks
    this). *)

type sample = { time : float; temperature : float }

val check_params : heating:float -> cooling:float -> unit
(** The parameter check every function below makes.
    @raise Invalid_argument unless [heating] and [cooling] are both
    positive and finite (so NaN fails too). *)

val steady_state : Power_model.t -> heating:float -> cooling:float -> float -> float
(** Temperature a constant speed converges to. *)

val trace :
  Power_model.t -> heating:float -> cooling:float -> ?t0:float -> ?initial:float -> Speed_profile.t -> sample list
(** Temperatures at every segment boundary (idle gaps cool toward 0).
    [t0] is the trace start (default: profile start), [initial] the
    starting temperature (default 0). *)

val max_temperature :
  Power_model.t -> heating:float -> cooling:float -> ?initial:float -> Speed_profile.t -> float
(** Peak temperature over the whole profile. *)

val temperature_at :
  Power_model.t -> heating:float -> cooling:float -> ?initial:float -> Speed_profile.t -> float -> float
(** Closed-form temperature at an arbitrary time. *)
