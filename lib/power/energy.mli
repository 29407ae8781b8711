(** Energy bookkeeping helpers shared by the solvers and the simulator. *)

val of_segments : Power_model.t -> (float * float) list -> float
(** [of_segments m segs] sums [duration · P(speed)] over
    [(duration, speed)] segments.
    @raise Invalid_argument on a negative duration. *)

val average_speed_saves : Power_model.t -> (float * float) list -> bool
(** Checks Lemma 2's inequality on concrete data: a multi-speed segment
    list never beats running its average speed for its total duration.
    Useful both as a test oracle and as a schedule lint. *)
