(** Summary statistics for benchmark and experiment output. *)

val mean : float array -> float
(** @raise Invalid_argument on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance; zero for arrays of length < 2. *)

val median : float array -> float
(** @raise Invalid_argument on an empty array. *)

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [[0, 1]], linear interpolation.
    @raise Invalid_argument when out of range or empty. *)

val minimum : float array -> float
val maximum : float array -> float

val linear_fit : (float * float) array -> float * float * float
(** Least squares [(slope, intercept, r²)] of [(x, y)] points.
    @raise Invalid_argument with fewer than two points. *)

val loglog_slope : (float * float) array -> float
(** Slope of the least-squares line through [(log x, log y)]: the
    empirical polynomial order of a running-time curve.  Points with
    non-positive coordinates are dropped. *)
