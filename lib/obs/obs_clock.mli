(** Monotonic time source for the observability layer.

    All timers, spans and benchmark measurements in {!Obs} read this
    clock and no other, so durations are immune to wall-clock steps
    (NTP adjustments, manual changes).  The epoch is unspecified —
    typically boot time — so absolute values are only meaningful as
    differences.

    Backed by [clock_gettime(CLOCK_MONOTONIC)] via the C stub shipped
    with bechamel; resolution is nanoseconds, cost of a read is a few
    tens of nanoseconds. *)

val now_ns : unit -> int64
(** [now_ns ()] is the current monotonic time in nanoseconds since an
    unspecified epoch.  Non-decreasing across calls within a process. *)

val ns_to_us : int64 -> float
(** [ns_to_us ns] converts a nanosecond count to microseconds. *)

type stopwatch
(** A started timer: the instant {!start} was called. *)

val start : unit -> stopwatch
(** [start ()] begins timing now. *)

val elapsed_s : stopwatch -> float
(** [elapsed_s sw] is the seconds elapsed since [start] created [sw].
    Always [>= 0.]; calling it does not stop the stopwatch, so repeated
    reads give increasing values. *)
