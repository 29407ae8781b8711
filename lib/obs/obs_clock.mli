(** Monotonic time source for the observability layer.

    All timers and spans in {!Obs} read this clock and no other, so
    durations are immune to wall-clock steps (NTP adjustments, manual
    changes).  The epoch is unspecified — typically boot time — so
    absolute values are only meaningful as differences.

    Backed by [clock_gettime(CLOCK_MONOTONIC)] via the C stub shipped
    with bechamel; resolution is nanoseconds, cost of a read is a few
    tens of nanoseconds. *)

val now_ns : unit -> int64
(** [now_ns ()] is the current monotonic time in nanoseconds since an
    unspecified epoch.  Non-decreasing across calls within a process. *)

val ns_to_us : int64 -> float
(** [ns_to_us ns] converts a nanosecond count to microseconds. *)
