(** A mutable binary min-heap keyed by float priority (time).

    Ties are broken by insertion order, which makes simulator runs
    deterministic regardless of heap layout.

    Payloads are ints (the simulator's event ids).  Times, tie-break
    counters and payloads live in parallel arrays, and [pop] returns the
    payload alone, so steady-state add/pop traffic allocates nothing —
    the property the trace-scale simulator relies on. *)

type t

val create : unit -> t

val of_capacity : int -> t
(** [of_capacity n] sizes the backing arrays for [n] simultaneous
    events (at least 8; growth beyond that doubles).
    @raise Invalid_argument when [n < 0]. *)

val is_empty : t -> bool
val size : t -> int

val clear : t -> unit
(** Forget all pending events (and reset the tie-break counter) while
    keeping the backing arrays for reuse. *)

val add : t -> float -> int -> unit
(** [add q time v] schedules the event [v] at [time]. *)

val min_time : t -> float
(** Time of the earliest event.
    @raise Invalid_argument when the queue is empty. *)

val pop : t -> int
(** Remove the earliest event (among equal times, the one added first)
    and return its payload; read {!min_time} first for its time.
    @raise Invalid_argument when the queue is empty. *)

val drain : t -> (float * int) list
(** Pop everything, in order. *)
