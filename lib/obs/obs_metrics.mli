(** Named counters, gauges and histograms with a global registry.

    Instruments are {e interned}: [counter "x"] returns the same
    handle every time, so modules create their handles once at
    initialization and the hot path is a single [Atomic] operation —
    no locking, no hashing, no allocation.

    {2 Domain-safety guarantee (changed when [pasched.par] arrived)}

    Counter and gauge updates are {e lock-free and lossless} under
    OCaml 5 parallel domains: increments are [Atomic.fetch_and_add],
    so concurrent [incr]/[add] from pool workers never drop counts,
    and [set]/[value] never observe torn values.  On OCaml 4.x the
    stdlib implements [Atomic] as plain loads and stores, so the
    sequential-fallback build keeps the historical zero-cost
    plain-int path — the stronger guarantee costs nothing where it
    is not needed.

    Two deliberate limits remain:
    {ul
    {- {e interning is main-domain-only}: create handles at module
       initialization (as every instrumented module does), not from
       inside a [Par] worker — the registry tables are unsynchronized;}
    {- {e histograms are best-effort under domains}: [observe] updates
       several fields non-atomically, so racing observations can
       under-count or misreport extrema (never corrupt memory).  The
       library only observes histograms from the main domain.}}

    This module is {e unconditional}: updates always land.  The
    enabled/disabled policy (and hence the zero-cost-when-off
    guarantee) lives in the {!Obs} facade, which gates every call on
    one boolean.

    Naming convention used throughout the library:
    ["<module>.<quantity>"], e.g. ["incmerge.merge_rounds"] —
    {!Obs_report} and tests group by the prefix before the dot. *)

type counter
(** A monotonically increasing integer (events, iterations, items). *)

type gauge
(** A float that holds its last set value (sizes, levels). *)

type histogram
(** A running summary of observed floats: count, sum, sum of squares,
    min and max (so mean and standard deviation are derivable without
    storing samples). *)

type histogram_stats = {
  count : int;
  total : float;
  mean : float;
  stddev : float;  (** population standard deviation *)
  min_v : float;
  max_v : float;
}
(** Derived view of a histogram.  All fields are [0.0] when
    [count = 0]. *)

val counter : string -> counter
(** [counter name] interns and returns the counter registered under
    [name], creating it (at zero) on first use. *)

val incr : counter -> unit
(** [incr c] adds one, atomically. *)

val add : counter -> int -> unit
(** [add c k] adds [k] atomically (negative [k] is permitted but
    unconventional). *)

val value : counter -> int
(** [value c] reads the current count. *)

val gauge : string -> gauge
(** [gauge name] interns the gauge registered under [name]. *)

val set : gauge -> float -> unit
(** [set g v] records [v] as the gauge's current value. *)

val gauge_value : gauge -> float

val histogram : string -> histogram
(** [histogram name] interns the histogram registered under [name]. *)

val observe : histogram -> float -> unit
(** [observe h v] folds [v] into the running summary. *)

val stats : histogram -> histogram_stats
(** [stats h] is the current summary of [h]. *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_stats) list;
}
(** A point-in-time copy of the registry, each section sorted by name.
    Counters appear even at zero (their registration is a static
    fact); gauges that were never [set] and histograms with no
    observations are omitted. *)

val snapshot : unit -> snapshot
(** [snapshot ()] copies the registry.  O(instruments); safe to call
    repeatedly (e.g. for before/after counter deltas). *)

val reset : unit -> unit
(** [reset ()] zeroes every registered instrument without forgetting
    the handles, so previously interned handles remain valid. *)
