(** Blocks: maximal substrings of jobs where each job except the last
    finishes after its successor's release (the paper's §3 definition).

    Lemmas 4–5 make blocks the unit of optimal makespan schedules: a
    block [(i, j)] starts at [r_i], every job in it runs at the block
    speed, and — unless it is the last block — it completes exactly at
    [r_(j+1)].  Hence a non-last block's speed is forced to
    [work / (r_(j+1) − r_i)], while the last block's speed is whatever
    exhausts the remaining energy budget. *)

type t = {
  first : int;  (** index of the first job (0-based, release order) *)
  last : int;  (** index of the last job, inclusive *)
  work : float;  (** total work of the jobs in the block *)
  start : float;  (** the block's start time = release of its first job *)
  speed : float;  (** running speed of every job in the block *)
}

val window_speed : work:float -> start:float -> next_release:float -> float
(** The forced speed of a non-last block: [work / (next_release − start)];
    [infinity] when the window is empty (equal releases), which only
    occurs transiently inside IncMerge before a merge resolves it. *)

val energy : Power_model.t -> t -> float
(** Energy the block consumes ([infinity] for infinite speed). *)

val finish : t -> float

val entries : Instance.t -> int -> t -> Schedule.entry list
(** Schedule entries of the block's jobs on the given processor, run
    back-to-back at the block speed from the block start. *)

val jobs_feasible : Instance.t -> t -> bool
(** Every job in the block starts at or after its release when the jobs
    run consecutively at the block speed. *)

(** Struct-of-arrays block storage — the unboxed working set of the
    kernel hot paths ({!Incmerge}, {!Frontier}, {!Flow_frontier}).

    Float fields live in [floatarray] ([Float.Array]), which is flat
    float64 storage under {e every} compiler configuration (a plain
    [float array] is only flat with the default
    [-flat-float-array]); index fields are immediate-int arrays, so a
    merge pass touches no boxed values at all.  The boxed record {!t}
    remains the public exchange type: a [Soa.t] is a mutable working
    set whose rows materialize into records only at API boundaries.

    Invariants: rows [0 .. len - 1] are the live blocks, in ascending
    job order; [len <= capacity]. *)
module Soa : sig
  type blocks := t

  type t = {
    mutable len : int;  (** number of live rows *)
    mutable first : int array;
    mutable last : int array;
    mutable work : floatarray;
    mutable start : floatarray;
    mutable speed : floatarray;
  }

  val create : int -> t
  (** [create cap] is an empty store with room for [cap] rows (at
      least one).
      @param cap requested capacity; clamped up to 1. *)

  val capacity : t -> int
  (** Current row capacity. *)

  val reserve : t -> int -> unit
  (** [reserve t cap] guarantees capacity [>= cap] and resets [len] to
      0.  Contents are {e not} preserved: kernels reserve their
      worst-case block count before the first push, so growth never
      happens mid-merge. *)

  val set : t -> int -> first:int -> last:int -> work:float -> start:float -> speed:float -> unit
  (** Write row [i].  No bounds extension: [i] must be below
      {!capacity}. *)

  val get : t -> int -> blocks
  (** Materialize row [i] as a boxed {!Block.t}. *)

  val to_list : t -> blocks list
  (** All live rows as boxed blocks, ascending job order. *)
end
