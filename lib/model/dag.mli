(** Directed acyclic task graphs — the precedence-constraint model of
    the related work on power-aware makespan (Pruhs, van Stee and
    Uthaisombut): tasks all released at time 0, a task may start only
    after all its predecessors complete.

    Unlike {!Instance.t} jobs, DAG tasks carry no release times —
    readiness is purely structural.  Consumed by the [Precedence]
    heuristics and bounds. *)

type t
(** Invariant: the edge relation is acyclic, all works positive and
    finite.  Tasks are identified by index [0 .. n−1]. *)

val create : works:float array -> edges:(int * int) list -> t
(** [create ~works ~edges] with an edge [(u, v)] meaning [u] precedes
    [v].
    @param works per-task work; [works.(i)] belongs to task [i].
    @raise Invalid_argument on non-positive work, out-of-range
    endpoints, self-loops, or cycles. *)

val chain : float array -> t
(** [chain works] is the linear chain: task [i] precedes task [i+1].
    Its {!critical_path_work} equals its {!total_work}. *)

val independent : float array -> t
(** No edges at all — the degenerate case where precedence-aware
    scheduling reduces to the batch problem. *)

val random : seed:int -> n:int -> layers:int -> edge_prob:float -> work_range:float * float -> t
(** Layered random DAG: tasks split into [layers] ranks; each pair in
    adjacent ranks is connected with probability [edge_prob].
    Deterministic in [seed].
    @param work_range works drawn uniformly from [[lo, hi]]. *)

val n : t -> int
(** Number of tasks. *)

val work : t -> int -> float
(** [work t i] is task [i]'s work.
    @raise Invalid_argument if [i] is out of range. *)

val total_work : t -> float
(** Sum of all task works — the numerator of the average-load lower
    bound. *)

val preds : t -> int -> int list
(** Direct predecessors of a task (not the transitive closure). *)

val succs : t -> int -> int list
(** Direct successors of a task. *)

val topological_order : t -> int list
(** A topological order (stable: by index among ready tasks).  Every
    task appears exactly once, after all its {!preds}. *)

val critical_path_work : t -> float
(** Maximum total work along any path — the chain that bounds every
    schedule regardless of processor count. *)

val longest_path_to : t -> float array
(** Per task: work of the heaviest path ending at (and including) it.
    [critical_path_work t] is the maximum over this array. *)
