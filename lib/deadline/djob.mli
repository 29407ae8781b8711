(** Jobs with deadlines — the Yao–Demers–Shenker model that founded
    power-aware scheduling (§2 of the paper): every job must finish
    inside its [release, deadline] window, the schedule may preempt,
    and the objective is minimum energy. *)

type t = { id : int; release : float; deadline : float; work : float }

val make : id:int -> release:float -> deadline:float -> work:float -> t
(** @raise Invalid_argument unless [0 <= release < deadline] and
    [work > 0]. *)

val of_triples : (float * float * float) list -> t list
(** [(release, deadline, work)] triples; ids assigned in order. *)

val density : t -> float
(** [work / (deadline − release)] — the minimum average speed the job
    needs on its own. *)
