(** Online uniprocessor execution.

    The paper's future-work section singles out online makespan/flow
    with speed scaling as the key open problem: the scheduler learns of
    each job only at its release and must pick speeds without knowing
    whether more work is coming.  This driver replays an instance
    against such a policy, re-consulting it at every arrival and every
    completion, and reports the realized schedule quality and energy —
    the harness used to measure empirical competitive ratios against
    the offline optimum. *)

type pending = { job : Job.t; remaining : float }

type view = {
  now : float;
  queue : pending list;  (** jobs released but unfinished, FIFO order *)
  energy_spent : float;
  released_work : float;  (** total work released so far *)
}

type policy = {
  policy_name : string;
  speed : view -> float;
      (** speed to run the head of the queue until the next event; must
          be positive when the queue is non-empty *)
}

type outcome = {
  completions : (Job.t * float) list;  (** in completion order *)
  makespan : float;
  total_flow : float;
  energy : float;
  profile : Speed_profile.t;
}

val run : Power_model.t -> Instance.t -> policy -> outcome
(** @raise Invalid_argument if the policy returns a non-positive or
    non-finite speed while jobs are pending. *)

val constant_speed : float -> policy
(** Run-at-σ baseline ("race" when σ is high). *)
