(* Domain-based fork-join backend, selected by dune on OCaml >= 5.

   One pool per [init] call: [jobs - 1] spawned domains plus the
   calling domain drain a shared chunked index counter and write into
   a preallocated result slot per index, so the output order — and
   therefore every result the library produces — is independent of how
   the work was interleaved.  Spawning per call (rather than keeping a
   resident pool) keeps the backend state-free: there is nothing to
   initialize, shut down, or leak, and a Domain.spawn is far cheaper
   than the coarse-grained tasks (solver calls, fuzz cases) routed
   through it.  Long-running processes that dispatch many small
   batches (the serve daemon) use the resident [pool] below instead.

   Worker domains are tagged through domain-local storage so nested
   [init] calls degrade to the sequential loop instead of spawning
   domains from domains, and so the Obs facade can keep its
   single-domain trace machinery away from workers.

   The requested width is clamped to the hardware recommendation:
   OCaml 5 minor collections are stop-the-world across domains, so a
   domain count above the core count makes every minor GC wait for
   descheduled domains to reach their safepoints — on a single-core
   machine a [jobs:4] fuzz campaign measured ~4-6x *slower* than
   sequential before the clamp.  Results are unaffected: [jobs] is a
   performance knob only, never a semantic one. *)

let recommended () = Domain.recommended_domain_count ()

let worker_key = Domain.DLS.new_key (fun () -> false)
let on_worker_domain () = Domain.DLS.get worker_key

let clamp_jobs jobs = Stdlib.max 1 (Stdlib.min jobs (recommended ()))

let seq_init n f =
  if n = 0 then [||]
  else begin
    let results = Array.make n (f 0) in
    for i = 1 to n - 1 do
      results.(i) <- f i
    done;
    results
  end

(* shared chunked drain used by both the per-call pool and the
   resident pool: workers pull [chunk]-sized index ranges off [next]
   and record the lowest-indexed failure so the raised exception does
   not depend on scheduling more than it must *)
let make_drain ~parties n f =
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let failed : (int * exn) option Atomic.t = Atomic.make None in
  let rec record i e =
    match Atomic.get failed with
    | Some (j, _) when j <= i -> ()
    | cur -> if not (Atomic.compare_and_set failed cur (Some (i, e))) then record i e
  in
  let chunk = Stdlib.max 1 (n / (parties * 8)) in
  let drain () =
    let continue = ref true in
    while !continue do
      let start = Atomic.fetch_and_add next chunk in
      if start >= n || Atomic.get failed <> None then continue := false
      else
        for i = start to Stdlib.min n (start + chunk) - 1 do
          match f i with
          | v -> results.(i) <- Some v
          | exception e -> record i e
        done
    done
  in
  let finish () =
    (match Atomic.get failed with Some (_, e) -> raise e | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  in
  (drain, finish)

let init ~jobs n f =
  if n < 0 then invalid_arg "Par.init: negative length";
  let jobs = clamp_jobs jobs in
  if jobs <= 1 || n <= 1 || on_worker_domain () then seq_init n f
  else begin
    let jobs = Stdlib.min jobs n in
    let drain, finish = make_drain ~parties:jobs n f in
    let worker () =
      Domain.DLS.set worker_key true;
      drain ()
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    drain ();
    Array.iter Domain.join domains;
    finish ()
  end

(* ---------------- resident pool ---------------- *)

(* [width] worker domains stay parked on [work_ready] between batches;
   a batch publishes one type-erased drain closure under the lock,
   bumps [epoch] and broadcasts.  The caller participates in its own
   batch and then waits on [work_done] until every worker has
   decremented [busy], so at most one batch is in flight and the
   workers are provably idle whenever [run] is not executing.  The
   pool is driven from one domain at a time (the serve loop); it is
   not a concurrent task queue. *)
type pool = {
  width : int;  (* resident worker domains; 0 = sequential *)
  lock : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable batch : (unit -> unit) option;
  mutable epoch : int;
  mutable busy : int;
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
}

let pool_create ~jobs =
  (* creating a pool from inside a worker would spawn domains from
     domains; degrade to a sequential pool instead, mirroring the
     nesting rule of [init] *)
  let jobs = if on_worker_domain () then 1 else clamp_jobs jobs in
  let pool =
    {
      width = jobs - 1;
      lock = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      batch = None;
      epoch = 0;
      busy = 0;
      stopping = false;
      workers = [||];
    }
  in
  let rec park last_epoch =
    Mutex.lock pool.lock;
    while (not pool.stopping) && pool.epoch = last_epoch do
      Condition.wait pool.work_ready pool.lock
    done;
    if pool.stopping then Mutex.unlock pool.lock
    else begin
      let epoch = pool.epoch in
      let job = match pool.batch with Some f -> f | None -> Fun.id in
      Mutex.unlock pool.lock;
      (* drain closures are total by construction (per-element failures
         are recorded, not raised), so nothing escapes into the loop *)
      job ();
      Mutex.lock pool.lock;
      pool.busy <- pool.busy - 1;
      if pool.busy = 0 then Condition.broadcast pool.work_done;
      Mutex.unlock pool.lock;
      park epoch
    end
  in
  let worker () =
    Domain.DLS.set worker_key true;
    park 0
  in
  pool.workers <- Array.init pool.width (fun _ -> Domain.spawn worker);
  pool

let pool_jobs pool = pool.width + 1

let pool_init pool n f =
  if n < 0 then invalid_arg "Par.Pool.init: negative length";
  if pool.width = 0 || pool.stopping || n <= 1 || on_worker_domain () then seq_init n f
  else begin
    let parties = Stdlib.min (pool.width + 1) n in
    let drain, finish = make_drain ~parties n f in
    Mutex.lock pool.lock;
    pool.batch <- Some drain;
    pool.epoch <- pool.epoch + 1;
    pool.busy <- pool.width;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.lock;
    drain ();
    Mutex.lock pool.lock;
    while pool.busy > 0 do
      Condition.wait pool.work_done pool.lock
    done;
    pool.batch <- None;
    Mutex.unlock pool.lock;
    finish ()
  end

let pool_shutdown pool =
  Mutex.lock pool.lock;
  if pool.stopping then Mutex.unlock pool.lock
  else begin
    pool.stopping <- true;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.lock;
    Array.iter Domain.join pool.workers;
    pool.workers <- [||]
  end
