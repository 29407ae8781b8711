(* Facade over the dune-selected backend (Par_pool is a copy of
   backend/domains.ml on OCaml >= 5, backend/seq.ml otherwise).  All
   policy that must not differ between backends — the default-jobs
   register, argument validation — lives here so the two backends stay
   small and obviously equivalent. *)

let recommended_jobs () = Par_pool.recommended ()
let on_worker_domain () = Par_pool.on_worker_domain ()

(* 0 = unset: fall back to the hardware recommendation at call time
   (recommended_domain_count is cheap but not constant-folded, and the
   CLI may set the default before or after this module initializes) *)
let chosen = ref 0

let set_default_jobs n =
  if n < 1 then invalid_arg "Par.set_default_jobs: need jobs >= 1";
  chosen := n

let default_jobs () = if !chosen >= 1 then !chosen else recommended_jobs ()

let resolve = function
  | None -> default_jobs ()
  | Some j when j >= 1 -> j
  | Some j -> invalid_arg (Printf.sprintf "Par: jobs must be >= 1, got %d" j)

let init ?jobs n f = Par_pool.init ~jobs:(resolve jobs) n f
let map ?jobs f a = init ?jobs (Array.length a) (fun i -> f a.(i))
let list_map ?jobs f l = Array.to_list (map ?jobs f (Array.of_list l))

(* containment wrappers: a faulted element becomes its own [Error]
   instead of aborting the whole batch, so campaign-style callers
   (Check.Runner) keep every other element's result *)
let try_init ?jobs n f =
  init ?jobs n (fun i -> match f i with v -> Ok v | exception e -> Error e)

(* Resident pool for long-running dispatch loops (the serve daemon):
   workers are spawned once and parked between batches, so a stream of
   small batches does not pay a Domain.spawn per batch.  Semantics
   (ordering, lowest-index exception, nesting, clamping) are identical
   to the per-call [init]. *)
module Pool = struct
  type t = Par_pool.pool

  let create ?jobs () = Par_pool.pool_create ~jobs:(resolve jobs)
  let jobs = Par_pool.pool_jobs
  let init pool n f = Par_pool.pool_init pool n f
  let shutdown = Par_pool.pool_shutdown
end
