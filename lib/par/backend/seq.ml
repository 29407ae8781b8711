(* Sequential fallback backend, selected by dune on OCaml 4.x (no
   Domain module).  Same signature as the domains backend; [jobs] is
   accepted and ignored, indices are evaluated in increasing order, so
   the determinism contract of [Par] holds trivially.  The resident
   pool degenerates to a record tracking the shutdown flag. *)

let recommended () = 1
let on_worker_domain () = false

let init ~jobs:_ n f =
  if n < 0 then invalid_arg "Par.init: negative length";
  if n = 0 then [||]
  else begin
    let results = Array.make n (f 0) in
    for i = 1 to n - 1 do
      results.(i) <- f i
    done;
    results
  end

type pool = { mutable stopping : bool }

let pool_create ~jobs:_ = { stopping = false }
let pool_jobs _ = 1

let pool_init _pool n f = init ~jobs:1 n f

let pool_shutdown pool = pool.stopping <- true
