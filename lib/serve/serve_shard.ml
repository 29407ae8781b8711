type shard = { pool : Par.Pool.t; cache : Serve_cache.t }

type t = {
  shards : shard array;
  policy : Guard.policy;
  max_inflight : int;  (* 0 = unbounded *)
  journal : Serve_journal.t option;
  state : Serve_batch.state;
  last_inflight : int array;  (* per-shard solve depth of the last batch *)
  mutable requests : int;
  mutable batches : int;
  mutable shed : int;
  mutable stop : bool;
}

type stats = {
  cache : Serve_cache.stats;
  per_shard : Serve_cache.stats array;
  jobs : int;
  shards : int;
  requests : int;
  batches : int;
  shed : int;
  max_inflight : int;
}

let c_requests = Obs.counter "serve.requests"
let c_batches = Obs.counter "serve.batches"
let c_shed = Obs.counter "serve.shed"
let g_inflight = Obs.gauge "serve.inflight"

(* Lamping–Veach jump consistent hash: deterministic in (key, buckets)
   alone — the same canonical key lands on the same shard across
   restarts — and monotone in bucket count: growing [buckets] from n to
   n+1 only ever moves keys onto the new bucket, never between old
   ones, so a scale-out invalidates ~1/(n+1) of every warm cache
   instead of rehashing the world. *)
let route ~hash ~shards =
  if shards < 1 then invalid_arg "Serve_shard.route: shards must be >= 1";
  let mult = 2862933555777941757L in
  let b = ref (-1) and j = ref 0 in
  let key = ref hash in
  let two31 = Int64.to_float (Int64.shift_left 1L 31) in
  while !j < shards do
    b := !j;
    key := Int64.add (Int64.mul !key mult) 1L;
    let denom = Int64.to_float (Int64.add (Int64.shift_right_logical !key 33) 1L) in
    j := int_of_float (float_of_int (!b + 1) *. (two31 /. denom))
  done;
  !b

(* every live entry, shard order then LRU→MRU within a shard, so a
   checkpoint replays recency faithfully *)
let entries (t : t) =
  Array.fold_left
    (fun acc (sh : shard) -> acc @ Serve_cache.to_list sh.cache)
    [] t.shards

let create ?jobs ?(shards = 1) ?(cache_capacity = 256) ?(max_inflight = 0)
    ?(policy = Guard.default) ?cache_file ?(fsync = false) ?(compact_every = 1024)
    ?breaker ?breaker_now () =
  if shards < 1 then invalid_arg "Serve_shard.create: shards must be >= 1";
  if max_inflight < 0 then invalid_arg "Serve_shard.create: max_inflight must be >= 0";
  (* shared-nothing slices of one machine: each shard's resident pool
     gets ~1/N of the requested width so N shards never oversubscribe *)
  let total = match jobs with Some j -> j | None -> Par.default_jobs () in
  if total < 1 then invalid_arg "Serve_shard.create: jobs must be >= 1";
  let per_shard = Int.max 1 (total / shards) in
  let journal =
    Option.map (fun path -> Serve_journal.open_ ~fsync ~compact_every ~path ()) cache_file
  in
  let t =
    {
      shards =
        Array.init shards (fun _ ->
            {
              pool = Par.Pool.create ~jobs:per_shard ();
              cache = Serve_cache.create ~capacity:cache_capacity;
            });
      policy;
      max_inflight;
      journal;
      state = Serve_batch.create_state ?now:breaker_now ?breaker ();
      last_inflight = Array.make shards 0;
      requests = 0;
      batches = 0;
      shed = 0;
      stop = false;
    }
  in
  (* recover checkpoint ∪ journal, routed by the *current* shard count:
     a store written at --shards 1 still warms a --shards 4 daemon.
     Torn or corrupt lines are skipped, never fatal. *)
  (match journal with
  | None -> ()
  | Some j ->
    Serve_journal.replay j (fun ~canon payload ->
        let hash = Serve_key.hash canon in
        let sh = t.shards.(route ~hash ~shards) in
        Serve_cache.insert sh.cache ~hash ~canon payload));
  t

let stats (t : t) =
  let per_shard = Array.map (fun (sh : shard) -> Serve_cache.stats sh.cache) t.shards in
  let cache =
    Array.fold_left
      (fun (acc : Serve_cache.stats) (s : Serve_cache.stats) ->
        {
          Serve_cache.hits = acc.hits + s.hits;
          misses = acc.misses + s.misses;
          evictions = acc.evictions + s.evictions;
          size = acc.size + s.size;
          capacity = acc.capacity + s.capacity;
        })
      { Serve_cache.hits = 0; misses = 0; evictions = 0; size = 0; capacity = 0 }
      per_shard
  in
  {
    cache;
    per_shard;
    jobs = Array.fold_left (fun acc sh -> acc + Par.Pool.jobs sh.pool) 0 t.shards;
    shards = Array.length t.shards;
    requests = t.requests;
    batches = t.batches;
    shed = t.shed;
    max_inflight = t.max_inflight;
  }

let journal_stats (t : t) = Option.map Serve_journal.stats t.journal

let stopping (t : t) = t.stop

let abort (t : t) =
  (match t.journal with None -> () | Some j -> Serve_journal.drop j);
  Array.iter (fun (sh : shard) -> Par.Pool.shutdown sh.pool) t.shards

(* fold every live entry into the checkpoint before closing *)
let shutdown (t : t) =
  (match t.journal with
  | None -> ()
  | Some j ->
    (try Serve_journal.compact j ~entries:(entries t) with Sys_error _ | Unix.Unix_error _ -> ());
    Serve_journal.close j);
  Array.iter (fun (sh : shard) -> Par.Pool.shutdown sh.pool) t.shards

let stats_payload t =
  let s = stats t in
  let open Obs_json in
  [
    ("status", String "ok");
    ( "stats",
      Obj
        [
          ("hits", Int s.cache.Serve_cache.hits);
          ("misses", Int s.cache.Serve_cache.misses);
          ("evictions", Int s.cache.Serve_cache.evictions);
          ("size", Int s.cache.Serve_cache.size);
          ("capacity", Int s.cache.Serve_cache.capacity);
          ("jobs", Int s.jobs);
          ("requests", Int s.requests);
          ("batches", Int s.batches);
          ("shards", Int s.shards);
          ("shed", Int s.shed);
          ("max_inflight", Int s.max_inflight);
        ] );
  ]

(* the supervision view: per-shard load and cache occupancy, journal
   durability counters, breaker states — what an operator (or the
   kill-chaos drill) polls to decide the daemon is healthy *)
let health_payload t =
  let open Obs_json in
  let breaker_rows =
    match Serve_batch.breaker_of t.state with
    | None -> []
    | Some br ->
      List.map
        (fun (name, st, failures) ->
          Obj
            [
              ("solver", String name);
              ( "state",
                String
                  (match st with
                  | Guard_breaker.Closed -> "closed"
                  | Guard_breaker.Open -> "open"
                  | Guard_breaker.Half_open -> "half-open") );
              ("failures", Int failures);
            ])
        (Guard_breaker.snapshot br)
  in
  let journal =
    match journal_stats t with
    | None -> Null
    | Some js ->
      Obj
        ([
          ("appends", Int js.Serve_journal.appends);
          ("replayed", Int js.Serve_journal.replayed);
          ("skipped_corrupt", Int js.Serve_journal.skipped_corrupt);
          ("compactions", Int js.Serve_journal.compactions);
          ("lag", Int js.Serve_journal.lag);
        ]
        (* shown once there is one, so a healthy store's reply keeps
           its bytes *)
        @ if js.Serve_journal.errors > 0 then [ ("errors", Int js.Serve_journal.errors) ] else [])
  in
  let s = stats t in
  [
    ("status", String "ok");
    ( "health",
      Obj
        [
          ("shards", Int (Array.length t.shards));
          ( "inflight",
            List (Array.to_list (Array.map (fun d -> Int d) t.last_inflight)) );
          ( "cache",
            Obj [ ("size", Int s.cache.Serve_cache.size); ("capacity", Int s.cache.Serve_cache.capacity) ] );
          ("journal", journal);
          ("breakers", List breaker_rows);
        ] );
  ]

let handle_batch (t : t) lines =
  let lines = Array.of_list lines in
  let n = Array.length lines in
  t.requests <- t.requests + n;
  t.batches <- t.batches + 1;
  Obs.add c_requests n;
  Obs.incr c_batches;
  let decoded = Array.map Serve_protocol.decode lines in
  let ids =
    Array.map
      (function
        | Ok (r : Serve_protocol.request) -> r.Serve_protocol.id
        | Error (id, _) -> id)
      decoded
  in
  let payloads : (string * Obs_json.t) list option array = Array.make n None in
  let shards = Array.length t.shards in
  (* route in request order; admission sheds everything past a shard's
     inflight bound with an immediate typed busy reply *)
  let assigned = Array.make shards [] in
  let depth = Array.make shards 0 in
  Array.iteri
    (fun i d ->
      match d with
      | Error (_, e) -> payloads.(i) <- Some (Serve_protocol.error_payload e)
      | Ok { Serve_protocol.op = Serve_protocol.Solve sr; _ } ->
        let s = route ~hash:sr.Serve_protocol.hash ~shards in
        if t.max_inflight > 0 && depth.(s) >= t.max_inflight then begin
          t.shed <- t.shed + 1;
          Obs.incr c_shed;
          payloads.(i) <- Some (Serve_protocol.busy_payload ~shard:s)
        end
        else begin
          depth.(s) <- depth.(s) + 1;
          assigned.(s) <- (i, sr) :: assigned.(s)
        end
      | Ok _ -> ())
    decoded;
  Array.blit depth 0 t.last_inflight 0 shards;
  Obs.set g_inflight (float_of_int (Array.fold_left Int.max 0 depth));
  (* the router drives each shard's batch in turn: cache, dedupe and
     pool dispatch are all shard-local, so there is nothing to lock *)
  let on_insert =
    match t.journal with
    | None -> None
    | Some j -> Some (fun ~canon payload -> Serve_journal.append j ~canon payload)
  in
  Array.iteri
    (fun s work ->
      match List.rev work with
      | [] -> ()
      | work ->
        let work = Array.of_list work in
        let sh = t.shards.(s) in
        let answers =
          Serve_batch.run ~pool:sh.pool ~cache:sh.cache ~policy:t.policy ~state:t.state
            ?on_insert (Array.map snd work)
        in
        Array.iteri (fun k (i, _) -> payloads.(i) <- Some answers.(k)) work)
    assigned;
  Obs.set g_inflight 0.0;
  (* write-ahead durability boundary: one flush per served batch puts
     every insert in the OS page cache (SIGKILL-safe; power-loss-safe
     too under --fsync), and one bounded step of lag-triggered
     compaction keeps replay bounded without a whole checkpoint rewrite
     in any batch.  Neither raises on an I/O failure: the journal
     counts it and the batch is answered *)
  (match t.journal with
  | None -> ()
  | Some j ->
    Serve_journal.flush j;
    Serve_journal.step j ~entries:(fun () -> entries t));
  (* ops answer after the batch's solves, so an in-batch "stats" (or
     "health") observes them *)
  Array.iteri
    (fun i d ->
      match d with
      | Ok { Serve_protocol.op = Serve_protocol.Stats; _ } ->
        payloads.(i) <- Some (stats_payload t)
      | Ok { Serve_protocol.op = Serve_protocol.Health; _ } ->
        payloads.(i) <- Some (health_payload t)
      | Ok { Serve_protocol.op = Serve_protocol.Ping; _ } ->
        payloads.(i) <- Some [ ("status", Obs_json.String "ok"); ("pong", Obs_json.Bool true) ]
      | Ok { Serve_protocol.op = Serve_protocol.Shutdown; _ } ->
        t.stop <- true;
        payloads.(i) <-
          Some [ ("status", Obs_json.String "ok"); ("stopping", Obs_json.Bool true) ]
      | Ok { Serve_protocol.op = Serve_protocol.Solve _; _ } | Error _ -> ())
    decoded;
  Array.to_list
    (Array.mapi
       (fun i id ->
         let payload =
           match payloads.(i) with
           | Some p -> p
           | None ->
             Serve_protocol.error_payload
               (Guard_error.Solver_fault
                  { solver = "serve"; exn = Failure "internal: unanswered request" })
         in
         Serve_protocol.reply_string ~id payload)
       ids)

let handle_line t line = match handle_batch t [ line ] with [ r ] -> r | _ -> assert false
