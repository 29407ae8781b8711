(* The serve workloads: the daemon built from this tree, reached only
   through its Unix socket, with one client process, one connection
   and a closed loop (the next window goes out once the last reply is
   in), and the daemon at --jobs 1.  The traced run replays the same
   windows in-process through the layers' public functions. *)

open Pb_util

type kind = Flow | Trace

(* requests per window: serve_flow keeps one request in flight;
   serve_trace pipelines windows equal to the default --max-batch, so
   one window is one batch *)
let window_of = function Flow -> 1 | Trace -> 32

(* windows per untimed generation block *)
let block_of = function Flow -> 128 | Trace -> 32

(* ---------------- request generation ---------------- *)

(* serve_flow: a fresh 64-job equal-work instance per request, Poisson
   releases at rate 1, budget 64·s² for a mean speed s in (1.2, 2.8);
   random releases make every cache key distinct *)
let flow_jobs = 64

let flow_request r id =
  let b = Buffer.create 2048 in
  let s = 1.2 +. (1.6 *. uniform r) in
  Printf.bprintf b {|{"id":%d,"op":"solve","objective":"flow","alpha":3,"budget":%.17g,"jobs":[|} id
    (float_of_int flow_jobs *. s *. s);
  let release = ref 0.0 in
  for i = 0 to flow_jobs - 1 do
    if i > 0 then begin
      release := !release +. exponential r 1.0;
      Buffer.add_char b ','
    end;
    Printf.bprintf b "[%.17g,1]" !release
  done;
  Buffer.add_string b "]}";
  Buffer.contents b

(* serve_trace: 5-job makespan requests cut from a diurnal
   (base 1, amplitude 0.8, period 1000) / Pareto(2.2, 0.5) trace the
   way `pasched sim --emit-requests 5` cuts them: releases relative to
   the window's first, budget twice the work.  Half the requests
   repeat one of the last 2048 distinct requests (8x the default
   256-entry cache); a quarter carry a generous deadline_s, which
   sends them down the supervised Guard path. *)
let recent_window = 2048

type trace_gen = {
  mix : rng;
  arrivals : rng;
  sizes : rng;
  mutable clock : float;
  recent : string array;
  mutable distinct : int;
}

let trace_gen seed =
  {
    mix = rng ~seed ~tag:11;
    arrivals = rng ~seed ~tag:12;
    sizes = rng ~seed ~tag:13;
    clock = 0.0;
    recent = Array.make recent_window "";
    distinct = 0;
  }

let rec arrival g =
  let peak = 1.8 in
  g.clock <- g.clock +. exponential g.arrivals peak;
  let rate = 1.0 +. (0.8 *. sin (2.0 *. Float.pi *. g.clock /. 1000.0)) in
  if uniform g.arrivals *. peak <= rate then g.clock else arrival g

let pareto g = 0.5 /. ((1.0 -. uniform g.sizes) ** (1.0 /. 2.2))

let fresh_body g =
  let releases = Array.init 5 (fun _ -> arrival g) in
  let works = Array.init 5 (fun _ -> pareto g) in
  let b = Buffer.create 256 in
  Printf.bprintf b {|"op":"solve","objective":"makespan","alpha":3,"budget":%.17g,"jobs":[|}
    (2.0 *. Array.fold_left ( +. ) 0.0 works);
  Array.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "[%.17g,%.17g]" (r -. releases.(0)) works.(i))
    releases;
  Buffer.add_string b "]}";
  Buffer.contents b

let trace_request g id =
  let body =
    if g.distinct > 0 && uniform g.mix < 0.5 then
      let back = below g.mix (Int.min g.distinct recent_window) in
      g.recent.((g.distinct - 1 - back) mod recent_window)
    else begin
      let b = fresh_body g in
      g.recent.(g.distinct mod recent_window) <- b;
      g.distinct <- g.distinct + 1;
      b
    end
  in
  let deadline = if uniform g.mix < 0.25 then {|"deadline_s":60,|} else "" in
  Printf.sprintf {|{"id":%d,%s%s|} id deadline body

(* the workload's request sequence: window after window of
   (id, line), ids counting up from 0 *)
let generator kind seed =
  let next_id = ref 0 in
  let make =
    match kind with
    | Flow ->
      let r = rng ~seed ~tag:10 in
      flow_request r
    | Trace -> trace_request (trace_gen seed)
  in
  fun () ->
    Array.init (window_of kind) (fun _ ->
        let id = !next_id in
        incr next_id;
        (id, make id))

(* ---------------- socket client ---------------- *)

type conn = { fd : Unix.file_descr; buf : Bytes.t; mutable pos : int; mutable len : int; line : Buffer.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
    (* a daemon that stops answering fails the run instead of hanging it *)
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
    Some { fd; buf = Bytes.create 65536; pos = 0; len = 0; line = Buffer.create 8192 }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | k -> write_all fd s (off + k) (len - k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

let send c s = write_all c.fd s 0 (String.length s)

exception Daemon_gone of string

let rec refill c =
  match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
  | 0 -> raise (Daemon_gone "connection closed by the daemon")
  | k ->
    c.pos <- 0;
    c.len <- k
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    raise (Daemon_gone "no reply within 30 s")
  | exception Unix.Unix_error (e, _, _) -> raise (Daemon_gone (Unix.error_message e))

let read_line c =
  Buffer.clear c.line;
  let rec go () =
    if c.pos = c.len then refill c;
    let rec scan i = if i >= c.len then -1 else if Bytes.unsafe_get c.buf i = '\n' then i else scan (i + 1) in
    match scan c.pos with
    | -1 ->
      Buffer.add_subbytes c.line c.buf c.pos (c.len - c.pos);
      c.pos <- c.len;
      go ()
    | i ->
      Buffer.add_subbytes c.line c.buf c.pos (i - c.pos);
      c.pos <- i + 1
  in
  go ();
  Buffer.contents c.line

let payload_of window = String.concat "" (Array.to_list (Array.map (fun (_, l) -> l ^ "\n") window))

(* one closed-loop round: the whole window in one write, then every
   reply; the interval is the window's latency *)
let exchange c payload n =
  let t0 = now_ns () in
  send c payload;
  let replies = Array.init n (fun _ -> read_line c) in
  (replies, now_ns () - t0)

(* ---------------- daemon lifecycle ---------------- *)

type daemon = { pid : int; sock : string; conn : conn }

(* launch → first ping reply, in seconds *)
let launch ~pasched ~dir ~sock ~store =
  let args =
    [ pasched; "serve"; "--socket"; sock; "--jobs"; "1" ]
    @ match store with Some f -> [ "--cache-file"; f ] | None -> []
  in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = now_ns () in
  let pid = spawn pasched (Array.of_list args) ~stdout:devnull ~stderr:log in
  Unix.close log;
  Unix.close devnull;
  note_child dir pid;
  let rec wait () =
    match connect sock with
    | Some c -> c
    | None ->
      if not (alive pid) then fail "daemon exited before listening (see %s/daemon.log)" dir;
      if now_ns () - t0 > 20_000_000_000 then fail "daemon did not listen within 20 s";
      Unix.sleepf 1e-4;
      wait ()
  in
  let conn = wait () in
  send conn "{\"id\":-1,\"op\":\"ping\"}\n";
  let pong = try read_line conn with Daemon_gone why -> fail "daemon died before its first ping: %s" why in
  let t1 = now_ns () in
  if not (Pb_check.prefix_ok ~id:(-1) pong) then fail "bad ping reply %S" pong;
  ({ pid; sock; conn }, s_of_ns (t1 - t0))

let stop d =
  (try Unix.close d.conn.fd with Unix.Unix_error _ -> ());
  reap d.pid;
  try Unix.unlink d.sock with Unix.Unix_error _ -> ()

(* counts the daemon reports about itself, after timing *)
let introspect d =
  send d.conn "{\"id\":-2,\"op\":\"stats\"}\n{\"id\":-3,\"op\":\"health\"}\n";
  let stats = read_line d.conn and health = read_line d.conn in
  let rec walk j = function
    | [] -> Obs_json.to_int j
    | k :: rest -> Option.bind (Obs_json.member k j) (fun j -> walk j rest)
  in
  let get path line =
    match Result.to_option (Obs_json.of_string line) |> Fun.flip Option.bind (fun j -> walk j path) with
    | Some v -> Obs_json.Int v
    | None -> Obs_json.Null
  in
  [
    ("cache_hits", get [ "stats"; "hits" ] stats);
    ("cache_misses", get [ "stats"; "misses" ] stats);
    ("cache_evictions", get [ "stats"; "evictions" ] stats);
    ("batches", get [ "stats"; "batches" ] stats);
    ("journal_appends", get [ "health"; "journal"; "appends" ] health);
    ("journal_compactions", get [ "health"; "journal"; "compactions" ] health);
    ("journal_replayed", get [ "health"; "journal"; "replayed" ] health);
    ("journal_skipped_corrupt", get [ "health"; "journal"; "skipped_corrupt" ] health);
  ]

(* ---------------- failure accounting ---------------- *)

type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally () = { attempted = 0; failed = 0; notes = [] }

let note t msg = if List.length t.notes < 5 then t.notes <- msg :: t.notes

(* busy, degraded and error replies, and anything unparsable or
   answering the wrong id, fail the prefix test; the number of correct
   replies is returned *)
let check_window t window replies =
  t.attempted <- t.attempted + Array.length window;
  let before = t.failed in
  Array.iteri
    (fun i (id, _) ->
      if not (Pb_check.prefix_ok ~id replies.(i)) then begin
        t.failed <- t.failed + 1;
        note t (Printf.sprintf "request %d: %s" id
                  (if String.length replies.(i) > 160 then String.sub replies.(i) 0 160 else replies.(i)))
      end)
    window;
  Array.length window - (t.failed - before)

(* the warm-up daemon of serve_trace fills the store and is SIGKILLed,
   so the measured relaunch replays a real checkpoint and journal *)
let fill_windows = 64

let fill_store ~pasched ~dir ~store ~next_window t =
  let d, _ = launch ~pasched ~dir ~sock:(Filename.concat dir "fill.sock") ~store:(Some store) in
  for _ = 1 to fill_windows do
    let w = next_window () in
    let replies, _ =
      try exchange d.conn (payload_of w) (Array.length w)
      with Daemon_gone why -> fail "warm-up daemon died: %s" why
    in
    ignore (check_window t w replies)
  done;
  stop d

let store_of kind dir = match kind with Flow -> None | Trace -> Some (Filename.concat dir "store.json")

(* ---------------- untraced run ---------------- *)

let launches = function Flow -> 21 | Trace -> 15

let run ~kind ~seed ~seconds ~pasched ~dir =
  let t = tally () in
  let next_window = generator kind seed in
  let store = store_of kind dir in
  Option.iter (fun store -> fill_store ~pasched ~dir ~store ~next_window t) store;
  (* set-up takes milliseconds: report the median of several launches
     (each relaunch of serve_trace replays the same store) *)
  let n_launch = launches kind in
  let setups = Array.make n_launch 0.0 in
  let last = ref None in
  for k = 0 to n_launch - 1 do
    let d, s = launch ~pasched ~dir ~sock:(Filename.concat dir (Printf.sprintf "d%d.sock" k)) ~store in
    setups.(k) <- s;
    if k < n_launch - 1 then stop d else last := Some d
  done;
  let d = Option.get !last in
  let sampler = rng ~seed ~tag:20 in
  let lat = samples () and served = ref 0 in
  let sample = ref [] in
  let timed = ref 0 and died = ref None in
  let budget = int_of_float (seconds *. 1e9) in
  while !timed < budget && !died = None do
    (* inputs are generated and serialized before the block is timed *)
    let block = Array.init (block_of kind) (fun _ -> next_window ()) in
    let payloads = Array.map payload_of block in
    Array.iteri
      (fun i w ->
        if !died = None then
          match exchange d.conn payloads.(i) (Array.length w) with
          | replies, dt ->
            timed := !timed + dt;
            push lat (ms_of_ns dt);
            served := !served + check_window t w replies;
            (* every reply draws, so the sample is fixed by the seed;
               replies that failed the prefix test are already counted *)
            Array.iteri
              (fun j (id, line) ->
                let pick = below sampler 64 = 0 in
                if pick && Pb_check.prefix_ok ~id replies.(j) then
                  sample := (line, replies.(j)) :: !sample)
              w
          | exception Daemon_gone why ->
            died := Some why;
            t.attempted <- t.attempted + Array.length w;
            t.failed <- t.failed + Array.length w)
      block
  done;
  let peak_rss = if alive d.pid then vm_hwm_mb (Some d.pid) else 0.0 in
  let daemon_counts = if !died = None then (try introspect d with Daemon_gone _ -> []) else [] in
  if !died = None && not (alive d.pid) then died := Some "daemon exited";
  stop d;
  Option.iter (fun why -> note t ("daemon died: " ^ why)) !died;
  (* after timing: a seeded sample of replies re-solved in-process
     through Engine and compared field by field *)
  let resolved = List.length !sample in
  List.iter
    (fun (request, reply) ->
      match Pb_check.resolve_check ~request ~reply with
      | Ok () -> ()
      | Error e ->
        t.failed <- t.failed + 1;
        note t ("re-solve mismatch: " ^ e))
    !sample;
  let p50, p99, counts = grouped_percentiles (grouped_of (contents lat)) in
  let metrics =
    [
      m "setup_s" (median setups);
      m "ops_per_s" (float_of_int !served /. s_of_ns !timed);
      m "latency_p50_ms" p50;
      m "latency_p99_ms" p99;
      m "peak_rss_mb" peak_rss;
    ]
  in
  let details =
    let open Obs_json in
    [
      ("latency_sample", String (match kind with Flow -> "request" | Trace -> "window of 32"));
      ("timed_s", Float (s_of_ns !timed));
      ("setup_samples_s", List (Array.to_list (Array.map (fun s -> Float s) setups)));
      ("resolved_replies", Int resolved);
      ("store_fs", String (fs_type dir));
      ("failures", List (List.rev_map (fun s -> String s) t.notes));
    ]
    @ counts @ daemon_counts
  in
  (t.attempted, t.failed, metrics, details)

(* ---------------- traced run ---------------- *)

let counter name = Obs_metrics.value (Obs.counter name)

(* work counters read around each Engine probe *)
let kernel_counters =
  [|
    "rootfind.calls";
    "rootfind.newton_iters";
    "rootfind.brent_iters";
    "flow.run_merges";
    "incmerge.merge_rounds";
    "incmerge.jobs_processed";
  |]

type acc = {
  mutable requests : int;
  mutable decode_words : float;
  mutable encode_words : float;
  mutable solve_words : float;
  mutable append_words : float;
  mutable reply_bytes : int;
  mutable append_bytes : int;
  kernel : int array;
  mutable ref_ns : int;
  mutable ref_words : float;
}

(* The request path of Serve_shard.handle_batch at one shard, replayed
   through each layer's public function with a span around every call.
   Serve_batch.run wraps the cache probe, the solve and the payload
   encoding: those inner calls are timed as probes on the same inputs
   (the cache probe on a mirror cache kept in the same state), so the
   wrapper's remainder is its self time. *)
type replay = {
  tr : Pb_trace.t;
  pool : Par.Pool.t;
  cache : Serve_cache.t;
  mirror : Serve_cache.t;
  state : Serve_batch.state;
  journal : Serve_journal.t option;
  acc : acc;
}

let words_since w0 = Gc.minor_words () -. w0

let traced_window rp (w : (int * string) array) =
  let tr = rp.tr and acc = rp.acc in
  let req0 = fst w.(0) in
  let top = Pb_trace.enter tr "serve.window" ~req:req0 in
  let probes = ref [] in
  let probe name ~req f =
    let id = Pb_trace.enter ~probe:true tr name ~req in
    match f () with
    | v ->
      Pb_trace.leave tr id;
      probes := id :: !probes;
      (v, id)
    | exception e ->
      Pb_trace.leave tr id;
      fail "%s raised %s in the traced replay" name (Printexc.to_string e)
  in
  let reqs =
    Array.map
      (fun (id, line) ->
        let w0 = Gc.minor_words () in
        let sid = Pb_trace.enter tr "serve_protocol.decode" ~req:id in
        let d = Serve_protocol.decode line in
        Pb_trace.leave tr sid;
        acc.decode_words <- acc.decode_words +. words_since w0;
        match d with
        | Ok { Serve_protocol.id = jid; op = Serve_protocol.Solve sr } ->
          (* Serve_key runs inside decode: time it on the same input *)
          let pairs =
            Array.map (fun (j : Job.t) -> (j.Job.release, j.Job.work)) (Instance.jobs sr.Serve_protocol.inst)
          in
          let (canon, hash), cid =
            probe "serve_key.canon" ~req:id (fun () ->
                let c =
                  Serve_key.canon ~solver:sr.Serve_protocol.solver ~points:sr.Serve_protocol.points
                    sr.Serve_protocol.problem pairs
                in
                (c, Serve_key.hash c))
          in
          probes := List.tl !probes;
          Pb_trace.adopt tr ~parent:sid [ cid ];
          if canon <> sr.Serve_protocol.canon || hash <> sr.Serve_protocol.hash then
            fail "the canon probe disagrees with decode on request %d" id;
          (id, jid, sr)
        | Ok _ | Error _ -> fail "request %d does not decode to a solve" id)
      w
  in
  Array.iter
    (fun (id, _, (sr : Serve_protocol.solve_request)) ->
      ignore
        (Pb_trace.span tr "serve_shard.route" ~req:id (fun () ->
             Serve_shard.route ~hash:sr.Serve_protocol.hash ~shards:1)))
    reqs;
  let hit =
    Array.map
      (fun (id, _, (sr : Serve_protocol.solve_request)) ->
        let r, _ =
          probe "serve_cache.find" ~req:id (fun () ->
              Serve_cache.find rp.mirror ~hash:sr.Serve_protocol.hash ~canon:sr.Serve_protocol.canon)
        in
        r <> None)
      reqs
  in
  (* misses, deduplicated by canonical key as Serve_batch does *)
  let seen = Hashtbl.create 16 in
  Array.iteri
    (fun i (id, _, (sr : Serve_protocol.solve_request)) ->
      if (not hit.(i)) && not (Hashtbl.mem seen sr.Serve_protocol.canon) then begin
        Hashtbl.add seen sr.Serve_protocol.canon ();
        match Engine.supporting sr.Serve_protocol.problem sr.Serve_protocol.inst with
        | [] -> fail "no solver accepts request %d" id
        | s :: _ ->
          let k0 = Array.map counter kernel_counters in
          let w0 = Gc.minor_words () in
          let r, eid =
            probe "engine.solve_with" ~req:id (fun () ->
                Engine.solve_with s sr.Serve_protocol.problem sr.Serve_protocol.inst)
          in
          acc.solve_words <- acc.solve_words +. words_since w0;
          Array.iteri (fun k c -> acc.kernel.(k) <- acc.kernel.(k) + counter c - k0.(k)) kernel_counters;
          (match sr.Serve_protocol.deadline_s with
          | Some dl ->
            (* Serve_batch solves this item through Guard, which wraps
               Engine: the cold Engine probe above only feeds the
               Engine metrics, and Guard's self time is its call minus
               an Engine call made in the same warm state right after *)
            probes := List.filter (fun p -> p <> eid) !probes;
            let _, gid =
              probe "guard.solve_with" ~req:id (fun () ->
                  Guard.solve_with
                    ~policy:{ Guard.default with Guard.deadline_s = Some dl }
                    s sr.Serve_protocol.problem sr.Serve_protocol.inst)
            in
            let _, inner =
              probe "guard.inner_solve" ~req:id (fun () ->
                  Engine.solve_with s sr.Serve_protocol.problem sr.Serve_protocol.inst)
            in
            probes := List.tl !probes;
            Pb_trace.adopt tr ~parent:gid [ inner ]
          | None -> ());
          let w0 = Gc.minor_words () in
          ignore
            (probe "serve_protocol.ok_payload" ~req:id (fun () ->
                 Serve_protocol.ok_payload ~points:sr.Serve_protocol.points r));
          acc.encode_words <- acc.encode_words +. words_since w0
      end)
    reqs;
  let on_insert ~canon payload =
    (match rp.journal with
    | Some j ->
      let w0 = Gc.minor_words () in
      Pb_trace.span tr "serve_journal.append" ~req:req0 (fun () -> Serve_journal.append j ~canon payload);
      acc.append_words <- acc.append_words +. words_since w0
    | None -> ());
    Pb_trace.span ~probe:true tr "bench.mirror" ~req:req0 (fun () ->
        Serve_cache.insert rp.mirror ~hash:(Serve_key.hash canon) ~canon payload;
        if rp.journal <> None then
          acc.append_bytes <- acc.append_bytes + String.length (Serve_journal.encode_line ~canon payload) + 1)
  in
  let bid = Pb_trace.enter tr "serve_batch.run" ~req:req0 in
  let answers =
    Serve_batch.run ~pool:rp.pool ~cache:rp.cache ~policy:Guard.default ~state:rp.state ~on_insert
      (Array.map (fun (_, _, sr) -> sr) reqs)
  in
  Pb_trace.leave tr bid;
  Pb_trace.adopt tr ~parent:bid !probes;
  let replies =
    Array.mapi
      (fun i payload ->
        let id, jid, _ = reqs.(i) in
        let w0 = Gc.minor_words () in
        let s =
          Pb_trace.span tr "serve_protocol.reply_string" ~req:id (fun () ->
              Serve_protocol.reply_string ~id:jid payload)
        in
        acc.encode_words <- acc.encode_words +. words_since w0;
        acc.reply_bytes <- acc.reply_bytes + String.length s;
        s)
      answers
  in
  Option.iter
    (fun j ->
      Pb_trace.span tr "serve_journal.flush" ~req:req0 (fun () -> Serve_journal.flush j);
      if Serve_journal.needs_compact j then
        Pb_trace.span tr "serve_journal.compact" ~req:req0 (fun () ->
            Serve_journal.compact j ~entries:(Serve_cache.to_list rp.cache)))
    rp.journal;
  Pb_trace.leave tr top;
  acc.requests <- acc.requests + Array.length w;
  Array.to_list replies

(* layers whose self times must add up to the in-process request time *)
let layers =
  [
    "serve_protocol.decode";
    "serve_key.canon";
    "serve_shard.route";
    "serve_cache.find";
    "serve_batch.run";
    "guard.solve_with";
    "engine.solve_with";
    "serve_protocol.ok_payload";
    "serve_protocol.reply_string";
    "serve_journal.append";
    "serve_journal.flush";
    "serve_journal.compact";
  ]

(* The replay length is a window count proportional to --seconds (about
   a fifth of it on the socket), not a time: the same seed and length
   replay the same requests, so counts and words repeat exactly. *)
let replay_windows kind seconds =
  int_of_float (Float.ceil (seconds *. match kind with Flow -> 100.0 | Trace -> 25.0))

let run_traced ~kind ~seed ~seconds ~pasched ~dir ~trace_file =
  let t = tally () in
  let next_window = generator kind seed in
  let store = store_of kind dir in
  Option.iter (fun store -> fill_store ~pasched ~dir ~store ~next_window t) store;
  (* the in-process replicas start from the store the daemon relaunches over *)
  let clone name =
    Option.map
      (fun src ->
        let dst = Filename.concat dir name in
        copy_file src dst;
        copy_file (src ^ ".journal") (dst ^ ".journal");
        dst)
      store
  in
  let ref_store = clone "ref.json" and tr_store = clone "traced.json" in
  (* untraced socket phase: the windows the replay will see *)
  let d, _ = launch ~pasched ~dir ~sock:(Filename.concat dir "t.sock") ~store in
  let sock_lat = samples () in
  let windows =
    Array.init (replay_windows kind seconds) (fun _ ->
        let w = next_window () in
        let replies, dt =
          try exchange d.conn (payload_of w) (Array.length w)
          with Daemon_gone why -> fail "daemon died: %s" why
        in
        ignore (check_window t w replies);
        push sock_lat (us_of_ns dt);
        (w, replies))
  in
  stop d;
  (* program-internal spans are not recorded; Obs is on in the traced
     replay only so that its counters count *)
  Obs_trace.set_max_events 0;
  let ref_t = Serve_shard.create ~jobs:1 ~shards:1 ?cache_file:ref_store () in
  let acc =
    {
      requests = 0;
      decode_words = 0.0;
      encode_words = 0.0;
      solve_words = 0.0;
      append_words = 0.0;
      reply_bytes = 0;
      append_bytes = 0;
      kernel = Array.make (Array.length kernel_counters) 0;
      ref_ns = 0;
      ref_words = 0.0;
    }
  in
  let rp =
    {
      tr = Pb_trace.create ();
      pool = Par.Pool.create ~jobs:1 ();
      cache = Serve_cache.create ~capacity:256;
      mirror = Serve_cache.create ~capacity:256;
      state = Serve_batch.create_state ();
      journal = Option.map (fun path -> Serve_journal.open_ ~path ()) tr_store;
      acc;
    }
  in
  Option.iter
    (fun j ->
      Pb_trace.span rp.tr "serve_journal.replay" ~req:(-1) (fun () ->
          Serve_journal.replay j (fun ~canon p ->
              Serve_cache.insert rp.cache ~hash:(Serve_key.hash canon) ~canon p)))
    rp.journal;
  List.iter
    (fun (canon, p) -> Serve_cache.insert rp.mirror ~hash:(Serve_key.hash canon) ~canon p)
    (Serve_cache.to_list rp.cache);
  let ev0 = (Serve_cache.stats rp.cache).Serve_cache.evictions in
  let ref_lat = samples () in
  Array.iter
    (fun ((w : (int * string) array), sock_replies) ->
      let lines = Array.to_list (Array.map snd w) in
      let w0 = Gc.minor_words () in
      let t0 = now_ns () in
      let expected = Serve_shard.handle_batch ref_t lines in
      let dt = now_ns () - t0 in
      acc.ref_words <- acc.ref_words +. words_since w0;
      acc.ref_ns <- acc.ref_ns + dt;
      push ref_lat (us_of_ns dt);
      Obs.set_enabled true;
      let got = traced_window rp w in
      Obs.set_enabled false;
      if got <> expected || Array.to_list sock_replies <> expected then begin
        t.failed <- t.failed + 1;
        note t (Printf.sprintf "window at request %d: replay, in-process and socket replies differ" (fst w.(0)))
      end)
    windows;
  Serve_shard.abort ref_t;
  Par.Pool.shutdown rp.pool;
  Option.iter Serve_journal.close rp.journal;
  Pb_trace.write_chrome rp.tr trace_file;
  let tot = Pb_trace.totals rp.tr in
  let count n = (tot n).Pb_trace.count in
  let dur n = float_of_int (tot n).Pb_trace.dur_ns and self n = float_of_int (tot n).Pb_trace.self_ns in
  let req = float_of_int acc.requests in
  let per n x = if n = 0 then 0.0 else x /. float_of_int n in
  let solves = count "engine.solve_with" in
  let layer_self = List.fold_left (fun a n -> a +. self n) 0.0 layers in
  let traced_path = dur "serve.window" -. float_of_int (Pb_trace.probe_ns rp.tr) in
  let ref_ns = float_of_int acc.ref_ns in
  let cs = Serve_cache.stats rp.cache in
  let k i = float_of_int acc.kernel.(i) in
  let metrics =
    [
      m "serve.transport_us"
        ((median (contents sock_lat) -. median (contents ref_lat)) /. float_of_int (window_of kind));
      m "serve_protocol.decode_us" (self "serve_protocol.decode" *. 1e-3 /. req);
      m "serve_protocol.decode_words" (acc.decode_words /. req);
      m "serve_key.canon_us" (dur "serve_key.canon" *. 1e-3 /. req);
      m "serve_cache.hit_ratio"
        (per (cs.Serve_cache.hits + cs.Serve_cache.misses) (float_of_int cs.Serve_cache.hits));
      m "serve_cache.find_us" (dur "serve_cache.find" *. 1e-3 /. req);
      m "serve_cache.evictions_per_kreq"
        (float_of_int (cs.Serve_cache.evictions - ev0) *. 1000.0 /. req);
      m "serve_batch.self_us" (self "serve_batch.run" *. 1e-3 /. req);
      m "guard.overhead_us" (per (count "guard.solve_with") (self "guard.solve_with" *. 1e-3));
      m "engine.solve_us" (per solves (dur "engine.solve_with" *. 1e-3));
      m "engine.solve_words" (per solves acc.solve_words);
      m "rootfind.calls_per_solve" (per solves (k 0));
      m "rootfind.newton_iters_per_solve" (per solves (k 1));
      m "rootfind.brent_iters_per_solve" (per solves (k 2));
      m "flow.run_merges_per_solve" (per solves (k 3));
      m "incmerge.merge_rounds_per_job" (per acc.kernel.(5) (k 4));
      m "serve_protocol.encode_us"
        ((dur "serve_protocol.ok_payload" +. dur "serve_protocol.reply_string") *. 1e-3 /. req);
      m "serve_protocol.encode_words" (acc.encode_words /. req);
      m "serve_protocol.reply_bytes" (float_of_int acc.reply_bytes /. req);
      m "serve_journal.append_us" (per (count "serve_journal.append") (dur "serve_journal.append" *. 1e-3));
      m "serve_journal.append_words" (per (count "serve_journal.append") acc.append_words);
      m "serve_journal.flush_us" (per (count "serve_journal.flush") (dur "serve_journal.flush" *. 1e-3));
      m "serve_journal.compact_ms" (per (count "serve_journal.compact") (dur "serve_journal.compact" *. 1e-6));
      m "serve_journal.compactions_per_kreq"
        (float_of_int (count "serve_journal.compact") *. 1000.0 /. req);
      m "serve_journal.bytes_per_append"
        (per (count "serve_journal.append") (float_of_int acc.append_bytes));
      m "serve_journal.replay_ms" (dur "serve_journal.replay" *. 1e-6);
      m "gc.words_per_request" (acc.ref_words /. req);
      m "serve.residual_us" ((ref_ns -. layer_self) *. 1e-3 /. req);
      m "trace.overhead_pct" (100.0 *. (traced_path -. ref_ns) /. ref_ns);
    ]
  in
  let details =
    let open Obs_json in
    [
      ("replayed_windows", Int (Array.length windows));
      ("replayed_requests", Int acc.requests);
      ("solves", Int solves);
      ("supervised_solves", Int (count "guard.solve_with"));
      ("socket_window_p50_us", Float (median (contents sock_lat)));
      ("in_process_window_p50_us", Float (median (contents ref_lat)));
      ("spans", Int rp.tr.Pb_trace.n);
      ("trace_file", String trace_file);
      ("store_fs", String (fs_type dir));
      ("failures", List (List.rev_map (fun s -> String s) t.notes));
    ]
  in
  (t.attempted, t.failed, metrics, details)
