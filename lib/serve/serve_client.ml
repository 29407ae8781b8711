(* ---------- connections ---------- *)

(* bytes read but not yet consumed wait in [chunk] between [pos] and
   [len], the unterminated start of the current reply in [line] *)
type conn = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable pos : int;
  mutable len : int;
  line : Buffer.t;
}

let of_fd fd =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  { fd; chunk = Bytes.create 65536; pos = 0; len = 0; line = Buffer.create 256 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> of_fd fd
  | exception Unix.Unix_error (err, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    failwith (Printf.sprintf "cannot connect to %s: %s" socket (Unix.error_message err))

let send c lines =
  let payload = String.concat "\n" lines ^ "\n" in
  let len = String.length payload in
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write_substring c.fd payload !sent (len - !sent)
  done

let rec read_reply c =
  let nl = ref c.pos in
  while !nl < c.len && Bytes.get c.chunk !nl <> '\n' do
    incr nl
  done;
  Buffer.add_subbytes c.line c.chunk c.pos (!nl - c.pos);
  if !nl < c.len then begin
    c.pos <- !nl + 1;
    let reply = Buffer.contents c.line in
    Buffer.clear c.line;
    reply
  end
  else begin
    let got = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
    if got = 0 then failwith "server closed the connection mid-reply";
    c.pos <- 0;
    c.len <- got;
    read_reply c
  end

let round_trip c lines =
  send c lines;
  List.rev (List.fold_left (fun acc _ -> read_reply c :: acc) [] lines)

let with_connection ~socket f =
  let live = ref None in
  let drop () =
    Option.iter close !live;
    live := None
  in
  let exchange lines =
    let c = match !live with Some c -> c | None -> connect socket in
    live := Some c;
    try round_trip c lines
    with e ->
      drop ();
      raise e
  in
  Fun.protect ~finally:drop (fun () -> f exchange)

let exchange ~socket lines = with_connection ~socket (fun exchange -> exchange lines)

(* ---------- retry ---------- *)

type backoff = { base_ms : float; cap_ms : float; rng : Rng.t; mutable prev_ms : float }

let backoff ?(cap_ms = 10_000.) ?(seed = 0) ~base_ms () =
  if base_ms <= 0.0 then invalid_arg "Serve_client.backoff: base_ms must be > 0";
  if cap_ms < base_ms then invalid_arg "Serve_client.backoff: cap_ms must be >= base_ms";
  { base_ms; cap_ms; rng = Rng.make seed; prev_ms = base_ms }

let next_ms b =
  let hi = Float.max b.base_ms (3.0 *. b.prev_ms) in
  let sleep = Float.min b.cap_ms (b.base_ms +. Rng.float b.rng (hi -. b.base_ms)) in
  b.prev_ms <- sleep;
  sleep

let is_transient reply =
  match Serve_protocol.reply_status reply with Some ("busy" | "degraded") -> true | _ -> false

let with_retry b ~retries exchange lines =
  let pause () = Unix.sleepf (next_ms b /. 1000.0) in
  let rec go lines budget =
    match exchange lines with
    | exception ((Failure _ | Unix.Unix_error _) as e) ->
      if budget = 0 then raise e;
      pause ();
      go lines (budget - 1)
    | replies ->
      let replies = Array.of_list replies in
      let slots =
        List.filter (fun i -> is_transient replies.(i)) (List.init (Array.length replies) Fun.id)
      in
      if slots <> [] && budget > 0 then begin
        pause ();
        let lines = Array.of_list lines in
        let retried = go (List.map (Array.get lines) slots) (budget - 1) in
        List.iter2 (fun i r -> replies.(i) <- r) slots retried
      end;
      Array.to_list replies
  in
  go lines retries

let exit_code reply =
  match Serve_protocol.reply_status reply with
  | Some "ok" -> 0
  | _ -> Guard_error.class_exit_code (Option.value ~default:"" (Serve_protocol.reply_class reply))

let wait_ready ~socket =
  (* a cap equal to the base pins every sleep at 50 ms *)
  let every_50ms = backoff ~base_ms:50.0 ~cap_ms:50.0 () in
  try ignore (with_retry every_50ms ~retries:199 (exchange ~socket) [ {|{"op":"ping"}|} ])
  with Failure _ | Unix.Unix_error _ ->
    failwith (Printf.sprintf "daemon never answered on %s" socket)

(* ---------- daemon processes ---------- *)

type daemon = { mutable pid : int option }

let stop ?(kill = false) d =
  match d.pid with
  | None -> None
  | Some pid -> (
    d.pid <- None;
    if kill then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    try Some (snd (Unix.waitpid [] pid)) with Unix.Unix_error _ -> None)

let start ~exe ~socket args =
  let argv = Array.of_list (exe :: "serve" :: "--socket" :: socket :: args) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let d =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () -> { pid = Some (Unix.create_process exe argv devnull devnull Unix.stderr) })
  in
  (try wait_ready ~socket
   with e ->
     ignore (stop ~kill:true d);
     raise e);
  d

(* ---------- requests from a trace ---------- *)

let request_line ~alpha id jobs =
  let open Obs_json in
  let r0 = (List.hd jobs).Job.release in
  let total = List.fold_left (fun acc (j : Job.t) -> acc +. j.Job.work) 0.0 jobs in
  let pair (j : Job.t) = List [ Float (j.Job.release -. r0); Float j.Job.work ] in
  to_string
    (Obj
       [
         ("id", Int id);
         ("op", String "solve");
         ("objective", String "makespan");
         ("alpha", Float alpha);
         ("budget", Float (2.0 *. total));
         ("jobs", List (List.map pair jobs));
       ])

let trace_requests ~alpha ~batch stream =
  let rec from id () =
    match Workload.Stream.take stream batch with
    | [] -> Seq.Nil
    | jobs -> Seq.Cons (request_line ~alpha id jobs, from (id + 1))
  in
  from 0

(* ---------- soak ---------- *)

type soak = {
  ok : int;
  busy : int;
  errors : int;
  latency : Streaming_metrics.snapshot;
  wall_s : float;
}

let check_window window = if window < 1 then invalid_arg "Serve_client: window must be >= 1"

(* [before_window i] runs just before window [i] is sent *)
let soak_windows ~before_window ~window ~exchange lines =
  check_window window;
  let metrics = Streaming_metrics.create () in
  let ok = ref 0 and busy = ref 0 and errors = ref 0 in
  let t0 = Unix.gettimeofday () in
  let rec cut k acc = function
    | l :: rest when k < window -> cut (k + 1) (l :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec go i = function
    | [] -> ()
    | lines ->
      let w, rest = cut 0 [] lines in
      before_window i;
      let sent_at = Unix.gettimeofday () in
      let replies = exchange w in
      let now = Unix.gettimeofday () in
      List.iter
        (fun r ->
          (match Serve_protocol.reply_status r with
          | Some "ok" -> incr ok
          | Some ("busy" | "degraded") -> incr busy
          | _ -> incr errors);
          Streaming_metrics.observe metrics ~release:(sent_at -. t0) ~completion:(now -. t0))
        replies;
      go (i + 1) rest
  in
  go 0 lines;
  let wall_s = Unix.gettimeofday () -. t0 in
  { ok = !ok; busy = !busy; errors = !errors; latency = Streaming_metrics.snapshot metrics; wall_s }

let soak ~window ~exchange lines = soak_windows ~before_window:ignore ~window ~exchange lines

(* ---------- kill-chaos drill ---------- *)

type chaos = {
  killed_window : int;
  pre_cache : int;
  post_cache : int;
  replayed : int;
  skipped_corrupt : int;
  warm_fraction : float;
  rechecked : int;
  mismatches : int;
  soak : soak;
}

(* (cache size, journal replayed, journal skipped_corrupt) *)
let health ~socket =
  let doc =
    match exchange ~socket [ {|{"op":"health"}|} ] with
    | [ reply ] -> Result.fold ~ok:Fun.id ~error:failwith (Obs_json.of_string reply)
    | _ -> failwith "health: expected one reply"
  in
  let int_at path =
    List.fold_left (fun acc k -> Option.bind acc (Obs_json.member k)) (Some doc) path
    |> Fun.flip Option.bind Obs_json.to_int
    |> Option.value ~default:0
  in
  let journal k = int_at [ "health"; "journal"; k ] in
  (int_at [ "health"; "cache"; "size" ], journal "replayed", journal "skipped_corrupt")

let chaos ~exe ~socket ~cache_file ~shards ~cache_capacity ~max_inflight ~window ~retries
    ~backoff ~kill_at lines =
  check_window window;
  let args =
    [ "--cache-file"; cache_file; "--shards"; string_of_int shards; "--cache";
      string_of_int cache_capacity ]
    @ if max_inflight > 0 then [ "--max-inflight"; string_of_int max_inflight ] else []
  in
  let daemon = ref (start ~exe ~socket args) in
  Fun.protect ~finally:(fun () -> ignore (stop ~kill:true !daemon)) @@ fun () ->
  let nwin = (List.length lines + window - 1) / window in
  let killed_window =
    Int.max 0 (Int.min (nwin - 1) (int_of_float (kill_at *. float_of_int nwin)))
  in
  (* first ok reply per pre-kill request line: the byte-identity oracle
     for post-recovery answers *)
  let first_ok : (string, string) Hashtbl.t = Hashtbl.create 4096 in
  (* health just before the kill and just after the restart *)
  let at_kill = ref None in
  let soak, rechecked, mismatches =
    with_connection ~socket @@ fun exchange ->
    let exchange = with_retry backoff ~retries exchange in
    let recording w =
      let replies = exchange w in
      if !at_kill = None then
        List.iter2
          (fun line reply ->
            if Serve_protocol.reply_status reply = Some "ok" && not (Hashtbl.mem first_ok line)
            then Hashtbl.replace first_ok line reply)
          w replies;
      replies
    in
    (* the soak's own connection dies with the daemon and is left that
       way, so the next window goes through the retry path exactly as a
       production client's would *)
    let before_window i =
      if i = killed_window then begin
        let pre = health ~socket in
        ignore (stop ~kill:true !daemon);
        daemon := start ~exe ~socket args;
        at_kill := Some (pre, health ~socket)
      end
    in
    let soak = soak_windows ~before_window ~window ~exchange:recording lines in
    let sample =
      List.filteri (fun i _ -> i < 512) (Hashtbl.fold (fun l r acc -> (l, r) :: acc) first_ok [])
    in
    let differs (line, expect) = exchange [ line ] <> [ expect ] in
    (soak, List.length sample, List.length (List.filter differs sample))
  in
  (try ignore (exchange ~socket [ {|{"op":"shutdown"}|} ])
   with Failure _ | Unix.Unix_error _ -> ());
  ignore (stop !daemon);
  let (pre_cache, _, _), (post_cache, replayed, skipped_corrupt) =
    Option.value ~default:((0, 0, 0), (0, 0, 0)) !at_kill
  in
  let warm_fraction =
    if pre_cache = 0 then 1.0 else float_of_int post_cache /. float_of_int pre_cache
  in
  { killed_window; pre_cache; post_cache; replayed; skipped_corrupt; warm_fraction; rechecked;
    mismatches; soak }
