(* Shared plumbing of the benchmark harness: its own PRNG, clocks,
   order statistics, child-process hygiene, the private run directory
   and the result line. *)

let contains_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* ---------------- clock ---------------- *)

let now_ns () = Int64.to_int (Obs_clock.now_ns ())
let s_of_ns d = float_of_int d *. 1e-9
let ms_of_ns d = float_of_int d *. 1e-6
let us_of_ns d = float_of_int d *. 1e-3

(* ---------------- PRNG ---------------- *)

(* SplitMix64, owned by the benchmark: request bytes and orderings come
   from here, never from the program's own generators, so a change to
   the program cannot change the inputs it is measured on. *)
type rng = { mutable state : int64 }

let next r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  let z = r.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* independent streams of one seed, one per concern ([tag]) *)
let rng ~seed ~tag =
  let r = { state = Int64.logxor (Int64.of_int seed) (Int64.mul (Int64.of_int (tag + 1)) 0xD1B54A32D192ED03L) } in
  ignore (next r);
  r

(* uniform in [0, 1) *)
let uniform r = Int64.to_float (Int64.shift_right_logical (next r) 11) *. 0x1p-53
let below r n = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int n))
let exponential r rate = -.log (1.0 -. uniform r) /. rate

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = below r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ---------------- order statistics ---------------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then Float.nan
  else if n land 1 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* mean of [a] without its highest and lowest tenth *)
let trimmed_mean a =
  let s = sorted a in
  let cut = Array.length s / 10 in
  let kept = Array.sub s cut (Array.length s - (2 * cut)) in
  Array.fold_left ( +. ) 0.0 kept /. float_of_int (Array.length kept)

(* nearest-rank percentile, and how many samples lie strictly beyond
   its rank *)
let percentile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then (Float.nan, 0)
  else
    let k = Int.max 0 (Int.min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)) in
    (s.(k), n - 1 - k)

(* p50 and p99 of a run's latency samples, with the sample counts the
   run details report beside them *)
let latency_percentiles lat =
  let p50, beyond50 = percentile lat 0.50 and p99, beyond99 = percentile lat 0.99 in
  ( p50,
    p99,
    [
      ("latency_samples", Obs_json.Int (Array.length lat));
      ("beyond_p50", Obs_json.Int beyond50);
      ("beyond_p99", Obs_json.Int beyond99);
    ] )

(* growable float sample buffer *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let push s v =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let contents s = Array.sub s.data 0 s.len

(* Latency percentiles of a long run, taken per group of consecutive
   samples: each group's own p50 and p99, then the trimmed mean of each
   over the groups.  The host runs the benchmark in fast and slow
   phases lasting seconds, which on a 2-vCPU VM moved a group's p50 by
   up to 1.6x on sim_trace and serve_trace.  A percentile over the
   whole run jumps from one phase's level to the other's as the mix of
   phases shifts from run to run: sim_trace's p99 spread by a third of
   its median between sets of ten runs.  A mean over groups moves with
   the mix instead, and trimming leaves out the groups a host stall
   hit, whose p99 can read five times the rest. *)
let latency_group = 1000 (* the fewest samples that leave 10 beyond a group's p99 *)

type grouped = {
  p50s : samples;
  p99s : samples;
  mutable total : int;
  mutable beyond50 : int; (* fewest samples of a group beyond its p50 *)
  mutable beyond99 : int;
}

let grouped () = { p50s = samples (); p99s = samples (); total = 0; beyond50 = max_int; beyond99 = max_int }

let add_group g part =
  let p50, b50 = percentile part 0.50 and p99, b99 = percentile part 0.99 in
  push g.p50s p50;
  push g.p99s p99;
  g.total <- g.total + Array.length part;
  g.beyond50 <- Int.min g.beyond50 b50;
  g.beyond99 <- Int.min g.beyond99 b99

(* a run's samples, in the order taken, cut into groups of
   [latency_group]; the last group takes the remainder *)
let grouped_of lat =
  let g = grouped () and n = Array.length lat in
  let groups = Int.max 1 (n / latency_group) in
  for k = 0 to groups - 1 do
    let first = k * latency_group in
    add_group g (Array.sub lat first (if k = groups - 1 then n - first else latency_group))
  done;
  g

(* p50 and p99, with the sample counts the run details report beside
   them *)
let grouped_percentiles g =
  ( trimmed_mean (contents g.p50s),
    trimmed_mean (contents g.p99s),
    [
      ("latency_samples", Obs_json.Int g.total);
      ("latency_groups", Obs_json.Int g.p50s.len);
      ("min_beyond_p50_per_group", Obs_json.Int (if g.p50s.len = 0 then 0 else g.beyond50));
      ("min_beyond_p99_per_group", Obs_json.Int (if g.p50s.len = 0 then 0 else g.beyond99));
    ] )

(* ---------------- failures ---------------- *)

(* An output check or a lifecycle step that failed: the run reports
   correct = false and exits nonzero. *)
exception Bench_failure of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bench_failure m)) fmt

(* ---------------- child processes ---------------- *)

let children : int list ref = ref []

let forget pid = children := List.filter (fun p -> p <> pid) !children

(* wait for a child to end; [None] when it was already reaped *)
let rec wait_child pid =
  match Unix.waitpid [] pid with
  | _, status ->
    forget pid;
    Some status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_child pid
  | exception Unix.Unix_error _ ->
    forget pid;
    None

(* Every child is started with create_process: OCaml 5 refuses fork
   once domains exist. *)
let spawn prog args ~stdout ~stderr =
  let pid = Unix.create_process prog args Unix.stdin stdout stderr in
  children := pid :: !children;
  pid

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (wait_child pid)

let reap_all () = List.iter reap !children

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* no exit path may leave a daemon behind to take a core from the next
   run *)
let install_hygiene () =
  at_exit reap_all;
  let stop _ = exit 130 in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle stop))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* ---------------- files ---------------- *)

let root = "perfbench/.run"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error _ -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let copy_file src dst =
  if Sys.file_exists src then
    Out_channel.with_open_bin dst (fun oc -> output_string oc (read_file src))

let pid_file dir = Filename.concat dir "children"

(* A run killed from outside cannot reap its own daemons; the next run
   does it from the pid list the dead run left in its directory. *)
let reap_stale_runs () =
  if Sys.file_exists root then
    Array.iter
      (fun name ->
        let dir = Filename.concat root name in
        match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
        | Some owner when String.length name > 1 && name.[0] = 'r' ->
          if not (Sys.file_exists (Printf.sprintf "/proc/%d" owner)) then begin
            (match read_file (pid_file dir) with
            | s ->
              List.iter
                (fun p ->
                  match int_of_string_opt (String.trim p) with
                  | Some pid -> (
                    let cmd = Printf.sprintf "/proc/%d/cmdline" pid in
                    match read_file cmd with
                    | c when contains_sub c dir -> (
                      try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
                    | _ -> ()
                    | exception Sys_error _ -> ())
                  | None -> ())
                (String.split_on_char '\n' s)
            | exception Sys_error _ -> ());
            rm_rf dir
          end
        | _ -> ())
      (Sys.readdir root)

let note_child dir pid =
  Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 (pid_file dir) (fun oc ->
      Printf.fprintf oc "%d\n" pid)

(* peak resident set of a live process, from /proc *)
let vm_hwm_mb pid =
  let path = match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p in
  let rec scan = function
    | [] -> fail "no VmHWM in %s" path
    | l :: rest ->
      if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
        let kb =
          String.sub l 6 (String.length l - 6)
          |> String.trim |> String.split_on_char ' ' |> List.hd |> float_of_string
        in
        kb /. 1024.0
      else scan rest
  in
  scan (String.split_on_char '\n' (read_file path))

let cpus_allowed () =
  match
    List.find_opt
      (fun l -> String.length l > 18 && String.sub l 0 18 = "Cpus_allowed_list:")
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  with
  | Some l -> String.trim (String.sub l 18 (String.length l - 18))
  | None -> "unknown"

(* what a worker process's timed phase reports to the harness;
   [latency] is (p50, p99, the sample counts behind them) *)
let worker_result ~attempted ~failed ~ops_per_s ~latency:(p50, p99, counts) details =
  let open Obs_json in
  Obj
    [
      ("attempted", Int attempted);
      ("failed", Int failed);
      ("ops_per_s", Float ops_per_s);
      ("latency_p50_ms", Float p50);
      ("latency_p99_ms", Float p99);
      ("peak_rss_mb", Float (vm_hwm_mb None));
      ("details", Obj (counts @ details));
    ]

(* filesystem type of the mount holding [path] *)
let fs_type path =
  match Unix.realpath path with
  | exception Unix.Unix_error _ -> "unknown"
  | real ->
    let best = ref ("", "unknown") in
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | _ :: mnt :: typ :: _ ->
          let under =
            mnt = "/"
            || real = mnt
            || String.length real > String.length mnt
               && String.sub real 0 (String.length mnt) = mnt
               && real.[String.length mnt] = '/'
          in
          if under && String.length mnt >= String.length (fst !best) then best := (mnt, typ)
        | _ -> ())
      (String.split_on_char '\n' (try read_file "/proc/self/mounts" with Sys_error _ -> ""));
    snd !best

(* ---------------- host drift ---------------- *)

(* A fixed register-only loop, timed before and after a run: if it
   moves, the host moved, not the program. *)
let drift_probe_ms () =
  let t0 = now_ns () in
  let x = ref 0x2545F491 in
  for _ = 1 to 30_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF
  done;
  ignore (Sys.opaque_identity !x);
  ms_of_ns (now_ns () - t0)

(* ---------------- result ---------------- *)

(* a measured value; its unit is the one BENCHMARK.json declares *)
type metric = { name : string; value : float }

let m name value = { name; value }

let json_float v =
  if not (Float.is_finite v) then "0"
  else
    let s = Printf.sprintf "%.17g" v in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

(* The details line rides beside the result; the result is always the
   last line of standard output.  [declared] is the (name, unit) list
   of the section being printed; a declared metric the run did not
   measure reads 0. *)
let print_result ~correct ~attempted ~failed ~details ~declared metrics =
  List.iter
    (fun x ->
      if not (List.mem_assoc x.name declared) then fail "metric %s is not declared in BENCHMARK.json" x.name)
    metrics;
  Printf.printf "# details %s\n" (Obs_json.to_string (Obs_json.Obj details));
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit_) ->
           let v = match List.find_opt (fun x -> x.name = name) metrics with Some x -> x.value | None -> 0.0 in
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit_)
         declared)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body
