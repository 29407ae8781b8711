(* In-memory span recorder for the traced run.

   Spans are recorded from the benchmark's own files, around each call
   into a layer's public function.  Where one public call wraps two
   layers, the inner layer's own public call is timed on the same
   input as a [probe] span whose parent is the wrapper: the wrapper's
   self time is its duration minus its children's, probes included.
   Spans stay in memory and are written as one Chrome trace at the end
   of the run. *)

type t = {
  mutable n : int;
  mutable name : string array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable parent : int array;
  mutable req : int array;
  mutable probe : bool array;
  mutable stack : int list;
}

let create () =
  let cap = 4096 in
  {
    n = 0;
    name = Array.make cap "";
    t0 = Array.make cap 0;
    t1 = Array.make cap 0;
    parent = Array.make cap (-1);
    req = Array.make cap 0;
    probe = Array.make cap false;
    stack = [];
  }

let grow t =
  let cap = 2 * Array.length t.t0 in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- ext t.name "";
  t.t0 <- ext t.t0 0;
  t.t1 <- ext t.t1 0;
  t.parent <- ext t.parent (-1);
  t.req <- ext t.req 0;
  t.probe <- ext t.probe false

let enter ?(probe = false) t name ~req =
  if t.n = Array.length t.t0 then grow t;
  let id = t.n in
  t.n <- id + 1;
  t.name.(id) <- name;
  t.parent.(id) <- (match t.stack with p :: _ -> p | [] -> -1);
  t.req.(id) <- req;
  t.probe.(id) <- probe;
  t.stack <- id :: t.stack;
  t.t0.(id) <- Pb_util.now_ns ();
  id

let leave t id =
  t.t1.(id) <- Pb_util.now_ns ();
  match t.stack with _ :: rest -> t.stack <- rest | [] -> ()

let span ?probe t name ~req f =
  let id = enter ?probe t name ~req in
  match f () with
  | v ->
    leave t id;
    v
  | exception e ->
    leave t id;
    raise e

(* a span whose times were taken by the caller, under the open span *)
let record t name ~req ~t0 ~t1 =
  if t.n = Array.length t.t0 then grow t;
  let id = t.n in
  t.n <- id + 1;
  t.name.(id) <- name;
  t.parent.(id) <- (match t.stack with p :: _ -> p | [] -> -1);
  t.req.(id) <- req;
  t.probe.(id) <- false;
  t.t0.(id) <- t0;
  t.t1.(id) <- t1

let duration t id = t.t1.(id) - t.t0.(id)

(* a probe timed before its wrapper exists is attached afterwards *)
let adopt t ~parent ids = List.iter (fun id -> t.parent.(id) <- parent) ids

(* time spent in probes: spans that re-run an inner layer's call and
   so are not part of the replayed path (a probe running inside
   another probe's interval is counted once, with it) *)
let probe_ns t =
  let sum = ref 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    let nested = p >= 0 && t.probe.(p) && t.t0.(i) >= t.t0.(p) && t.t1.(i) <= t.t1.(p) in
    if t.probe.(i) && not nested then sum := !sum + duration t i
  done;
  !sum

type totals = { mutable count : int; mutable dur_ns : int; mutable self_ns : int }

(* per span name: count, total duration, total self time *)
let totals t =
  let child = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + duration t i
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to t.n - 1 do
    let a =
      match Hashtbl.find_opt tbl t.name.(i) with
      | Some a -> a
      | None ->
        let a = { count = 0; dur_ns = 0; self_ns = 0 } in
        Hashtbl.add tbl t.name.(i) a;
        a
    in
    a.count <- a.count + 1;
    a.dur_ns <- a.dur_ns + duration t i;
    a.self_ns <- a.self_ns + duration t i - child.(i)
  done;
  fun name ->
    match Hashtbl.find_opt tbl name with Some a -> a | None -> { count = 0; dur_ns = 0; self_ns = 0 }

(* Chrome trace_event JSON: one complete ("X") event per span, the
   request id, parent and probe flag in args *)
let write_chrome t path =
  let origin = if t.n = 0 then 0 else t.t0.(0) in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
      for i = 0 to t.n - 1 do
        if i > 0 then output_char oc ',';
        Printf.fprintf oc
          "\n{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
          t.name.(i)
          (if t.probe.(i) then "probe" else "layer")
          (Pb_util.us_of_ns (t.t0.(i) - origin))
          (Pb_util.us_of_ns (duration t i))
          i t.parent.(i) t.req.(i)
      done;
      output_string oc "\n]}\n")

let trace_path ~workload ~seed =
  Filename.concat Pb_util.root (Printf.sprintf "trace-%s-seed%d.json" workload seed)
