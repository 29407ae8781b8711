(* Span-based tracing.

   A span is entered, nests freely, and on exit records one "complete"
   event (begin timestamp + duration).  Events are stored in a growable
   array and exported in Chrome trace_event format: complete events
   ("ph":"X") on one pid/tid nest purely by timestamp containment, which
   is exactly what about://tracing and Perfetto render as a flame
   graph. *)

type event = {
  name : string;
  ts_us : float;  (* start, microseconds since the trace epoch *)
  dur_us : float;
  depth : int;
  args : (string * string) list;
}

type span = { s_name : string; t0 : int64; s_depth : int; s_args : (string * string) list }

let buf : event array ref = ref (Array.make 0 { name = ""; ts_us = 0.0; dur_us = 0.0; depth = 0; args = [] })
let len = ref 0
let max_events = ref 1_000_000
let dropped = ref 0
let depth_now = ref 0
let epoch = ref Int64.min_int

let clear () =
  buf := Array.make 0 { name = ""; ts_us = 0.0; dur_us = 0.0; depth = 0; args = [] };
  len := 0;
  dropped := 0;
  depth_now := 0;
  epoch := Int64.min_int

let set_max_events n = max_events := Stdlib.max 0 n

let push ev =
  if !len >= !max_events then incr dropped
  else begin
    if !len >= Array.length !buf then begin
      let cap = Stdlib.max 256 (2 * Array.length !buf) in
      let bigger = Array.make (Stdlib.min cap !max_events) ev in
      Array.blit !buf 0 bigger 0 !len;
      buf := bigger
    end;
    !buf.(!len) <- ev;
    incr len
  end

let enter ?(args = []) name =
  let t0 = Obs_clock.now_ns () in
  if !epoch = Int64.min_int then epoch := t0;
  let s = { s_name = name; t0; s_depth = !depth_now; s_args = args } in
  incr depth_now;
  s

let exit s =
  let t1 = Obs_clock.now_ns () in
  depth_now := Stdlib.max 0 (!depth_now - 1);
  push
    {
      name = s.s_name;
      ts_us = Obs_clock.ns_to_us (Int64.sub s.t0 !epoch);
      dur_us = Obs_clock.ns_to_us (Int64.sub t1 s.t0);
      depth = s.s_depth;
      args = s.s_args;
    }

let with_span ?args name f =
  let s = enter ?args name in
  Fun.protect ~finally:(fun () -> exit s) f

let events () = Array.to_list (Array.sub !buf 0 !len)

let dropped_events () = !dropped

let to_json () =
  let span_event ev =
    Obs_json.Obj
      [
        ("name", Obs_json.String ev.name);
        ("cat", Obs_json.String "pasched");
        ("ph", Obs_json.String "X");
        ("ts", Obs_json.Float ev.ts_us);
        ("dur", Obs_json.Float ev.dur_us);
        ("pid", Obs_json.Int 1);
        ("tid", Obs_json.Int 1);
        ( "args",
          Obs_json.Obj
            (("depth", Obs_json.Int ev.depth)
            :: List.map (fun (k, v) -> (k, Obs_json.String v)) ev.args) );
      ]
  in
  let metadata =
    Obs_json.Obj
      [
        ("name", Obs_json.String "process_name");
        ("ph", Obs_json.String "M");
        ("pid", Obs_json.Int 1);
        ("tid", Obs_json.Int 1);
        ("args", Obs_json.Obj [ ("name", Obs_json.String "pasched") ]);
      ]
  in
  Obs_json.Obj
    [
      ("traceEvents", Obs_json.List (metadata :: List.map span_event (events ())));
      ("displayTimeUnit", Obs_json.String "ms");
    ]
