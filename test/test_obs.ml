(* Tests for the pasched.obs observability layer: counter arithmetic,
   span nesting, trace JSON round-trips, the disabled-mode contract,
   the JSON codec itself, and a CLI integration check that the
   `--trace` flag of the real binary writes a parseable Chrome trace. *)

(* unwrap the option-returning Obs_json accessors, failing the test on
   a shape mismatch *)
let jmem key v =
  match Obs_json.member key v with
  | Some x -> x
  | None -> Alcotest.fail ("missing JSON field " ^ key)

let jlist v = match Obs_json.to_list v with Some l -> l | None -> Alcotest.fail "expected JSON list"
let jint v = match Obs_json.to_int v with Some i -> i | None -> Alcotest.fail "expected JSON int"
let jfloat v =
  match Obs_json.to_float v with Some f -> f | None -> Alcotest.fail "expected JSON number"
let jstr v =
  match Obs_json.to_string_val v with Some s -> s | None -> Alcotest.fail "expected JSON string"

let with_obs_on f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false; Obs.reset ()) f

(* ---------------------------------------------------------------- *)
(* counters, gauges, histograms *)

let test_counter_arithmetic () =
  with_obs_on @@ fun () ->
  let c = Obs.counter "test.counter_arith" in
  Alcotest.(check int) "starts at zero" 0 (Obs_metrics.value c);
  Obs.incr c;
  Obs.incr c;
  Obs.add c 40;
  Alcotest.(check int) "incr and add accumulate" 42 (Obs_metrics.value c);
  let c' = Obs.counter "test.counter_arith" in
  Obs.incr c';
  Alcotest.(check int) "same name interns to the same handle" 43 (Obs_metrics.value c)

let test_counter_reset () =
  with_obs_on @@ fun () ->
  let c = Obs.counter "test.counter_reset" in
  Obs.add c 7;
  Obs.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs_metrics.value c);
  Obs.incr c;
  Alcotest.(check int) "handle survives reset" 1 (Obs_metrics.value c)

let test_gauge_and_histogram () =
  with_obs_on @@ fun () ->
  let g = Obs.gauge "test.gauge" in
  Obs.set g 1.5;
  Obs.set g 2.5;
  Alcotest.(check (float 1e-12)) "gauge keeps last value" 2.5 (Obs_metrics.gauge_value g);
  let h = Obs.histogram "test.hist" in
  List.iter (Obs.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
  let st = Obs_metrics.stats h in
  Alcotest.(check int) "histogram count" 4 st.Obs_metrics.count;
  Alcotest.(check (float 1e-12)) "histogram mean" 2.5 st.Obs_metrics.mean;
  Alcotest.(check (float 1e-12)) "histogram min" 1.0 st.Obs_metrics.min_v;
  Alcotest.(check (float 1e-12)) "histogram max" 4.0 st.Obs_metrics.max_v

let test_snapshot_contents () =
  with_obs_on @@ fun () ->
  let c = Obs.counter "test.snapshot_counter" in
  Obs.add c 3;
  let snap = Obs.snapshot () in
  Alcotest.(check int) "snapshot sees the counter" 3
    (List.assoc "test.snapshot_counter" snap.Obs_metrics.counters);
  Alcotest.(check bool) "untouched gauges are omitted" false
    (List.mem_assoc "test.never_set_gauge" snap.Obs_metrics.gauges)

(* ---------------------------------------------------------------- *)
(* disabled mode: updates must not land *)

let test_disabled_mode_is_inert () =
  Obs.set_enabled false;
  Obs.reset ();
  let c = Obs.counter "test.disabled_counter" in
  Obs.incr c;
  Obs.add c 100;
  Alcotest.(check int) "disabled incr/add do nothing" 0 (Obs_metrics.value c);
  let before = List.length (Obs.trace_events ()) in
  let r = Obs.span "test.disabled_span" (fun () -> 17) in
  Alcotest.(check int) "disabled span is exactly f ()" 17 r;
  Alcotest.(check int) "disabled span records no event" before
    (List.length (Obs.trace_events ()))

(* ---------------------------------------------------------------- *)
(* span nesting and trace export *)

let test_span_nesting () =
  with_obs_on @@ fun () ->
  let r =
    Obs.span "outer" @@ fun () ->
    Obs.span "inner_a" (fun () -> ()) ;
    Obs.span "inner_b" (fun () -> Obs.span "leaf" (fun () -> ())) ;
    5
  in
  Alcotest.(check int) "span returns f's result" 5 r;
  let events = Obs.trace_events () in
  let depth name =
    (List.find (fun (e : Obs_trace.event) -> e.Obs_trace.name = name) events).Obs_trace.depth
  in
  Alcotest.(check int) "four spans recorded" 4 (List.length events);
  Alcotest.(check int) "outer is a root span" 0 (depth "outer");
  Alcotest.(check int) "inner_a nests once" 1 (depth "inner_a");
  Alcotest.(check int) "inner_b nests once" 1 (depth "inner_b");
  Alcotest.(check int) "leaf nests twice" 2 (depth "leaf");
  (* timestamp containment: leaf inside inner_b inside outer *)
  let ev name = List.find (fun (e : Obs_trace.event) -> e.Obs_trace.name = name) events in
  let contains (a : Obs_trace.event) (b : Obs_trace.event) =
    a.Obs_trace.ts_us <= b.Obs_trace.ts_us
    && b.Obs_trace.ts_us +. b.Obs_trace.dur_us <= a.Obs_trace.ts_us +. a.Obs_trace.dur_us +. 1e-6
  in
  Alcotest.(check bool) "outer contains leaf" true (contains (ev "outer") (ev "leaf"));
  Alcotest.(check bool) "inner_b contains leaf" true (contains (ev "inner_b") (ev "leaf"))

let test_span_exception_safety () =
  with_obs_on @@ fun () ->
  (match Obs.span "raises" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  let events = Obs.trace_events () in
  Alcotest.(check int) "span closed despite the exception" 1 (List.length events);
  Obs.span "after" (fun () -> ());
  let depth_after =
    (List.find (fun (e : Obs_trace.event) -> e.Obs_trace.name = "after") (Obs.trace_events ()))
      .Obs_trace.depth
  in
  Alcotest.(check int) "depth restored after the exception" 0 depth_after

let test_trace_json_roundtrip () =
  with_obs_on @@ fun () ->
  Obs.span "round_outer" (fun () -> Obs.span "round_inner" (fun () -> ()));
  let raw = Obs.trace_json_string () in
  match Obs_json.of_string raw with
  | Error msg -> Alcotest.fail ("trace JSON does not parse: " ^ msg)
  | Ok doc ->
    let events = jlist (jmem "traceEvents" doc) in
    (* one metadata event + two span events *)
    Alcotest.(check int) "metadata + 2 spans" 3 (List.length events);
    let phases =
      List.map (fun e -> jstr (jmem "ph" e)) events
    in
    Alcotest.(check bool) "has a metadata event" true (List.mem "M" phases);
    Alcotest.(check int) "two complete events" 2
      (List.length (List.filter (fun p -> p = "X") phases));
    let span_names =
      List.filter_map
        (fun e ->
          if jstr (jmem "ph" e) = "X" then
            Some (jstr (jmem "name" e))
          else None)
        events
    in
    Alcotest.(check bool) "inner span present" true (List.mem "round_inner" span_names);
    Alcotest.(check bool) "outer span present" true (List.mem "round_outer" span_names);
    List.iter
      (fun e ->
        if jstr (jmem "ph" e) = "X" then begin
          ignore (jfloat (jmem "ts" e));
          ignore (jfloat (jmem "dur" e));
          ignore (jint (jmem "pid" e));
          ignore (jint (jmem "tid" e))
        end)
      events

let test_trace_event_cap () =
  with_obs_on @@ fun () ->
  Obs_trace.set_max_events 5;
  Fun.protect
    ~finally:(fun () -> Obs_trace.set_max_events 1_000_000)
    (fun () ->
      for _ = 1 to 10 do
        Obs.span "capped" (fun () -> ())
      done;
      Alcotest.(check int) "buffer capped" 5 (List.length (Obs.trace_events ()));
      Alcotest.(check int) "overflow counted" 5 (Obs_trace.dropped_events ()))

(* ---------------------------------------------------------------- *)
(* the JSON codec *)

let test_json_roundtrip () =
  let doc =
    Obs_json.Obj
      [
        ("s", Obs_json.String "hello \"world\"\nline2");
        ("i", Obs_json.Int (-42));
        ("f", Obs_json.Float 1.5);
        ("b", Obs_json.Bool true);
        ("nil", Obs_json.Null);
        ("xs", Obs_json.List [ Obs_json.Int 1; Obs_json.Int 2; Obs_json.Int 3 ]);
        ("nested", Obs_json.Obj [ ("k", Obs_json.String "v") ]);
      ]
  in
  match Obs_json.of_string (Obs_json.to_string ~pretty:true doc) with
  | Error msg -> Alcotest.fail ("round-trip parse failed: " ^ msg)
  | Ok doc' ->
    Alcotest.(check string) "string field" "hello \"world\"\nline2"
      (jstr (jmem "s" doc'));
    Alcotest.(check int) "int field" (-42) (jint (jmem "i" doc'));
    Alcotest.(check (float 1e-12)) "float field" 1.5
      (jfloat (jmem "f" doc'));
    Alcotest.(check int) "list length" 3
      (List.length (jlist (jmem "xs" doc')));
    Alcotest.(check string) "nested object" "v"
      (jstr (jmem "k" (jmem "nested" doc')))

let test_json_parse_errors () =
  let bad = [ "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "1 2" ] in
  List.iter
    (fun s ->
      match Obs_json.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "expected parse error for %S" s)
      | Error _ -> ())
    bad

(* lists and objects nest at most 1,000 deep, whatever mix of them;
   the bracket that would open level 1,001 is the error's position *)
let test_json_nesting_bound () =
  let nested ~depth ~obj =
    let b = Buffer.create (8 * depth) in
    for _ = 1 to depth do
      Buffer.add_string b (if obj then {|{"k":|} else "[")
    done;
    Buffer.add_string b "0";
    for _ = 1 to depth do
      Buffer.add_char b (if obj then '}' else ']')
    done;
    Buffer.contents b
  in
  List.iter
    (fun obj ->
      let kind = if obj then "objects" else "lists" in
      (match Obs_json.of_string (nested ~depth:1000 ~obj) with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "1000 nested %s: %s" kind m);
      Alcotest.(check (result reject string))
        (Printf.sprintf "1001 nested %s" kind)
        (Error (Printf.sprintf "at %d: nesting too deep" (if obj then 5000 else 1000)))
        (Obs_json.of_string (nested ~depth:1001 ~obj)))
    [ false; true ];
  (* depth is counted back down as brackets close: 2,000 sibling lists
     each 999 deep parse *)
  let sibling = String.make 999 '[' ^ String.make 999 ']' in
  match Obs_json.of_string ("[" ^ String.concat "," (List.init 2000 (fun _ -> sibling)) ^ "]") with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "siblings: %s" m

let test_json_unicode_escapes () =
  match Obs_json.of_string {|"aé😀b"|} with
  | Error msg -> Alcotest.fail ("unicode parse failed: " ^ msg)
  | Ok v ->
    Alcotest.(check string) "BMP + surrogate pair decode to UTF-8" "a\xc3\xa9\xf0\x9f\x98\x80b"
      (jstr v)

(* Raw text is printed as given and is opaque to the accessors *)
let test_json_raw () =
  let raw = Obs_json.Raw {|[1,{"k":0.5}]|} in
  let doc = Obs_json.Obj [ ("a", raw); ("s", Obs_json.String "tab\there \"q\" \001") ] in
  Alcotest.(check string) "compact copies it" {|{"a":[1,{"k":0.5}],"s":"tab\there \"q\" \u0001"}|}
    (Obs_json.to_string doc);
  Alcotest.(check string) "pretty copies it" "{\n  \"a\": [1,{\"k\":0.5}],\n  \"s\": \"tab\\there \\\"q\\\" \\u0001\"\n}"
    (Obs_json.to_string ~pretty:true doc);
  Alcotest.(check bool) "member sees nothing inside" true (Obs_json.member "k" raw = None);
  Alcotest.(check bool) "to_list" true (Obs_json.to_list raw = None);
  Alcotest.(check bool) "to_float" true (Obs_json.to_float (Obs_json.Raw "0.5") = None);
  Alcotest.(check bool) "to_int" true (Obs_json.to_int (Obs_json.Raw "1") = None);
  Alcotest.(check bool) "to_string_val" true (Obs_json.to_string_val (Obs_json.Raw {|"s"|}) = None);
  match Obs_json.of_string (Obs_json.to_string doc) with
  | Ok (Obs_json.Obj [ ("a", Obs_json.List [ Obs_json.Int 1; Obs_json.Obj [ ("k", Obs_json.Float 0.5) ] ]); ("s", _) ]) -> ()
  | Ok _ -> Alcotest.fail "the parser rebuilt the Raw text as something else"
  | Error msg -> Alcotest.fail ("Raw output does not parse: " ^ msg)

(* ---------------------------------------------------------------- *)
(* instrumented solvers feed the registry *)

let test_solver_counters_populate () =
  with_obs_on @@ fun () ->
  let inst = Instance.figure1 in
  ignore (Incmerge.solve Power_model.cube ~energy:12.0 inst);
  let snap = Obs.snapshot () in
  let get name = try List.assoc name snap.Obs_metrics.counters with Not_found -> 0 in
  Alcotest.(check bool) "incmerge.jobs_processed > 0" true (get "incmerge.jobs_processed" > 0);
  Alcotest.(check bool) "schedule.entries_built > 0" true (get "schedule.entries_built" > 0)

let test_report_renders () =
  with_obs_on @@ fun () ->
  let c = Obs.counter "test.report_counter" in
  Obs.add c 9;
  Obs.span "test.report_span" (fun () -> ());
  let report = Obs.metrics_report () in
  let mem needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report lists the counter" true (mem "test.report_counter" report);
  Alcotest.(check bool) "report lists the span" true (mem "test.report_span" report)

(* ---------------------------------------------------------------- *)
(* the float writer: byte for byte the two-Printf definition it
   replaced, kept here as the reference *)

let reference_float_to_string f =
  if Float.is_nan f then "null"
  else if f = Float.infinity then "1e999"
  else if f = Float.neg_infinity then "-1e999"
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let check_float_bytes f =
  let want = reference_float_to_string f in
  let got = Obs_json.float_to_string f in
  if got <> want then Alcotest.failf "float_to_string %h = %s, expected %s" f got want

let test_float_writer_edges () =
  let around x = [ x; Float.succ x; Float.pred x; -.x; Float.succ (Float.succ x); Float.pred (Float.pred x) ] in
  let scaled m = List.concat_map (fun k -> around (float_of_string (Printf.sprintf "%se%d" m k))) (List.init 41 (fun k -> (k * 15) - 300)) in
  List.iter check_float_bytes
    (List.concat
       [
         [ 0.0; -0.0; 5e-324; Int64.float_of_bits 0x000FFFFFFFFFFFFFL; Float.min_float; Float.max_float ];
         [ 0.1; 1234567890125.0; Float.nan; Float.infinity; Float.neg_infinity ];
         List.concat_map around [ 1e-5; 1e-4; 1e11; 1e12; 1e16; 1e17 ];
         scaled "9.9999999999995";
         scaled "1.0000000000005";
       ]);
  Alcotest.(check string) "0.1 prints short" "0.1" (Obs_json.float_to_string 0.1);
  Alcotest.(check string) "1e15 switches notation" "1e+15" (Obs_json.float_to_string 1e15)

let test_float_writer_random () =
  let rng = Random.State.make [| 20 |] in
  for _ = 1 to 40_000 do
    (* any bit pattern: normals, subnormals, NaNs, infinities *)
    check_float_bytes (Int64.float_of_bits (Random.State.bits64 rng));
    (* a subnormal with 1 to 52 significant bits: the small ones carry
       half an ulp far wider than the 17th digit *)
    let bits = 1 + Random.State.int rng 52 in
    let mantissa = Int64.shift_right_logical (Random.State.bits64 rng) (64 - bits) in
    check_float_bytes (Int64.float_of_bits mantissa);
    (* a short decimal scaled by up to 1e±20 *)
    let digits = Random.State.int rng 1_000_000_000 in
    let decimal = float_of_string (Printf.sprintf "%d.%de%d" digits (Random.State.int rng 1000) (Random.State.int rng 41 - 20)) in
    check_float_bytes decimal;
    check_float_bytes (Float.succ decimal)
  done

(* The integer path covers normal |x| in [1e-4, 1e16).  Its hard cases:
   exact ties at the 17th and 12th digit, the window's edges and every
   power of ten between them, and the floats next to a 12-digit
   decimal, which it hands back to the definition *)
let test_float_writer_window () =
  let rng = Random.State.make [| 23 |] in
  let both x =
    check_float_bytes x;
    check_float_bytes (-.x)
  in
  let with_ulps n x =
    both x;
    let up = ref x and down = ref x in
    for _ = 1 to n do
      up := Float.succ !up;
      down := Float.pred !down;
      both !up;
      both !down
    done
  in
  check_float_bytes 0.0;
  check_float_bytes (-0.0);
  Alcotest.(check string) "-0 prints its sign" "-0" (Obs_json.float_to_string (-0.0));
  (* every power of ten from 1e-5 to 1e17: both edges from both sides *)
  for k = -5 to 17 do
    with_ulps 50 (float_of_string (Printf.sprintf "1e%d" k))
  done;
  (* x = j / 2^(q+1) with j odd has x 10^q = j 5^q / 2: a tie at the
     [digits]-th significant digit when that is in [10^(digits-1),
     10^digits) *)
  let ties ~digits =
    let p10 = int_of_float (10.0 ** float_of_int (digits - 1)) in
    for q = Int.max 0 (digits - 16) to digits + 3 do
      let p5 = int_of_float (5.0 ** float_of_int q) in
      let lo = ((2 * p10) + p5 - 1) / p5 and hi = Int.min (20 * p10 / p5) (1 lsl 53) in
      for _ = 1 to 400 do
        let j = (lo + Random.State.full_int rng (hi - lo)) lor 1 in
        if j < hi then both (Float.ldexp (float_of_int j) (-(q + 1)))
      done
    done
  in
  ties ~digits:17;
  ties ~digits:12;
  (* next to 12-digit decimals, and the values below a decade that
     round up to it at 12 digits *)
  for _ = 1 to 2_000 do
    let d =
      float_of_string
        (Printf.sprintf "%d.%011Lde%d" (1 + Random.State.int rng 9)
           (Random.State.int64 rng 100_000_000_000L)
           (Random.State.int rng 21 - 4))
    in
    with_ulps 3 d
  done;
  for k = -4 to 15 do
    for d = 0 to 9 do
      both (float_of_string (Printf.sprintf "9.99999999999%de%d" d k))
    done
  done;
  (* seeded in-window floats: uniform, log-uniform, three decimals *)
  for i = 1 to 34_000 do
    let check = if i mod 10 = 0 then both else check_float_bytes in
    check (Random.State.float rng 1000.0);
    check (10.0 ** (Random.State.float rng 20.0 -. 4.0));
    check (float_of_string (Printf.sprintf "%d.%03d" (Random.State.int rng 100_000) (Random.State.int rng 1000)))
  done

(* the integer path writes straight into the buffer: no string, no
   box.  The few floats next to a 12-digit decimal take the definition
   and allocate its strings, about 50 words on this list *)
let test_float_writer_allocation () =
  let rng = Random.State.make [| 24 |] in
  let doc = Obs_json.List (List.init 10_000 (fun _ -> Obs_json.Float (10.0 ** (Random.State.float rng 20.0 -. 4.0)))) in
  let buf = Buffer.create (10_000 * 32) in
  Obs_json.write buf doc;
  Buffer.clear buf;
  let w0 = Gc.minor_words () in
  Obs_json.write buf doc;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "writing 10,000 floats allocates %.0f minor words (< 64)" words)
    true (words < 64.0)

(* ---------------------------------------------------------------- *)
(* integration: the real binary's --trace output parses *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_cli_trace_integration () =
  (* under `dune runtest` the cwd is _build/default/test (the CLI is a
     declared dep); under `dune exec` it is the project root *)
  let exe =
    let candidates =
      [
        Filename.concat Filename.parent_dir_name "bin/pasched.exe";
        Filename.concat "_build/default/bin" "pasched.exe";
      ]
    in
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None -> Alcotest.fail "pasched.exe not found next to the test"
  in
  let out = Filename.temp_file "pasched_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let cmd =
        Printf.sprintf "%s simulate --trace %s > %s 2> %s" (Filename.quote exe)
          (Filename.quote out) Filename.null Filename.null
      in
      Alcotest.(check int) "pasched simulate --trace exits 0" 0 (Sys.command cmd);
      match Obs_json.of_string (read_file out) with
      | Error msg -> Alcotest.fail ("CLI trace does not parse: " ^ msg)
      | Ok doc ->
        let events = jlist (jmem "traceEvents" doc) in
        let span_names =
          List.filter_map
            (fun e ->
              if jstr (jmem "ph" e) = "X" then
                Some (jstr (jmem "name" e))
              else None)
            events
        in
        let module_of name =
          match String.index_opt name '.' with
          | Some i -> String.sub name 0 i
          | None -> name
        in
        let modules = List.sort_uniq compare (List.map module_of span_names) in
        Alcotest.(check bool)
          (Printf.sprintf "spans from >= 3 modules (got: %s)" (String.concat ", " modules))
          true
          (List.length modules >= 3);
        let depths =
          List.filter_map
            (fun e ->
              if jstr (jmem "ph" e) = "X" then
                Some (jint (jmem "depth" (jmem "args" e)))
              else None)
            events
        in
        Alcotest.(check bool) "trace contains nested spans" true
          (List.exists (fun d -> d > 0) depths))

(* ---- the number step ---- *)

external format_float : string -> float -> string = "caml_format_float"

let bits_eq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* the tree parser's number before the cursor, for a text it scanned *)
let reference_number text =
  if String.exists (function '.' | 'e' | 'E' -> true | _ -> false) text then
    Obs_json.Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Obs_json.Int i
    | None -> Obs_json.Float (float_of_string text)

let numbers_checked = ref 0

(* [text] reads as [reference_number] does, bit for bit and with the
   same Int/Float split, and [float_into] stores its float *)
let check_number dst text =
  incr numbers_checked;
  let expected = reference_number text in
  (match (Obs_json.of_string text, expected) with
  | Ok (Obs_json.Int a), Obs_json.Int b when a = b -> ()
  | Ok (Obs_json.Float a), Obs_json.Float b when bits_eq a b -> ()
  | Ok v, _ -> Alcotest.failf "%S reads as %s, not %s" text (Obs_json.to_string v) (Obs_json.to_string expected)
  | Error e, _ -> Alcotest.failf "%S: %s" text e);
  match Obs_json.parse_with text (fun c -> Obs_json.float_into c dst 0) with
  | Ok true when bits_eq dst.(0) (Option.get (Obs_json.to_float expected)) -> ()
  | _ -> Alcotest.failf "float_into %S" text

(* over a million numbers: the whole exponent range, subnormals and
   extremes, the request ranges, integers around 2^53 and 2^62, long
   mantissas and the quirk forms *)
let test_number_sweep () =
  let rng = Random.State.make [| 28 |] and dst = [| 0.0 |] in
  let check = check_number dst in
  let digits k =
    String.init k (fun i -> Char.chr (if i = 0 then 49 + Random.State.int rng 9 else 48 + Random.State.int rng 10))
  in
  let render x = List.iter (fun f -> check (format_float f x)) [ "%.17g"; "%.15g"; "%.3e" ] in
  List.iter render
    [
      Float.max_float; Float.min_float; Float.succ 0.0; Float.pred Float.min_float;
      Float.pred Float.max_float; Float.epsilon; 1.0; 0.1; 0.0; -0.0;
    ];
  for _ = 1 to 200_000 do
    let x = Int64.float_of_bits (Random.State.bits64 rng) in
    if Float.is_finite x then render x
  done;
  for _ = 1 to 20_000 do
    render (Int64.float_of_bits (Int64.logand (Random.State.bits64 rng) 0x800F_FFFF_FFFF_FFFFL))
  done;
  for _ = 1 to 100_000 do
    let x = Random.State.float rng 1000.0 in
    check (format_float "%.17g" x);
    check (format_float "%.6g" x)
  done;
  for k = -1000 to 1000 do
    List.iter
      (fun base ->
        let v = Int64.add base (Int64.of_int k) in
        check (Int64.to_string v);
        check (Int64.to_string (Int64.neg v)))
      [ 0x20_0000_0000_0000L; 0x4000_0000_0000_0000L ]
  done;
  for _ = 1 to 60_000 do
    let d = digits (20 + Random.State.int rng 21) in
    let point = Random.State.int rng (String.length d + 1) in
    let d = String.sub d 0 point ^ "." ^ String.sub d point (String.length d - point) in
    check d;
    check (d ^ "e" ^ string_of_int (Random.State.int rng 700 - 350));
    check (String.sub d 0 (Int.min 20 (String.length d)) ^ String.make (Random.State.int rng 30) '0')
  done;
  List.iter check [ "1."; ".5"; "01"; "-0"; "1E5"; "-0.0"; "-.5"; "00.5e+3"; "1E-5"; "0e999999999999" ];
  for _ = 1 to 40_000 do
    let d = digits (1 + Random.State.int rng 19) in
    check (d ^ ".");
    check ("." ^ d);
    check ("-0" ^ d);
    check (d ^ "E" ^ string_of_int (Random.State.int rng 40))
  done;
  if !numbers_checked < 1_000_000 then Alcotest.failf "only %d numbers checked" !numbers_checked

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter arithmetic" `Quick test_counter_arithmetic;
          Alcotest.test_case "counter reset" `Quick test_counter_reset;
          Alcotest.test_case "gauge and histogram" `Quick test_gauge_and_histogram;
          Alcotest.test_case "snapshot contents" `Quick test_snapshot_contents;
          Alcotest.test_case "disabled mode is inert" `Quick test_disabled_mode_is_inert;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
          Alcotest.test_case "trace JSON round-trip" `Quick test_trace_json_roundtrip;
          Alcotest.test_case "event buffer cap" `Quick test_trace_event_cap;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "nesting bound" `Quick test_json_nesting_bound;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "float writer edges" `Quick test_float_writer_edges;
          Alcotest.test_case "float writer random" `Quick test_float_writer_random;
          Alcotest.test_case "float writer window" `Quick test_float_writer_window;
          Alcotest.test_case "float writer allocation" `Quick test_float_writer_allocation;
          Alcotest.test_case "raw text" `Quick test_json_raw;
          Alcotest.test_case "number sweep" `Quick test_number_sweep;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "solver counters populate" `Quick test_solver_counters_populate;
          Alcotest.test_case "report renders" `Quick test_report_renders;
        ] );
      ( "cli",
        [ Alcotest.test_case "--trace output parses" `Quick test_cli_trace_integration ] );
    ]
