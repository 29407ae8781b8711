(* Unit and property tests for the substrate libraries: power models,
   discrete levels, the scheduling model, workload generators, the event
   queue, the processor, and the online driver. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))
let checkf6 = Alcotest.(check (float 1e-6))

let cube = Power_model.cube

(* ---------- Power_model ---------- *)

let test_power_alpha () =
  checkf "power" 8.0 (Power_model.power cube 2.0);
  checkf "deriv" 12.0 (Power_model.deriv cube 2.0);
  checkf "energy_run w=3 s=2" 12.0 (Power_model.energy_run cube ~work:3.0 ~speed:2.0);
  checkf "energy_in_time" 24.0 (Power_model.energy_in_time cube ~work:6.0 ~duration:3.0);
  checkf "zero work free" 0.0 (Power_model.energy_run cube ~work:0.0 ~speed:5.0);
  Alcotest.check_raises "alpha <= 1 rejected" (Invalid_argument "Power_model.alpha: need alpha > 1")
    (fun () -> ignore (Power_model.alpha 1.0))

let test_power_inverse () =
  (* speed_for_energy inverts energy_run *)
  List.iter
    (fun (w, e) ->
      let s = Power_model.speed_for_energy cube ~work:w ~energy:e in
      checkf6 "inverse" e (Power_model.energy_run cube ~work:w ~speed:s))
    [ (1.0, 4.0); (3.0, 10.0); (0.5, 0.25) ]

let test_power_custom_numeric_deriv () =
  let m = Power_model.custom (fun s -> s ** 2.5) in
  check_bool "numeric derivative close" true
    (Float.abs (Power_model.deriv m 2.0 -. (2.5 *. (2.0 ** 1.5))) < 1e-4)

let prop_power_convexity =
  QCheck.Test.make ~count:100 ~name:"alpha models strictly convex"
    QCheck.(float_range 1.1 5.0)
    (fun a -> Power_model.is_strictly_convex (Power_model.alpha a))

let prop_speed_for_energy_monotone =
  QCheck.Test.make ~count:100 ~name:"speed_for_energy increasing in energy"
    QCheck.(triple (float_range 0.5 5.0) (float_range 0.5 20.0) (float_range 1.05 2.0))
    (fun (w, e, k) ->
      Power_model.speed_for_energy cube ~work:w ~energy:(e *. k)
      > Power_model.speed_for_energy cube ~work:w ~energy:e)

(* ---------- Discrete_levels ---------- *)

let test_levels_basics () =
  let l = Discrete_levels.create [ 2.0; 0.8; 1.8; 1.8 ] in
  Alcotest.(check (array (float 1e-12))) "sorted unique" [| 0.8; 1.8; 2.0 |] (Discrete_levels.levels l);
  checkf "min" 0.8 (Discrete_levels.min_speed l);
  checkf "max" 2.0 (Discrete_levels.max_speed l);
  Alcotest.(check (option (float 1e-12))) "round_up 1.0" (Some 1.8) (Discrete_levels.round_up l 1.0);
  Alcotest.(check (option (float 1e-12))) "round_down 1.0" (Some 0.8) (Discrete_levels.round_down l 1.0);
  Alcotest.(check (option (float 1e-12))) "round_up 2.5" None (Discrete_levels.round_up l 2.5);
  Alcotest.(check (option (float 1e-12))) "round_down 0.5" None (Discrete_levels.round_down l 0.5)

let test_two_level_split () =
  let l = Discrete_levels.athlon64 in
  match Discrete_levels.two_level_split l ~work:1.5 ~duration:1.0 with
  | None -> Alcotest.fail "split expected"
  | Some s ->
    checkf6 "work conserved" 1.5
      ((s.Discrete_levels.low_speed *. s.Discrete_levels.low_time)
      +. (s.Discrete_levels.high_speed *. s.Discrete_levels.high_time));
    checkf6 "duration conserved" 1.0 (s.Discrete_levels.low_time +. s.Discrete_levels.high_time);
    check_bool "times non-negative" true (s.Discrete_levels.low_time >= 0.0 && s.Discrete_levels.high_time >= 0.0)

let prop_split_energy_above_continuous =
  (* two-level emulation is never cheaper than the continuous optimum *)
  QCheck.Test.make ~count:200 ~name:"two-level emulation costs extra energy"
    QCheck.(pair (float_range 0.81 1.99) (float_range 0.3 3.0))
    (fun (speed, duration) ->
      let work = speed *. duration in
      match Discrete_levels.quantization_overhead cube Discrete_levels.athlon64 ~work ~duration with
      | None -> false
      | Some overhead -> overhead >= -1e-9)

let test_exact_level_no_overhead () =
  match Discrete_levels.quantization_overhead cube Discrete_levels.athlon64 ~work:1.8 ~duration:1.0 with
  | Some o -> checkf6 "exact level free" 0.0 o
  | None -> Alcotest.fail "expected overhead result"

(* ---------- Energy helpers ---------- *)

let test_energy_segments () =
  checkf "segments" ((2.0 *. 8.0) +. (1.0 *. 1.0)) (Energy.of_segments cube [ (2.0, 2.0); (1.0, 1.0) ]);
  check_bool "lemma 2 averaging" true (Energy.average_speed_saves cube [ (1.0, 3.0); (1.0, 1.0) ])

(* ---------- Job / Instance ---------- *)

let test_job_validation () =
  Alcotest.check_raises "negative release" (Invalid_argument "Job.make: release must be finite and non-negative")
    (fun () -> ignore (Job.make ~id:0 ~release:(-1.0) ~work:1.0));
  Alcotest.check_raises "zero work" (Invalid_argument "Job.make: work must be finite and positive")
    (fun () -> ignore (Job.make ~id:0 ~release:0.0 ~work:0.0))

let test_instance_sorted () =
  let inst = Instance.of_pairs [ (5.0, 1.0); (1.0, 2.0); (3.0, 3.0) ] in
  let rs = Array.to_list (Array.map (fun (j : Job.t) -> j.Job.release) (Instance.jobs inst)) in
  Alcotest.(check (list (float 1e-12))) "sorted" [ 1.0; 3.0; 5.0 ] rs;
  checkf "total work" 6.0 (Instance.total_work inst);
  checkf "first release" 1.0 (Instance.first_release inst);
  checkf "last release" 5.0 (Instance.last_release inst);
  check_bool "not equal work" false (Instance.is_equal_work inst);
  check_bool "not common release" false (Instance.has_common_release inst);
  (* a reversed list, with release ties broken by id, comes back in
     (release, id) order *)
  let jobs = List.init 9 (fun i -> Job.make ~id:(10 * i) ~release:(float_of_int (i / 3)) ~work:1.0) in
  let back = Array.to_list (Array.map (fun (j : Job.t) -> j.Job.id) (Instance.jobs (Instance.create (List.rev jobs)))) in
  Alcotest.(check (list int)) "reversed input sorted" (List.map (fun (j : Job.t) -> j.Job.id) jobs) back

let test_instance_duplicate_ids () =
  let dup = Invalid_argument "Instance.create: duplicate job id" in
  Alcotest.check_raises "duplicate ids" dup (fun () ->
      ignore
        (Instance.create
           [ Job.make ~id:1 ~release:0.0 ~work:1.0; Job.make ~id:1 ~release:1.0 ~work:1.0 ]));
  (* unsorted input *)
  List.iter
    (fun ids ->
      Alcotest.check_raises "duplicate ids in unsorted input" dup (fun () ->
          ignore
            (Instance.create
               (List.mapi (fun i id -> Job.make ~id ~release:(float_of_int (10 - i)) ~work:1.0) ids))))
    [ [ 2; 0; 1; 0 ]; [ 7; -3; 12; 7 ]; [ 3; 1; 2; 3 ] ];
  (* the first bad job in list order names the error *)
  let bad = { Job.id = 5; release = -1.0; work = 1.0 } in
  Alcotest.check_raises "duplicate before an invalid job" dup (fun () ->
      ignore (Instance.create [ Job.make ~id:5 ~release:2.0 ~work:1.0; Job.make ~id:5 ~release:1.0 ~work:1.0; bad ]));
  Alcotest.check_raises "invalid job before a duplicate"
    (Invalid_argument "Job.make: release must be finite and non-negative") (fun () ->
      ignore (Instance.create [ Job.make ~id:50 ~release:2.0 ~work:1.0; bad; Job.make ~id:50 ~release:1.0 ~work:1.0 ]))

let test_builtin_instances () =
  check_int "figure1 size" 3 (Instance.n Instance.figure1);
  check_bool "theorem8 equal work" true (Instance.is_equal_work Instance.theorem8);
  check_int "of_works common release" 1
    (if Instance.has_common_release (Instance.of_works [ 1.0; 2.0 ]) then 1 else 0)

(* ---------- Speed_profile ---------- *)

let test_profile_basics () =
  let p =
    Speed_profile.of_segments
      [ { Speed_profile.t0 = 2.0; t1 = 3.0; speed = 1.0 }; { Speed_profile.t0 = 0.0; t1 = 2.0; speed = 2.0 } ]
  in
  checkf "work" 5.0 (Speed_profile.work p);
  checkf "duration" 3.0 (Speed_profile.duration p);
  checkf "work window" 2.5 (Speed_profile.work_between p 1.0 2.5);
  checkf "speed at" 2.0 (Speed_profile.speed_at p 1.0);
  checkf "speed outside" 0.0 (Speed_profile.speed_at p 9.0);
  checkf "energy" ((2.0 *. 8.0) +. 1.0) (Speed_profile.energy cube p);
  (match Speed_profile.span p with
  | Some (a, b) ->
    checkf "span lo" 0.0 a;
    checkf "span hi" 3.0 b
  | None -> Alcotest.fail "span expected")

let test_profile_overlap_rejected () =
  Alcotest.check_raises "overlap" (Invalid_argument "Speed_profile: overlapping segments")
    (fun () ->
      ignore
        (Speed_profile.of_segments
           [ { Speed_profile.t0 = 0.0; t1 = 2.0; speed = 1.0 }; { Speed_profile.t0 = 1.0; t1 = 3.0; speed = 1.0 } ]))

let test_profile_append () =
  let p = Speed_profile.of_segments [ { Speed_profile.t0 = 0.0; t1 = 1.0; speed = 1.0 } ] in
  let p2 = Speed_profile.append p { Speed_profile.t0 = 1.5; t1 = 2.0; speed = 2.0 } in
  checkf "appended work" 2.0 (Speed_profile.work p2);
  Alcotest.check_raises "append before end"
    (Invalid_argument "Speed_profile.append: segment starts before current end") (fun () ->
      ignore (Speed_profile.append p2 { Speed_profile.t0 = 0.5; t1 = 3.0; speed = 1.0 }))

(* ---------- Schedule / Metrics / Validate ---------- *)

let mk_sched () =
  let j0 = Job.make ~id:0 ~release:0.0 ~work:2.0 in
  let j1 = Job.make ~id:1 ~release:1.0 ~work:1.0 in
  Schedule.of_entries
    [
      { Schedule.job = j0; proc = 0; start = 0.0; speed = 1.0 };
      { Schedule.job = j1; proc = 1; start = 1.0; speed = 2.0 };
    ]

let test_schedule_accessors () =
  let s = mk_sched () in
  check_int "jobs" 2 (Schedule.n_jobs s);
  check_int "procs" 2 (Schedule.n_procs s);
  checkf "makespan" 2.0 (Metrics.makespan s);
  checkf "flow" 2.5 (Metrics.total_flow s);
  checkf "max flow" 2.0 (Metrics.max_flow s);
  checkf "total completion" 3.5 (Metrics.total_completion s);
  checkf "weighted" ((2.0 *. 2.0) +. (3.0 *. 0.5))
    (Metrics.weighted_flow ~weights:(fun id -> if id = 0 then 2.0 else 3.0) s);
  checkf "energy" ((2.0 *. 1.0) +. (1.0 *. 4.0)) (Schedule.energy cube s);
  (match Schedule.find s 1 with
  | Some e -> checkf "completion" 1.5 (Schedule.completion e)
  | None -> Alcotest.fail "job 1 expected")

let test_validate_catches_violations () =
  let inst = Instance.of_pairs [ (0.0, 2.0); (1.0, 1.0) ] in
  let j0 = Instance.job inst 0 and j1 = Instance.job inst 1 in
  (* overlap on one processor *)
  let bad =
    Schedule.of_entries
      [
        { Schedule.job = j0; proc = 0; start = 0.0; speed = 1.0 };
        { Schedule.job = j1; proc = 0; start = 1.0; speed = 1.0 };
      ]
  in
  (match Validate.check inst bad with
  | Ok () -> Alcotest.fail "expected overlap violation"
  | Error vs ->
    check_bool "overlap reported" true
      (List.exists (function Validate.Overlap _ -> true | _ -> false) vs));
  (* missing job *)
  let partial = Schedule.of_entries [ { Schedule.job = j0; proc = 0; start = 0.0; speed = 1.0 } ] in
  (match Validate.check inst partial with
  | Ok () -> Alcotest.fail "expected missing-job violation"
  | Error vs ->
    check_bool "missing reported" true
      (List.exists (function Validate.Missing_job 1 -> true | _ -> false) vs));
  (* budget violation *)
  let fine = Incmerge.solve cube ~energy:10.0 inst in
  (match Validate.check_with_budget cube ~budget:5.0 inst fine with
  | Ok () -> Alcotest.fail "expected budget violation"
  | Error vs ->
    check_bool "budget reported" true
      (List.exists (function Validate.Exceeds_budget _ -> true | _ -> false) vs))

(* ---------- Validate: one test per violation constructor ---------- *)

let has pred vs = List.exists pred vs
let expect_error what = function
  | Ok () -> Alcotest.failf "expected %s violation" what
  | Error vs -> vs

let validate_inst () = Instance.of_pairs [ (0.0, 2.0); (1.0, 1.0) ]

let test_violation_missing () =
  let inst = validate_inst () in
  let s = Schedule.of_entries [ { Schedule.job = Instance.job inst 0; proc = 0; start = 0.0; speed = 1.0 } ] in
  check_bool "Missing_job 1" true
    (has (function Validate.Missing_job 1 -> true | _ -> false) (expect_error "missing" (Validate.check inst s)))

let test_violation_unknown () =
  let inst = validate_inst () in
  let stranger = Job.make ~id:9 ~release:0.0 ~work:1.0 in
  let s =
    Schedule.of_entries
      [
        { Schedule.job = Instance.job inst 0; proc = 0; start = 0.0; speed = 1.0 };
        { Schedule.job = Instance.job inst 1; proc = 1; start = 1.0; speed = 1.0 };
        { Schedule.job = stranger; proc = 2; start = 0.0; speed = 1.0 };
      ]
  in
  check_bool "Unknown_job 9" true
    (has (function Validate.Unknown_job 9 -> true | _ -> false) (expect_error "unknown" (Validate.check inst s)));
  (* same id as an instance job but different data is also unknown *)
  let imposter = Job.make ~id:1 ~release:0.0 ~work:5.0 in
  let s2 =
    Schedule.of_entries
      [
        { Schedule.job = Instance.job inst 0; proc = 0; start = 0.0; speed = 1.0 };
        { Schedule.job = imposter; proc = 1; start = 0.0; speed = 1.0 };
      ]
  in
  check_bool "imposter job 1" true
    (has (function Validate.Unknown_job 1 -> true | _ -> false) (expect_error "unknown" (Validate.check inst s2)))

let test_violation_duplicate () =
  let inst = validate_inst () in
  let j0 = Instance.job inst 0 and j1 = Instance.job inst 1 in
  let s =
    Schedule.of_entries
      [
        { Schedule.job = j0; proc = 0; start = 0.0; speed = 1.0 };
        { Schedule.job = j1; proc = 1; start = 1.0; speed = 1.0 };
        { Schedule.job = j1; proc = 2; start = 1.0; speed = 1.0 };
      ]
  in
  check_bool "Duplicate_job 1" true
    (has (function Validate.Duplicate_job 1 -> true | _ -> false) (expect_error "duplicate" (Validate.check inst s)))

let test_violation_starts_before_release () =
  (* Schedule.of_entries enforces start >= release with the same 1e-9
     tolerance, so this violation is defense in depth: unreachable
     through the public constructors (Job.equal is structural, so a
     mismatched release reports Unknown_job instead).  Pin down both
     the constructor-level guarantee and the rendering. *)
  let j = Job.make ~id:0 ~release:2.0 ~work:1.0 in
  Alcotest.check_raises "constructor rejects early starts"
    (Invalid_argument "Schedule.of_entries: job starts before its release") (fun () ->
      ignore (Schedule.of_entries [ { Schedule.job = j; proc = 0; start = 0.0; speed = 1.0 } ]));
  Alcotest.(check string) "to_string" "job 3 starts before its release time"
    (Validate.to_string (Validate.Starts_before_release 3))

let test_violation_overlap () =
  let inst = validate_inst () in
  let s =
    Schedule.of_entries
      [
        { Schedule.job = Instance.job inst 0; proc = 0; start = 0.0; speed = 1.0 };
        { Schedule.job = Instance.job inst 1; proc = 0; start = 1.0; speed = 1.0 };
      ]
  in
  check_bool "Overlap on proc 0" true
    (has
       (function Validate.Overlap { proc = 0; job_a = 0; job_b = 1 } -> true | _ -> false)
       (expect_error "overlap" (Validate.check inst s)))

let test_violation_exceeds_budget () =
  let inst = validate_inst () in
  let s = Incmerge.solve cube ~energy:10.0 inst in
  check_bool "Exceeds_budget" true
    (has
       (function Validate.Exceeds_budget { budget = 5.0; _ } -> true | _ -> false)
       (expect_error "budget" (Validate.check_with_budget cube ~budget:5.0 inst s)))

let test_violation_nonfinite_entry () =
  let inst = validate_inst () in
  (* NaN start passes every ordering comparison in Schedule.of_entries,
     so it really can reach the validator *)
  let s =
    Schedule.of_entries
      [
        { Schedule.job = Instance.job inst 0; proc = 0; start = Float.nan; speed = 1.0 };
        { Schedule.job = Instance.job inst 1; proc = 1; start = 1.0; speed = 1.0 };
      ]
  in
  check_bool "Nonfinite_entry start" true
    (has
       (function Validate.Nonfinite_entry { job = 0; field = "start" } -> true | _ -> false)
       (expect_error "nonfinite" (Validate.check inst s)));
  let s2 =
    Schedule.of_entries
      [
        { Schedule.job = Instance.job inst 0; proc = 0; start = Float.infinity; speed = 1.0 };
        { Schedule.job = Instance.job inst 1; proc = 1; start = 1.0; speed = 1.0 };
      ]
  in
  check_bool "Nonfinite_entry infinite start" true
    (has
       (function Validate.Nonfinite_entry { job = 0; _ } -> true | _ -> false)
       (expect_error "nonfinite" (Validate.check inst s2)))

let test_violation_nonfinite_budget () =
  (* a NaN energy must not slip past the budget check: nan > budget is
     false, so the comparison alone would accept it *)
  let inst = validate_inst () in
  let nan_power = Power_model.custom ~name:"nan" (fun s -> s *. Float.nan) in
  let s =
    Schedule.of_entries
      [
        { Schedule.job = Instance.job inst 0; proc = 0; start = 0.0; speed = 1.0 };
        { Schedule.job = Instance.job inst 1; proc = 1; start = 1.0; speed = 1.0 };
      ]
  in
  check_bool "NaN energy rejected" true
    (has
       (function Validate.Exceeds_budget _ -> true | _ -> false)
       (expect_error "nan budget" (Validate.check_with_budget nan_power ~budget:100.0 inst s)))

(* ---------- Workload ---------- *)

let test_workload_deterministic () =
  let a = Workload.equal_work ~seed:3 ~n:10 ~work:1.0 (Workload.Poisson 1.0) in
  let b = Workload.equal_work ~seed:3 ~n:10 ~work:1.0 (Workload.Poisson 1.0) in
  check_bool "same seed same instance" true
    (Array.for_all2 Job.equal (Instance.jobs a) (Instance.jobs b));
  let c = Workload.equal_work ~seed:4 ~n:10 ~work:1.0 (Workload.Poisson 1.0) in
  check_bool "different seed differs" false
    (Array.for_all2 Job.equal (Instance.jobs a) (Instance.jobs c))

let test_workload_shapes () =
  let imm = Workload.releases ~seed:1 Workload.Immediate 5 in
  check_bool "immediate all zero" true (Array.for_all (fun r -> r = 0.0) imm);
  let stair = Workload.releases ~seed:1 (Workload.Staircase 2.0) 4 in
  Alcotest.(check (array (float 1e-12))) "staircase" [| 0.0; 2.0; 4.0; 6.0 |] stair;
  let heavy = Workload.heavy_tailed ~seed:1 ~n:50 ~shape:1.1 ~scale:1.0 (Workload.Immediate) in
  check_bool "pareto works >= scale" true
    (Array.for_all (fun (j : Job.t) -> j.Job.work >= 1.0 -. 1e-9) (Instance.jobs heavy));
  let triples = Workload.deadline_jobs ~seed:1 ~n:20 ~work:(1.0, 2.0) ~slack:(0.5, 1.0) (Workload.Poisson 1.0) in
  check_bool "deadlines after releases" true (List.for_all (fun (r, d, _) -> d > r) triples)

let all_arrivals =
  [
    ("immediate", Workload.Immediate);
    ("poisson", Workload.Poisson 1.3);
    ("uniform", Workload.Uniform_span 8.0);
    ("bursty", Workload.Bursty { bursts = 3; span = 9.0; jitter = 0.4 });
    ("staircase", Workload.Staircase 0.7);
  ]

let test_releases_all_patterns () =
  List.iter
    (fun (name, arr) ->
      let a = Workload.releases ~seed:11 arr 25 in
      let b = Workload.releases ~seed:11 arr 25 in
      check_bool (name ^ " deterministic in seed") true (a = b);
      let sorted = ref true in
      Array.iteri (fun i r -> if i > 0 && r < a.(i - 1) then sorted := false) a;
      check_bool (name ^ " sorted increasing") true !sorted;
      check_bool (name ^ " non-negative") true (Array.for_all (fun r -> r >= 0.0) a))
    all_arrivals

let test_generators_deterministic_all_patterns () =
  let same_inst a b = Array.for_all2 Job.equal (Instance.jobs a) (Instance.jobs b) in
  List.iter
    (fun (name, arr) ->
      check_bool (name ^ " equal_work") true
        (same_inst (Workload.equal_work ~seed:5 ~n:12 ~work:1.5 arr)
           (Workload.equal_work ~seed:5 ~n:12 ~work:1.5 arr));
      check_bool (name ^ " uniform_work") true
        (same_inst (Workload.uniform_work ~seed:5 ~n:12 ~lo:0.5 ~hi:2.0 arr)
           (Workload.uniform_work ~seed:5 ~n:12 ~lo:0.5 ~hi:2.0 arr));
      check_bool (name ^ " heavy_tailed") true
        (same_inst (Workload.heavy_tailed ~seed:5 ~n:12 ~shape:2.0 ~scale:1.0 arr)
           (Workload.heavy_tailed ~seed:5 ~n:12 ~shape:2.0 ~scale:1.0 arr));
      check_bool (name ^ " deadline_jobs") true
        (Workload.deadline_jobs ~seed:5 ~n:12 ~work:(0.5, 2.0) ~slack:(0.5, 2.0) arr
        = Workload.deadline_jobs ~seed:5 ~n:12 ~work:(0.5, 2.0) ~slack:(0.5, 2.0) arr))
    all_arrivals;
  check_bool "partition_style" true
    (same_inst
       (Workload.partition_style ~seed:5 ~n:12 ~max_value:9)
       (Workload.partition_style ~seed:5 ~n:12 ~max_value:9))

let prop_workload_sorted =
  QCheck.Test.make ~count:100 ~name:"generated instances are sorted by release"
    QCheck.(pair (int_range 0 1000) (int_range 1 40))
    (fun (seed, n) ->
      let inst = Workload.uniform_work ~seed ~n ~lo:0.5 ~hi:2.0 (Workload.Uniform_span 10.0) in
      let jobs = Instance.jobs inst in
      let ok = ref true in
      for i = 0 to Instance.n inst - 2 do
        if jobs.(i).Job.release > jobs.(i + 1).Job.release then ok := false
      done;
      !ok)

(* ---------- Render ---------- *)

let test_render_outputs () =
  let s = mk_sched () in
  let g = Render.gantt s in
  check_bool "two rows" true (List.length (String.split_on_char '\n' g) >= 3);
  check_bool "job letters present" true (String.contains g 'a' && String.contains g 'b');
  let tsv = Render.entries_tsv s in
  check_bool "tsv header" true (String.length tsv > 0 && String.sub tsv 0 3 = "job");
  check_bool "summary mentions makespan" true
    (String.length (Render.summary cube s) > 0);
  check_bool "empty schedule" true (Render.gantt (Schedule.of_entries []) = "(empty schedule)\n")

(* ---------- Event_queue ---------- *)

let test_event_queue_order () =
  let q = Event_queue.create () in
  check_bool "empty" true (Event_queue.is_empty q);
  Event_queue.add q 3.0 0;
  Event_queue.add q 1.0 1;
  Event_queue.add q 2.0 2;
  Event_queue.add q 1.0 3;
  check_int "size" 4 (Event_queue.size q);
  checkf "earliest time" 1.0 (Event_queue.min_time q);
  check_int "earliest event" 1 (Event_queue.pop q);
  let order = List.map snd (Event_queue.drain q) in
  Alcotest.(check (list int)) "fifo among ties" [ 3; 2; 0 ] order;
  check_bool "drained" true (Event_queue.is_empty q)

let prop_event_queue_sorts =
  QCheck.Test.make ~count:200 ~name:"event queue drains in sorted order"
    QCheck.(list_of_size (Gen.int_range 0 100) (float_range 0.0 100.0))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i t -> Event_queue.add q t i) times;
      let drained = List.map fst (Event_queue.drain q) in
      drained = List.sort compare times)

(* ---------- Processor ---------- *)

let test_processor_run () =
  let p = Processor.create cube 0 in
  let s0, c0 = Processor.run p ~start:1.0 ~work:2.0 ~speed:2.0 in
  checkf "start" 1.0 s0;
  checkf "completion" 2.0 c0;
  checkf "energy" 8.0 (Processor.energy p);
  (* busy until 2.0: an earlier-start request is pushed back *)
  let s1, _ = Processor.run p ~start:1.5 ~work:1.0 ~speed:1.0 in
  checkf "pushed back" 2.0 s1;
  check_int "switch count (0->2, 2->1)" 2 (Processor.switches p)

let test_processor_switch_overhead () =
  let p = Processor.create ~switch_time:0.5 ~switch_energy:1.0 cube 0 in
  let s0, c0 = Processor.run p ~start:0.0 ~work:1.0 ~speed:1.0 in
  checkf "stall before first segment" 0.5 s0;
  checkf "completion" 1.5 c0;
  let s1, _ = Processor.run p ~start:c0 ~work:1.0 ~speed:1.0 in
  checkf "same speed, no stall" 1.5 s1;
  checkf "energy includes one switch" 3.0 (Processor.energy p)

(* ---------- Online_driver ---------- *)

let test_online_driver_constant () =
  let inst = Instance.of_pairs [ (0.0, 2.0); (3.0, 1.0) ] in
  let out = Online_driver.run cube inst (Online_driver.constant_speed 1.0) in
  checkf "makespan" 4.0 out.Online_driver.makespan;
  checkf "flow" (2.0 +. 1.0) out.Online_driver.total_flow;
  checkf "energy" 3.0 out.Online_driver.energy;
  check_int "completions" 2 (List.length out.Online_driver.completions)

let test_online_driver_fifo_backlog () =
  (* slow constant speed: the second job queues behind the first *)
  let inst = Instance.of_pairs [ (0.0, 2.0); (1.0, 2.0) ] in
  let out = Online_driver.run cube inst (Online_driver.constant_speed 0.5) in
  checkf "makespan = total work / speed" 8.0 out.Online_driver.makespan;
  (match out.Online_driver.completions with
  | [ (j0, c0); (j1, c1) ] ->
    check_int "fifo order" 0 j0.Job.id;
    check_int "second" 1 j1.Job.id;
    checkf "c0" 4.0 c0;
    checkf "c1" 8.0 c1
  | _ -> Alcotest.fail "two completions expected")

let prop_online_driver_work_conserved =
  QCheck.Test.make ~count:100 ~name:"online driver conserves work"
    QCheck.(pair (int_range 0 1000) (float_range 0.5 3.0))
    (fun (seed, speed) ->
      let inst = Workload.uniform_work ~seed ~n:8 ~lo:0.5 ~hi:2.0 (Workload.Poisson 1.0) in
      let out = Online_driver.run cube inst (Online_driver.constant_speed speed) in
      Float.abs (Speed_profile.work out.Online_driver.profile -. Instance.total_work inst)
      <= 1e-6 *. Instance.total_work inst)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "model"
    [
      ( "power",
        [
          Alcotest.test_case "alpha model" `Quick test_power_alpha;
          Alcotest.test_case "speed_for_energy inverse" `Quick test_power_inverse;
          Alcotest.test_case "custom numeric derivative" `Quick test_power_custom_numeric_deriv;
          qt prop_power_convexity;
          qt prop_speed_for_energy_monotone;
        ] );
      ( "discrete-levels",
        [
          Alcotest.test_case "basics" `Quick test_levels_basics;
          Alcotest.test_case "two-level split" `Quick test_two_level_split;
          Alcotest.test_case "exact level free" `Quick test_exact_level_no_overhead;
          qt prop_split_energy_above_continuous;
        ] );
      ("energy", [ Alcotest.test_case "segments and averaging" `Quick test_energy_segments ]);
      ( "instance",
        [
          Alcotest.test_case "job validation" `Quick test_job_validation;
          Alcotest.test_case "sorting and accessors" `Quick test_instance_sorted;
          Alcotest.test_case "duplicate ids" `Quick test_instance_duplicate_ids;
          Alcotest.test_case "built-in instances" `Quick test_builtin_instances;
        ] );
      ( "speed-profile",
        [
          Alcotest.test_case "basics" `Quick test_profile_basics;
          Alcotest.test_case "overlap rejected" `Quick test_profile_overlap_rejected;
          Alcotest.test_case "append" `Quick test_profile_append;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "accessors and metrics" `Quick test_schedule_accessors;
          Alcotest.test_case "validator catches violations" `Quick test_validate_catches_violations;
        ] );
      ( "validate-violations",
        [
          Alcotest.test_case "missing job" `Quick test_violation_missing;
          Alcotest.test_case "unknown job" `Quick test_violation_unknown;
          Alcotest.test_case "duplicate job" `Quick test_violation_duplicate;
          Alcotest.test_case "starts before release" `Quick test_violation_starts_before_release;
          Alcotest.test_case "overlap" `Quick test_violation_overlap;
          Alcotest.test_case "exceeds budget" `Quick test_violation_exceeds_budget;
          Alcotest.test_case "non-finite entry" `Quick test_violation_nonfinite_entry;
          Alcotest.test_case "non-finite energy vs budget" `Quick test_violation_nonfinite_budget;
        ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic in seed" `Quick test_workload_deterministic;
          Alcotest.test_case "arrival shapes" `Quick test_workload_shapes;
          Alcotest.test_case "releases: all five patterns" `Quick test_releases_all_patterns;
          Alcotest.test_case "generators deterministic: all patterns" `Quick
            test_generators_deterministic_all_patterns;
          qt prop_workload_sorted;
        ] );
      ("render", [ Alcotest.test_case "gantt and tsv" `Quick test_render_outputs ]);
      ( "event-queue",
        [
          Alcotest.test_case "ordering and ties" `Quick test_event_queue_order;
          qt prop_event_queue_sorts;
        ] );
      ( "processor",
        [
          Alcotest.test_case "run and busy push-back" `Quick test_processor_run;
          Alcotest.test_case "switch overhead" `Quick test_processor_switch_overhead;
        ] );
      ( "online-driver",
        [
          Alcotest.test_case "constant speed" `Quick test_online_driver_constant;
          Alcotest.test_case "fifo backlog" `Quick test_online_driver_fifo_backlog;
          qt prop_online_driver_work_conserved;
        ] );
    ]
