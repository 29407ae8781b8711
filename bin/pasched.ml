(* pasched — command-line interface to the power-aware scheduling library.

   dune exec bin/pasched.exe -- <command> [options]

   Commands: solve (generic registry front end); the solver
   subcommands frontier, laptop, server, flow, multi and maxflow; the
   standalone tools simulate, sim, workload, deadline, discrete,
   precedence, thermal and fuzz; and the service commands serve,
   client and soak.  Instances are given inline ("r:w,r:w,...") or as
   a file of "release work" lines.

   The solver subcommands are rows of one table ([alias_rows]): each
   pins the registry solver that has always answered it, while `solve`
   picks any registered solver by name or capability. *)

open Cmdliner

let () =
  Builtin.init ();
  Guard_chaos.register ();
  Serve_check.register ();
  Kernel_check.register ();
  Sim_check.register ()

(* ---------- observability flags (every subcommand) ---------- *)

(* --trace / --metrics are accepted by all subcommands: they flip the
   global Obs switch on, wrap the command in a root span, and export
   afterwards.  Without them the instrumentation stays disabled and
   costs nothing. *)

let obs_term =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Write a Chrome trace_event JSON profile of this run to $(docv); open it in \
             chrome://tracing or https://ui.perfetto.dev.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ] ~doc:"Print the observability report (counters, spans) after the command.")
  in
  Term.(const (fun t m -> (t, m)) $ trace $ metrics)

let with_obs (trace, metrics) name f =
  let active = trace <> None || metrics in
  if active then begin
    Obs.set_enabled true;
    Obs.reset ()
  end;
  let finish () =
    (match trace with
    | None -> ()
    | Some path ->
      Obs.write_trace path;
      Printf.eprintf "trace: wrote %d events to %s\n%!" (List.length (Obs.trace_events ())) path);
    if metrics then print_string (Obs.metrics_report ())
  in
  match Obs.span ("pasched." ^ name) f with
  | result ->
    finish ();
    result
  | exception e ->
    (* still flush what was recorded: a trace of a failing run is the
       one you want most *)
    if active then finish ();
    raise e

(* ---------- parallelism flag ---------- *)

(* Sets the process-wide Par default.  Instance-bearing commands
   already use --jobs for the inline instance spec, so the domain-count
   flag is -j / --par-jobs there; fuzz (no instance argument) also
   answers to the natural --jobs. *)
let par_jobs_term names =
  Arg.(
    value
    & opt (some int) None
    & info names ~docv:"N"
        ~doc:
          "Worker domains for parallel sections (frontier sampling, fuzz campaigns).  Defaults \
           to the hardware recommendation on OCaml 5 and to 1 on the sequential-fallback build; \
           every value produces identical output.")

let apply_par_jobs = function None -> () | Some n -> Par.set_default_jobs n

(* [`Ok] / [`Error] conversion for solver preconditions: the registry
   and the model constructors signal misuse with [Invalid_argument]
   (e.g. an equal-work-only solver on unequal works), which should be a
   clean CLI error, not a crash; so is an unreadable input file
   ([Sys_error], e.g. [client --file] on a missing path).  Typed guard
   errors get a one-line stderr message and their class's distinct
   exit code (2 usage / invalid input, 3 infeasible, 4 no convergence,
   5 deadline, 6 solver fault); they are raised only after [with_obs]
   has flushed. *)
let wrap_errors f =
  try f () with
  | Guard_error.Error e ->
    Printf.eprintf "pasched: [%s] %s\n%!" (Guard_error.class_string e) (Guard_error.to_string e);
    Stdlib.exit (Guard_error.exit_code e)
  | Invalid_argument msg | Failure msg | Sys_error msg -> `Error (false, msg)

(* ---------- guard (supervision) flags ---------- *)

let guard_term =
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SEC"
          ~doc:
            "Wall-clock budget for the solve (polled from instrumented solver loops); exceeding \
             it exits with code 5.  0 trips at the first poll.")
  in
  let retries =
    Arg.(
      value & opt int 2
      & info [ "max-retries" ] ~docv:"N"
          ~doc:"Tolerance-relaxation retries after a non-convergence (default 2).")
  in
  let no_fallback =
    Arg.(
      value & flag
      & info [ "no-fallback" ]
          ~doc:
            "Fail immediately instead of falling back along the capability-ranked solver chain \
             after the requested solver fails.")
  in
  let inject =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"SPEC"
          ~doc:
            "Deterministic fault injection, e.g. 'all', 'nonconv:rootfind@1', \
             'nan@0.2,delay@0.05' (kinds: nan|nonconv|delay|raise|all; optional :site-prefix \
             and @probability).")
  in
  let build deadline_s max_retries no_fallback inject =
    if max_retries < 0 then Error (`Msg "--max-retries must be >= 0")
    else begin
      let policy = { Guard.default with Guard.deadline_s; max_retries; fallback = not no_fallback } in
      match inject with
      | None -> Ok (policy, None)
      | Some spec -> (
        match Guard_inject.parse spec with
        | Ok s -> Ok (policy, Some (Guard_inject.make ~seed:0 s))
        | Error msg -> Error (`Msg ("--inject: " ^ msg)))
    end
  in
  Term.term_result Term.(const build $ deadline $ retries $ no_fallback $ inject)

(* supervision with every feature off: pure error normalization, used
   by the subcommands that do not expose the guard flags *)
let guard_off = (Guard.off, None)

(* supervised registry solve; a typed error is raised (and mapped to
   its exit code by [wrap_errors]) after the obs flush *)
let gsolve (policy, inject) ?name problem inst =
  let res =
    match name with
    | Some n -> Guard.solve ~policy ?inject n problem inst
    | None -> Guard.solve_auto ~policy ?inject problem inst
  in
  match res with Ok r -> r | Error e -> raise (Guard_error.Error e)

let gprotect ~name f =
  match Guard.protect ~name f with Ok v -> v | Error e -> raise (Guard_error.Error e)

(* ---------- shared argument parsing ---------- *)

let parse_float what s =
  match float_of_string_opt (String.trim s) with
  | Some v -> v
  | None -> failwith (Printf.sprintf "bad %s %S, expected a number" what s)

let parse_jobs_spec spec =
  spec
  |> String.split_on_char ','
  |> List.map (fun part ->
         match String.split_on_char ':' (String.trim part) with
         | [ r; w ] -> (parse_float "release" r, parse_float "work" w)
         | _ -> failwith (Printf.sprintf "bad job %S, expected release:work" part))

let parse_jobs_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line ->
          let line = String.trim line in
          if line = "" || line.[0] = '#' then go acc
          else begin
            match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
            | [ r; w ] -> go ((parse_float "release" r, parse_float "work" w) :: acc)
            | _ -> failwith (Printf.sprintf "bad line %S, expected: release work" line)
          end
      in
      go [])

let instance_term =
  let jobs =
    Arg.(
      value
      & opt (some string) None
      & info [ "jobs" ] ~docv:"SPEC" ~doc:"Inline instance: comma-separated release:work pairs.")
  in
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"PATH" ~doc:"Instance file: one 'release work' pair per line.")
  in
  let build jobs file =
    (* parse/IO failures become cmdliner errors, and [Fun.protect] in
       [parse_jobs_file] closes the channel on every path *)
    try
      match (jobs, file) with
      | Some spec, None -> `Ok (Instance.of_pairs (parse_jobs_spec spec))
      | None, Some path -> `Ok (Instance.of_pairs (parse_jobs_file path))
      | None, None -> `Ok Instance.figure1
      | Some _, Some _ -> `Error (false, "give either --jobs or --file, not both")
    with
    | Failure msg | Invalid_argument msg -> `Error (false, msg)
    | Sys_error msg -> `Error (false, msg)
  in
  Term.(ret (const build $ jobs $ file))

(* Validated at the CLI boundary: alpha <= 1 breaks the convexity that
   every algorithm rests on (Theorem 1, P = sigma^alpha), and deep in a
   solver it surfaces as nonsense speeds or an uncaught exception. *)
let alpha_conv =
  let parse s =
    match float_of_string_opt s with
    | Some a when Float.is_finite a && a > 1.0 -> Ok a
    | Some a ->
      Error
        (`Msg
          (Printf.sprintf
             "alpha must exceed 1 (power = speed^alpha is strictly convex only for alpha > 1), got %g"
             a))
    | None -> Error (`Msg (Printf.sprintf "bad alpha %S, expected a number > 1" s))
  in
  Arg.conv ~docv:"A" (parse, fun fmt a -> Format.fprintf fmt "%g" a)

let alpha_term =
  Arg.(value & opt alpha_conv 3.0 & info [ "alpha" ] ~docv:"A" ~doc:"Power exponent: power = speed^A (must exceed 1).")

let energy_term =
  Arg.(value & opt float 12.0 & info [ "energy"; "e" ] ~docv:"E" ~doc:"Energy budget.")

let gantt_flag =
  Arg.(value & flag & info [ "gantt" ] ~doc:"Draw an ASCII Gantt chart of the schedule.")

let print_schedule model ~gantt schedule =
  if gantt then print_string (Render.gantt schedule);
  print_string (Render.entries_tsv schedule);
  print_endline (Render.summary model schedule)

let schedule_of_result (r : Solve_result.t) =
  match r.Solve_result.schedule with
  | Some s -> s
  | None -> failwith (Printf.sprintf "solver %s returned no schedule" r.Solve_result.solver)

let budget_problem ?procs ~objective ~alpha energy =
  Problem.make ?procs ~objective ~mode:(Problem.Budget energy) ~alpha ()

(* the breakpoints, then the curve sampled from 3/4 of the first to
   5/4 of the last: frontier and solve --pareto *)
let print_pareto ~points (r : Solve_result.t) =
  match r.Solve_result.pareto with
  | None -> failwith (Printf.sprintf "solver %s returned no trade-off curve" r.Solve_result.solver)
  | Some p ->
    let bps = p.Solve_result.breakpoints in
    Printf.printf "# breakpoints: %s\n" (String.concat ", " (List.map (Printf.sprintf "%g") bps));
    let lo = match bps with b :: _ -> b *. 0.75 | [] -> 1.0 in
    let hi = match List.rev bps with b :: _ -> b *. 1.25 | [] -> 10.0 in
    print_string
      (Render.series_tsv
         ~header:("energy", Problem.objective_to_string r.Solve_result.problem.Problem.objective)
         (p.Solve_result.sample ~lo ~hi ~n:points))

(* an int flag below [lo] is a usage error at parse time, before the
   command prints anything *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= lo -> Ok v
    | Some v -> Error (`Msg (Printf.sprintf "must be >= %d, got %d" lo v))
    | None -> Error (`Msg (Printf.sprintf "invalid value %S, expected an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* likewise a float flag outside [[lo, hi]] *)
let float_within lo hi =
  let parse s =
    match float_of_string_opt s with
    | Some v when v >= lo && v <= hi -> Ok v
    | Some v -> Error (`Msg (Printf.sprintf "must be in [%g, %g], got %g" lo hi v))
    | None -> Error (`Msg (Printf.sprintf "invalid value %S, expected a number" s))
  in
  Arg.conv (parse, fun fmt v -> Format.fprintf fmt "%g" v)

let points_term doc = Arg.(value & opt (int_at_least 2) 40 & info [ "points" ] ~docv:"N" ~doc)

(* the optimal single-processor plan that simulate and thermal replay *)
let incmerge_plan ~alpha ~energy inst =
  schedule_of_result
    (gsolve guard_off ~name:"incmerge"
       (budget_problem ~objective:Problem.Makespan ~alpha energy)
       inst)

(* ---------- the solver subcommands ---------- *)

(* What a solver subcommand's flags pin: the solver that has always
   answered the command, the problem it poses, and how the answer is
   printed. *)
type alias = { solver : string; problem : Problem.t; print : Solve_result.t -> unit }

(* The command's historical header line ("" for none), then the
   schedule.  Guard may answer through a fallback solver, so a header
   reads a solver's own diagnostic only where it has a stand-in. *)
let schedule_answer ~gantt header (r : Solve_result.t) =
  (match header r with "" -> () | h -> print_endline h);
  print_schedule (Problem.model r.Solve_result.problem) ~gantt (schedule_of_result r)

(* One row per subcommand that is the paper's named problem: name, doc,
   and a term over the command's own flags that yields the alias for a
   power exponent.  [alias_cmd] adds the flags they all share. *)
let alias_rows =
  let procs default =
    Arg.(value & opt int default & info [ "m"; "procs" ] ~docv:"M" ~doc:"Number of processors.")
  in
  let makespan =
    Arg.(value & opt float 8.0 & info [ "makespan"; "m" ] ~docv:"T" ~doc:"Makespan target.")
  in
  let use_flow =
    Arg.(value & flag & info [ "flow" ] ~doc:"Optimize total flow instead of makespan.")
  in
  let budget_row ~solver ~objective header =
    Term.(
      const (fun energy gantt alpha ->
          { solver; problem = budget_problem ~objective ~alpha energy;
            print = schedule_answer ~gantt header })
      $ energy_term $ gantt_flag)
  in
  [
    ( "frontier",
      "All non-dominated energy/makespan points (paper Figure 1).",
      Term.(
        const (fun par_jobs points alpha ->
            apply_par_jobs par_jobs;
            { solver = "frontier";
              problem = Problem.make ~objective:Problem.Makespan ~mode:Problem.Pareto ~alpha ();
              print = print_pareto ~points })
        $ par_jobs_term [ "j"; "par-jobs" ]
        $ points_term "Number of curve samples.") );
    ( "laptop",
      "Minimize makespan within an energy budget (IncMerge).",
      budget_row ~solver:"incmerge" ~objective:Problem.Makespan (fun _ -> "") );
    ( "server",
      "Minimize energy for a makespan target.",
      Term.(
        const (fun makespan gantt alpha ->
            let mode = Problem.Target makespan in
            { solver = "server"; problem = Problem.make ~objective:Problem.Makespan ~mode ~alpha ();
              print =
                schedule_answer ~gantt (fun r ->
                    let e = Solve_result.diag r "min_energy" in
                    Printf.sprintf "# minimum energy for makespan %g: %.8g" makespan
                      (Option.value e ~default:r.Solve_result.energy)) })
        $ makespan $ gantt_flag) );
    ( "flow",
      "Minimize total flow within an energy budget (equal-work jobs).",
      budget_row ~solver:"flow" ~objective:Problem.Total_flow (fun r ->
          Printf.sprintf "# total flow %.8g with energy %.8g%s" r.Solve_result.value
            r.Solve_result.energy
            (match Solve_result.diag r "last_speed" with
            | Some s -> Printf.sprintf " (last speed %.8g)" s
            | None -> "")) );
    ( "multi",
      "Multiprocessor scheduling for equal-work jobs (cyclic, Theorem 10).",
      Term.(
        const (fun energy m use_flow gantt alpha ->
            let solver, objective, what =
              if use_flow then ("multi-flow", Problem.Total_flow, "total flow")
              else ("multi-cyclic", Problem.Makespan, "makespan")
            in
            { solver; problem = budget_problem ~procs:m ~objective ~alpha energy;
              print =
                schedule_answer ~gantt (fun r ->
                    Printf.sprintf "# %s %.8g on %d processors" what r.Solve_result.value m) })
        $ energy_term $ procs 2 $ use_flow $ gantt_flag) );
    ( "maxflow",
      "Minimize the worst response time within an energy budget (YDS duality).",
      Term.(
        const (fun energy m gantt alpha ->
            { solver = (if m <= 1 then "max-flow" else "max-flow-cyclic");
              problem = budget_problem ~procs:m ~objective:Problem.Max_flow ~alpha energy;
              print =
                schedule_answer ~gantt (fun r ->
                    Printf.sprintf "# minimum worst-case flow: %.8g" r.Solve_result.value) })
        $ energy_term $ procs 1 $ gantt_flag) );
  ]

(* the one run behind every row: the alias is built inside
   [wrap_errors], so a flag the problem rejects (laptop --energy 0,
   multi -m 0) exits 2 *)
let alias_cmd (name, doc, flags) =
  let run obs gp alpha inst make =
    wrap_errors @@ fun () ->
    let a = make alpha in
    with_obs obs name @@ fun () ->
    a.print (gsolve gp ~name:a.solver a.problem inst);
    `Ok ()
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(ret (const run $ obs_term $ guard_term $ alpha_term $ instance_term $ flags))

(* ---------- standalone tools ---------- *)

let simulate_cmd =
  let run obs alpha inst energy levels switch_time switch_energy =
    wrap_errors @@ fun () ->
    with_obs obs "simulate" @@ fun () ->
    let model = Power_model.alpha alpha in
    let plan = incmerge_plan ~alpha ~energy inst in
    let config =
      {
        Sim.levels =
          (match levels with
          | None -> None
          | Some spec ->
            Some
              (Discrete_levels.create
                 (List.map (parse_float "level") (String.split_on_char ',' spec))));
        switch_time;
        switch_energy;
      }
    in
    let r = Sim.run ~config model inst plan in
    Printf.printf "plan:      makespan %.6g energy %.6g\n" (Metrics.makespan plan)
      (Schedule.energy model plan);
    Printf.printf "simulated: makespan %.6g energy %.6g switches %d\n" r.Sim.makespan r.Sim.energy
      r.Sim.switches;
    List.iter
      (fun res ->
        Printf.printf "job %d: start %.6g done %.6g\n" res.Sim.job.Job.id res.Sim.start
          res.Sim.completion)
      r.Sim.results;
    `Ok ()
  in
  let levels =
    Arg.(
      value
      & opt (some string) None
      & info [ "levels" ] ~docv:"S1,S2,.." ~doc:"Discrete speed levels (two-level emulation).")
  in
  let switch_time =
    Arg.(value & opt float 0.0 & info [ "switch-time" ] ~docv:"T" ~doc:"Stall per speed change.")
  in
  let switch_energy =
    Arg.(value & opt float 0.0 & info [ "switch-energy" ] ~docv:"E" ~doc:"Energy per speed change.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Replay the optimal plan on a simulated DVFS processor.")
    Term.(
      ret
        (const run $ obs_term $ alpha_term $ instance_term $ energy_term $ levels $ switch_time
        $ switch_energy))

let workload_cmd =
  let run obs kind n seed work span rate =
    wrap_errors @@ fun () ->
    with_obs obs "workload" @@ fun () ->
    let arrival =
      match kind with
      | "immediate" -> Workload.Immediate
      | "poisson" -> Workload.Poisson rate
      | "uniform" -> Workload.Uniform_span span
      | "bursty" -> Workload.Bursty { bursts = 3; span; jitter = span /. 20.0 }
      | "staircase" -> Workload.Staircase (span /. float_of_int (Stdlib.max n 1))
      | other -> failwith (Printf.sprintf "unknown arrival kind %S" other)
    in
    let inst = Workload.equal_work ~seed ~n ~work arrival in
    Printf.printf "# %s workload, n=%d seed=%d\n" kind n seed;
    Array.iter (fun (j : Job.t) -> Printf.printf "%g %g\n" j.Job.release j.Job.work) (Instance.jobs inst);
    `Ok ()
  in
  let kind =
    Arg.(
      value & opt string "poisson"
      & info [ "kind" ] ~docv:"KIND" ~doc:"immediate | poisson | uniform | bursty | staircase.")
  in
  let n = Arg.(value & opt int 16 & info [ "n"; "count" ] ~docv:"N" ~doc:"Number of jobs.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.") in
  let work = Arg.(value & opt float 1.0 & info [ "work" ] ~docv:"W" ~doc:"Work per job.") in
  let span = Arg.(value & opt float 10.0 & info [ "span" ] ~docv:"T" ~doc:"Arrival span.") in
  let rate = Arg.(value & opt float 1.0 & info [ "rate" ] ~docv:"R" ~doc:"Poisson rate.") in
  Cmd.v
    (Cmd.info "workload" ~doc:"Generate a synthetic instance (stdout, '--file' format).")
    Term.(ret (const run $ obs_term $ kind $ n $ seed $ work $ span $ rate))

let deadline_cmd =
  let run obs alpha n seed =
    wrap_errors @@ fun () ->
    with_obs obs "deadline" @@ fun () ->
    let triples =
      Workload.deadline_jobs ~seed ~n ~work:(0.5, 3.0) ~slack:(0.5, 4.0) (Workload.Poisson 1.0)
    in
    let triples = List.stable_sort (fun (r1, _, _) (r2, _, _) -> compare r1 r2) triples in
    let inst = Instance.of_pairs (List.map (fun (r, _, w) -> (r, w)) triples) in
    let deadlines = Array.of_list (List.map (fun (_, d, _) -> d) triples) in
    let problem =
      Problem.make ~objective:Problem.Deadline_energy ~mode:Problem.Feasible ~alpha ~deadlines ()
    in
    let energy_of solver = (gsolve guard_off ~name:solver problem inst).Solve_result.value in
    let yds = energy_of "yds" in
    let avr = energy_of "avr" in
    let oa = energy_of "optimal-available" in
    Printf.printf "n=%d deadline jobs (seed %d)\n" n seed;
    Printf.printf "YDS (offline optimal) energy: %.6g\n" yds;
    Printf.printf "AVR energy: %.6g (ratio %.4f, bound %g)\n" avr (avr /. yds)
      (Compete.avr_bound ~alpha);
    Printf.printf "OA  energy: %.6g (ratio %.4f, bound %g)\n" oa (oa /. yds)
      (Compete.oa_bound ~alpha);
    `Ok ()
  in
  let n =
    Arg.(value & opt (int_at_least 1) 12 & info [ "n"; "count" ] ~docv:"N" ~doc:"Number of jobs.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.") in
  Cmd.v
    (Cmd.info "deadline" ~doc:"Deadline scheduling: YDS vs the online AVR / OA algorithms.")
    Term.(ret (const run $ obs_term $ alpha_term $ n $ seed))

let discrete_cmd =
  (* stays on the concrete module: the per-job two-level segment plans
     it prints are richer than a Solve_result schedule can carry (the
     registry's "discrete-makespan" solver reports value/energy only) *)
  let run obs alpha inst energy levels =
    wrap_errors @@ fun () ->
    with_obs obs "discrete" @@ fun () ->
    let model = Power_model.alpha alpha in
    let levels =
      Discrete_levels.create (List.map (parse_float "level") (String.split_on_char ',' levels))
    in
    let d =
      gprotect ~name:"discrete-makespan" (fun () -> Discrete_makespan.solve model levels ~energy inst)
    in
    Printf.printf "# makespan %.8g using energy %.8g (budget %g)\n" d.Discrete_makespan.makespan
      d.Discrete_makespan.energy energy;
    Printf.printf "# continuous relaxation: %.8g\n" (Incmerge.makespan model ~energy inst);
    List.iter
      (fun p ->
        Printf.printf "job %d:" p.Discrete_makespan.job.Job.id;
        List.iter
          (fun (s : Speed_profile.segment) ->
            Printf.printf " [%g,%g]@%g" s.Speed_profile.t0 s.Speed_profile.t1 s.Speed_profile.speed)
          p.Discrete_makespan.segments;
        print_newline ())
      d.Discrete_makespan.plans;
    `Ok ()
  in
  let levels =
    Arg.(
      value & opt string "0.8,1.8,2.0"
      & info [ "levels" ] ~docv:"S1,S2,.." ~doc:"Discrete speed levels (default: Athlon 64).")
  in
  Cmd.v
    (Cmd.info "discrete" ~doc:"Laptop problem on a processor with discrete speed levels.")
    Term.(ret (const run $ obs_term $ alpha_term $ instance_term $ energy_term $ levels))

let precedence_cmd =
  let run obs alpha energy m n seed layers prob =
    wrap_errors @@ fun () ->
    with_obs obs "precedence" @@ fun () ->
    let dag = Dag.random ~seed ~n ~layers ~edge_prob:prob ~work_range:(0.5, 2.5) in
    Printf.printf "random DAG: n=%d total work %.2f critical path %.2f\n" n (Dag.total_work dag)
      (Dag.critical_path_work dag);
    let u = Precedence.uniform ~alpha ~m ~energy dag in
    let b = Precedence.critical_boost ~alpha ~m ~energy dag in
    Printf.printf "uniform makespan:  %.6g\n" u.Precedence.makespan;
    Printf.printf "boosted makespan:  %.6g\n" b.Precedence.makespan;
    Printf.printf "lower bound:       %.6g\n" (Precedence.lower_bound ~alpha ~m ~energy dag);
    `Ok ()
  in
  let m =
    Arg.(
      value & opt (int_at_least 1) 3 & info [ "m"; "procs" ] ~docv:"M" ~doc:"Number of processors.")
  in
  let n = Arg.(value & opt int 16 & info [ "n"; "count" ] ~docv:"N" ~doc:"Number of tasks.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.") in
  let layers = Arg.(value & opt int 4 & info [ "layers" ] ~docv:"L" ~doc:"DAG layers.") in
  let prob =
    Arg.(
      value & opt (float_within 0.0 1.0) 0.4
      & info [ "edge-prob" ] ~docv:"P" ~doc:"Edge probability.")
  in
  Cmd.v
    (Cmd.info "precedence" ~doc:"Power-aware makespan with precedence constraints (heuristics + bounds).")
    Term.(ret (const run $ obs_term $ alpha_term $ energy_term $ m $ n $ seed $ layers $ prob))

let thermal_cmd =
  let run obs alpha inst energy heating cooling =
    wrap_errors @@ fun () ->
    with_obs obs "thermal" @@ fun () ->
    let model = Power_model.alpha alpha in
    let plan = incmerge_plan ~alpha ~energy inst in
    let profile = Schedule.profile_of_proc plan 0 in
    Printf.printf "# peak temperature %.6g (heating %g, cooling %g)\n"
      (Thermal.max_temperature model ~heating ~cooling profile)
      heating cooling;
    List.iter
      (fun s -> Printf.printf "%g\t%g\n" s.Thermal.time s.Thermal.temperature)
      (Thermal.trace model ~heating ~cooling profile);
    `Ok ()
  in
  let heating = Arg.(value & opt float 1.0 & info [ "heating" ] ~docv:"A" ~doc:"Heating coefficient.") in
  let cooling = Arg.(value & opt float 0.5 & info [ "cooling" ] ~docv:"B" ~doc:"Cooling coefficient.") in
  Cmd.v
    (Cmd.info "thermal" ~doc:"Temperature trace of the optimal plan (Newton cooling).")
    Term.(ret (const run $ obs_term $ alpha_term $ instance_term $ energy_term $ heating $ cooling))

(* ---------- the generic registry front end ---------- *)

let solve_cmd =
  let run obs par_jobs gp list_solvers solver objective pareto target energy procs alpha cap levels
      weights deadlines points gantt inst =
    wrap_errors @@ fun () ->
    apply_par_jobs par_jobs;
    with_obs obs "solve" @@ fun () ->
    if list_solvers then begin
      List.iter
        (fun s ->
          Printf.printf "%-18s %s  %s\n" (Engine.name_of s)
            (Capability.to_string (Engine.capability_of s))
            (Engine.doc_of s))
        (Engine.all ());
      `Ok ()
    end
    else begin
      match Problem.objective_of_string objective with
      | None ->
        `Error
          ( false,
            Printf.sprintf "unknown objective %S (one of: %s)" objective
              (String.concat ", " (List.map Problem.objective_to_string Problem.all_objectives)) )
      | Some obj ->
        let mode =
          if pareto then Problem.Pareto
          else
            match (target, obj) with
            | Some t, _ -> Problem.Target t
            | None, Problem.Deadline_energy -> Problem.Feasible
            | None, _ -> Problem.Budget energy
        in
        let parse_floats what s = List.map (parse_float what) (String.split_on_char ',' s) in
        let problem =
          Problem.make ~procs ?speed_cap:cap
            ?levels:(Option.map (parse_floats "level") levels)
            ?weights:(Option.map (fun s -> Array.of_list (parse_floats "weight" s)) weights)
            ?deadlines:(Option.map (fun s -> Array.of_list (parse_floats "deadline" s)) deadlines)
            ~objective:obj ~mode ~alpha ()
        in
        let r = gsolve gp ?name:solver problem inst in
        (match r.Solve_result.pareto with
        | Some _ ->
          Printf.printf "# solver %s (%s)\n" r.Solve_result.solver (Problem.to_string problem);
          print_pareto ~points r
        | None ->
          Printf.printf "# %s\n" (Solve_result.summary r);
          List.iter
            (fun (k, v) -> Printf.printf "# %s = %.8g\n" k v)
            r.Solve_result.diagnostics;
          (match r.Solve_result.schedule with
          | Some s -> print_schedule (Power_model.alpha alpha) ~gantt s
          | None -> ()));
        `Ok ()
    end
  in
  let list_solvers =
    Arg.(value & flag & info [ "list-solvers" ] ~doc:"List registered solvers with their capabilities and exit.")
  in
  let solver =
    Arg.(
      value
      & opt (some string) None
      & info [ "solver" ] ~docv:"NAME"
          ~doc:"Solver to use (see --list-solvers); default: first registered solver whose capability accepts the problem, exact solvers first.")
  in
  let objective =
    Arg.(
      value & opt string "makespan"
      & info [ "objective"; "o" ] ~docv:"OBJ" ~doc:"makespan | flow | maxflow | wflow | deadline.")
  in
  let pareto =
    Arg.(value & flag & info [ "pareto" ] ~doc:"Compute the whole energy/objective trade-off curve.")
  in
  let target =
    Arg.(
      value
      & opt (some float) None
      & info [ "target" ] ~docv:"T" ~doc:"Server mode: minimize energy for this objective target.")
  in
  let procs =
    Arg.(value & opt int 1 & info [ "procs"; "m" ] ~docv:"M" ~doc:"Number of processors.")
  in
  let cap =
    Arg.(value & opt (some float) None & info [ "cap" ] ~docv:"S" ~doc:"Maximum processor speed.")
  in
  let levels =
    Arg.(
      value
      & opt (some string) None
      & info [ "levels" ] ~docv:"S1,S2,.." ~doc:"Discrete speed levels.")
  in
  let weights =
    Arg.(
      value
      & opt (some string) None
      & info [ "weights" ] ~docv:"W1,W2,.." ~doc:"Per-job weights, release order (wflow).")
  in
  let deadlines =
    Arg.(
      value
      & opt (some string) None
      & info [ "deadlines" ] ~docv:"D1,D2,.." ~doc:"Per-job deadlines, release order (deadline).")
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:"Solve any registered problem class through the pasched.engine solver registry.")
    Term.(
      ret
        (const run $ obs_term
        $ par_jobs_term [ "j"; "par-jobs" ]
        $ guard_term $ list_solvers $ solver $ objective $ pareto $ target $ energy_term $ procs
        $ alpha_term $ cap $ levels $ weights $ deadlines
        $ points_term "Curve samples in --pareto mode."
        $ gantt_flag $ instance_term))

(* ---------- trace-scale streaming simulation ---------- *)

let sim_cmd =
  let parse_size spec =
    match String.split_on_char ':' (String.trim spec) with
    | [ "fixed"; w ] -> Workload.Stream.Fixed_size (parse_float "work" w)
    | [ "uniform"; range ] -> (
      match String.split_on_char ',' range with
      | [ lo; hi ] ->
        Workload.Stream.Uniform_size { lo = parse_float "lo" lo; hi = parse_float "hi" hi }
      | _ -> failwith "bad --size, expected uniform:LO,HI")
    | [ "pareto"; range ] -> (
      match String.split_on_char ',' range with
      | [ shape; scale ] ->
        Workload.Stream.Pareto { shape = parse_float "shape" shape; scale = parse_float "scale" scale }
      | _ -> failwith "bad --size, expected pareto:SHAPE,SCALE")
    | _ -> failwith (Printf.sprintf "bad --size %S, expected fixed:W | uniform:LO,HI | pareto:SHAPE,SCALE" spec)
  in
  let parse_policy spec =
    match String.split_on_char ':' (String.trim spec) with
    | [ "constant"; s ] -> Sim.constant_policy (parse_float "speed" s)
    | [ "load"; b ] -> Sim.load_policy (parse_float "base" b)
    | [ "avr" ] -> Sim.avr_policy ~base:1.0 ~window:10.0
    | [ "avr"; rest ] -> (
      match String.split_on_char ',' rest with
      | [ b; w ] -> Sim.avr_policy ~base:(parse_float "base" b) ~window:(parse_float "window" w)
      | _ -> failwith "bad --policy, expected avr:BASE,WINDOW")
    | _ ->
      failwith
        (Printf.sprintf "bad --policy %S, expected constant:SPEED | load:BASE | avr[:BASE,WINDOW]"
           spec)
  in
  let watermark_json (s : Streaming_metrics.snapshot) =
    Obs_json.Obj
      [
        ("jobs", Obs_json.Int s.Streaming_metrics.jobs);
        ("flow_mean", Obs_json.Float s.Streaming_metrics.flow_mean);
        ("flow_stddev", Obs_json.Float s.Streaming_metrics.flow_stddev);
        ("flow_p50", Obs_json.Float s.Streaming_metrics.flow_p50);
        ("flow_p95", Obs_json.Float s.Streaming_metrics.flow_p95);
        ("flow_p99", Obs_json.Float s.Streaming_metrics.flow_p99);
        ("flow_max", Obs_json.Float s.Streaming_metrics.flow_max);
        ("makespan", Obs_json.Float s.Streaming_metrics.makespan);
        ("energy", Obs_json.Float s.Streaming_metrics.energy);
        ("released_work", Obs_json.Float s.Streaming_metrics.released_work);
      ]
  in
  let watermark_csv_header =
    "jobs,flow_mean,flow_stddev,flow_p50,flow_p95,flow_p99,flow_max,makespan,energy,released_work"
  in
  let watermark_csv (s : Streaming_metrics.snapshot) =
    Printf.sprintf "%d,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g" s.Streaming_metrics.jobs
      s.Streaming_metrics.flow_mean s.Streaming_metrics.flow_stddev s.Streaming_metrics.flow_p50
      s.Streaming_metrics.flow_p95 s.Streaming_metrics.flow_p99 s.Streaming_metrics.flow_max
      s.Streaming_metrics.makespan s.Streaming_metrics.energy s.Streaming_metrics.released_work
  in
  let run obs pjobs kind n seed size_spec rate amplitude period rate_on rate_off mean_on
      mean_off step procs levels_spec switch_time switch_energy thermal_spec policy_spec watermark
      format seeds ratios alpha window windows emit =
    wrap_errors @@ fun () ->
    with_obs obs "sim" @@ fun () ->
    apply_par_jobs pjobs;
    if n <= 0 then failwith "--n must be positive";
    if seeds <= 0 then failwith "--seeds must be positive";
    let size = parse_size size_spec in
    let process =
      match kind with
      | "diurnal" -> Workload.Stream.Diurnal { base = rate; amplitude; period }
      | "mmpp" -> Workload.Stream.Mmpp { rate_on; rate_off; mean_on; mean_off }
      | "poisson" -> Workload.Stream.Poisson_process rate
      | "staircase" -> Workload.Stream.Staircase_process step
      | other -> failwith (Printf.sprintf "unknown trace kind %S (diurnal|mmpp|poisson|staircase)" other)
    in
    let stream_of seed = Workload.Stream.make ~seed ~limit:n ~size process in
    if ratios then begin
      (* windowed empirical competitive ratios vs the offline optimum *)
      let summaries =
        Compete.measure_stream ~seed ~windows ~window ~alpha (stream_of seed)
      in
      Printf.printf "# %s trace, %d windows x %d jobs, alpha %g, seed %d\n" kind windows window
        alpha seed;
      List.iter
        (fun s ->
          Printf.printf "%-3s mean ratio %.4f  max %.4f  bound %.4g  windows %d\n"
            s.Compete.algorithm s.Compete.mean_ratio s.Compete.max_ratio s.Compete.theoretical_bound
            s.Compete.trials)
        summaries;
      `Ok ()
    end
    else
      match emit with
      | Some batch ->
        (* NDJSON solve requests off the trace: the serve-daemon soak *)
        if batch <= 0 then failwith "--emit-requests must be positive";
        Seq.iter print_endline (Serve_client.trace_requests ~alpha ~batch (stream_of seed));
        `Ok ()
      | None ->
        let model = Power_model.alpha alpha in
        let policy = parse_policy policy_spec in
        let levels =
          match levels_spec with
          | None -> None
          | Some "athlon" -> Some Discrete_levels.athlon64
          | Some spec ->
            Some
              (Discrete_levels.create
                 (List.map (parse_float "level") (String.split_on_char ',' spec)))
        in
        let thermal =
          match thermal_spec with
          | None -> None
          | Some spec -> (
            match String.split_on_char ',' spec with
            | [ h; c ] -> Some (parse_float "heating" h, parse_float "cooling" c)
            | _ -> failwith "bad --thermal, expected HEATING,COOLING")
        in
        let config =
          {
            Sim.base = { Sim.levels; switch_time; switch_energy };
            procs;
            thermal;
            watermark_every = watermark;
          }
        in
        if seeds > 1 && watermark > 0 then
          failwith "--watermark needs a single seed (watermarks interleave under --seeds)";
        let emit_watermark =
          match format with
          | "ndjson" -> fun s -> print_endline (Obs_json.to_string (watermark_json s))
          | "csv" ->
            let header_done = ref false in
            fun s ->
              if not !header_done then begin
                header_done := true;
                print_endline watermark_csv_header
              end;
              print_endline (watermark_csv s)
          | other -> failwith (Printf.sprintf "unknown --format %S (ndjson|csv)" other)
        in
        let run_one seed =
          let wm = if watermark > 0 then Some emit_watermark else None in
          Sim.run_stream ~config ?watermark:wm model policy
            (Workload.Stream.pull_fn (stream_of seed))
        in
        (* fan-out over seeds via Par: reports are pure per-seed values,
           printed in seed order afterwards, so output is identical for
           every --par-jobs width *)
        let seed_list = List.init seeds (fun i -> seed + i) in
        let reports =
          if seeds = 1 then [ run_one seed ] else Par.list_map run_one seed_list
        in
        List.iter2
          (fun seed (r : Sim.stream_report) ->
            let m = r.Sim.metrics in
            Printf.printf
              "seed %d: jobs %d  makespan %.6g  flow mean %.6g p50 %.6g p95 %.6g p99 %.6g max \
               %.6g  energy %.6g  switches %d  clamps %d  backlog-max %d\n"
              seed m.Streaming_metrics.jobs m.Streaming_metrics.makespan
              m.Streaming_metrics.flow_mean m.Streaming_metrics.flow_p50
              m.Streaming_metrics.flow_p95 m.Streaming_metrics.flow_p99
              m.Streaming_metrics.flow_max m.Streaming_metrics.energy r.Sim.stream_switches
              r.Sim.clamps r.Sim.max_backlog;
            match r.Sim.peak_temperature with
            | None -> ()
            | Some t -> Printf.printf "seed %d: peak temperature %.6g\n" seed t)
          seed_list reports;
        (* live-memory telemetry on stderr (not goldenable: it varies
           by compiler); the CI smoke budget-checks it *)
        let st = Gc.quick_stat () in
        Printf.eprintf "heap: top_heap_words %d\n%!" st.Gc.top_heap_words;
        `Ok ()
  in
  let kind =
    Arg.(
      value & opt string "diurnal"
      & info [ "kind" ] ~docv:"KIND" ~doc:"Trace family: diurnal | mmpp | poisson | staircase.")
  in
  let n = Arg.(value & opt int 100_000 & info [ "n"; "count" ] ~docv:"N" ~doc:"Trace length (jobs).") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Base PRNG seed.") in
  let size =
    Arg.(
      value & opt string "pareto:2.2,0.5"
      & info [ "size" ] ~docv:"SPEC"
          ~doc:"Job-size distribution: fixed:W | uniform:LO,HI | pareto:SHAPE,SCALE.")
  in
  let rate =
    Arg.(value & opt float 1.0 & info [ "rate" ] ~docv:"R" ~doc:"Base arrival rate (diurnal, poisson).")
  in
  let amplitude =
    Arg.(
      value & opt float 0.8
      & info [ "amplitude" ] ~docv:"A" ~doc:"Diurnal modulation depth in [0, 1).")
  in
  let period =
    Arg.(value & opt float 1000.0 & info [ "period" ] ~docv:"T" ~doc:"Diurnal period.")
  in
  let rate_on =
    Arg.(value & opt float 4.0 & info [ "rate-on" ] ~docv:"R" ~doc:"MMPP on-phase arrival rate.")
  in
  let rate_off =
    Arg.(value & opt float 0.2 & info [ "rate-off" ] ~docv:"R" ~doc:"MMPP off-phase arrival rate.")
  in
  let mean_on =
    Arg.(value & opt float 20.0 & info [ "mean-on" ] ~docv:"T" ~doc:"MMPP mean on-phase sojourn.")
  in
  let mean_off =
    Arg.(value & opt float 80.0 & info [ "mean-off" ] ~docv:"T" ~doc:"MMPP mean off-phase sojourn.")
  in
  let step =
    Arg.(value & opt float 1.0 & info [ "step" ] ~docv:"T" ~doc:"Staircase release step.")
  in
  let procs =
    Arg.(value & opt int 1 & info [ "procs" ] ~docv:"M" ~doc:"FIFO multi-server width.")
  in
  let levels =
    Arg.(
      value
      & opt (some string) None
      & info [ "levels" ] ~docv:"S1,S2,.."
          ~doc:"Discrete speed levels ('athlon' = the 0.8/1.8/2.0 Athlon64 set).")
  in
  let switch_time =
    Arg.(value & opt float 0.0 & info [ "switch-time" ] ~docv:"T" ~doc:"Stall per speed change.")
  in
  let switch_energy =
    Arg.(value & opt float 0.0 & info [ "switch-energy" ] ~docv:"E" ~doc:"Energy per speed change.")
  in
  let thermal =
    Arg.(
      value
      & opt (some string) None
      & info [ "thermal" ] ~docv:"H,C" ~doc:"Enable the Newton thermal model (heating, cooling).")
  in
  let policy =
    Arg.(
      value & opt string "constant:2.0"
      & info [ "policy" ] ~docv:"SPEC"
          ~doc:
            "Speed policy: constant:SPEED | load:BASE | avr[:BASE,WINDOW] (AVR-style density \
             tracking — drain the live backlog within WINDOW time, floored at BASE; default \
             avr:1,10).")
  in
  let watermark =
    Arg.(
      value & opt (int_at_least 0) 0
      & info [ "watermark" ] ~docv:"N" ~doc:"Emit a metrics watermark every N completions (0 = off).")
  in
  let format =
    Arg.(
      value & opt string "ndjson"
      & info [ "format" ] ~docv:"FMT" ~doc:"Watermark format: ndjson | csv.")
  in
  let seeds =
    Arg.(
      value & opt int 1
      & info [ "seeds" ] ~docv:"K" ~doc:"Fan out over K consecutive seeds via the Par layer.")
  in
  let ratios =
    Arg.(
      value & flag
      & info [ "ratios" ]
          ~doc:"Competitive-ratio mode: solve windowed chunks offline (YDS) and online (AVR, OA).")
  in
  let window =
    Arg.(value & opt int 64 & info [ "window" ] ~docv:"W" ~doc:"Jobs per ratio window.")
  in
  let windows =
    Arg.(value & opt int 20 & info [ "windows" ] ~docv:"K" ~doc:"Number of ratio windows.")
  in
  let emit =
    Arg.(
      value
      & opt (some int) None
      & info [ "emit-requests" ] ~docv:"BATCH"
          ~doc:
            "Print NDJSON solve requests ($(docv) trace jobs per request) instead of simulating — \
             pipe into a running $(b,pasched serve) as a soak workload.")
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:
         "Trace-scale streaming simulation: constant-memory runs over 10^6+-job synthetic traces, \
          empirical competitive ratios, serve-daemon soak streams.")
    Term.(
      ret
        (const run $ obs_term $ par_jobs_term [ "j"; "par-jobs" ] $ kind $ n $ seed
        $ size $ rate $ amplitude $ period $ rate_on $ rate_off $ mean_on $ mean_off $ step $ procs
        $ levels $ switch_time $ switch_energy $ thermal $ policy $ watermark $ format $ seeds
        $ ratios $ alpha_term $ window $ windows $ emit))

let fuzz_cmd =
  let run obs par_jobs seed runs props list_props replay inject =
    match apply_par_jobs par_jobs with
    | exception Invalid_argument msg -> `Error (false, msg)
    | () ->
    (* --inject SPEC turns the run into a chaos campaign: the spec is
       handed to the chaos properties (each guarded solve arms a plan
       derived from its case seed), a campaign-wide plan is installed so
       the check.worker site itself can fault (exercising per-case
       containment in the runner), and — unless --prop narrowed the
       selection — only the chaos properties run *)
    let inject_spec =
      match inject with
      | None -> Ok None
      | Some s -> (match Guard_inject.parse s with Ok spec -> Ok (Some spec) | Error m -> Error m)
    in
    match inject_spec with
    | Error msg -> `Error (false, Printf.sprintf "--inject: %s" msg)
    | Ok spec ->
    Guard_chaos.configure spec;
    (* only the Raise clauses target the workers: a nan/nonconv/delay
       outside any guarded solve would read as a genuine solver bug,
       while an injected worker exception is exactly what per-case
       containment must absorb *)
    (match spec with
    | None -> ()
    | Some spec -> (
      match
        List.filter_map
          (fun (c : Guard_inject.clause) ->
            if c.Guard_inject.kind = Guard_inject.Raise then
              Some { c with Guard_inject.site = Some "check.worker" }
            else None)
          spec
      with
      | [] -> ()
      | worker_spec -> Guard_inject.install (Guard_inject.make ~seed worker_spec)));
    let props =
      match (props, spec) with [], Some _ -> Guard_chaos.names () | ps, _ -> ps
    in
    (* run the campaign under [with_obs] but defer [exit] until after the
       trace/metrics have been flushed *)
    let outcome =
      with_obs obs "fuzz" @@ fun () ->
      let all = Properties.registered () in
      if list_props then begin
        List.iter (fun p -> Printf.printf "%-26s %s\n" p.Oracle.name p.Oracle.doc) all;
        `Ok ()
      end
      else
        match replay with
        | Some line -> begin
          match Replay.run_line line with
          | Error msg -> `Error (false, msg)
          | Ok (name, Oracle.Pass) ->
            Printf.printf "replay %s: PASS\n" name;
            `Ok ()
          | Ok (name, Oracle.Skip why) ->
            Printf.printf "replay %s: SKIP (%s)\n" name why;
            `Ok ()
          | Ok (name, Oracle.Fail msg) ->
            Printf.printf "replay %s: FAIL (%s)\n" name msg;
            `Exit 1
        end
        | None -> begin
          match Runner.run ?props:(match props with [] -> None | ps -> Some ps) ~seed ~runs () with
          | summary ->
            Runner.report summary;
            if Runner.ok summary then `Ok () else `Exit 1
          | exception Invalid_argument msg -> `Error (false, msg)
        end
    in
    match outcome with
    | `Exit code -> Stdlib.exit code
    | (`Ok () | `Error _) as r -> r
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Campaign PRNG seed.") in
  let runs =
    Arg.(value & opt int 200 & info [ "runs" ] ~docv:"N" ~doc:"Number of generated cases.")
  in
  let props =
    Arg.(
      value & opt_all string []
      & info [ "prop" ] ~docv:"NAME" ~doc:"Check only this property (repeatable; default all).")
  in
  let list_props = Arg.(value & flag & info [ "list" ] ~doc:"List registered properties and exit.") in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"LINE" ~doc:"Re-run one serialized counterexample line and exit.")
  in
  let inject =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"SPEC"
          ~doc:
            "Chaos campaign: inject deterministic faults (same SPEC grammar as the solver \
             commands) into guarded solves and the fuzz workers themselves; runs the chaos \
             properties unless --prop is given.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Property-based differential testing: random instances against the oracle registry.")
    Term.(
      ret
        (const run $ obs_term
        $ par_jobs_term [ "jobs"; "j" ]
        $ seed $ runs $ props $ list_props $ replay $ inject))

(* ---------- serve: the long-running solve daemon ---------- *)

let serve_cmd =
  let run obs par_jobs (policy, inject) socket cache_capacity max_batch shards max_inflight
      cache_file fsync compact_every breaker_threshold breaker_cooldown backlog =
    match apply_par_jobs par_jobs with
    | exception Invalid_argument msg -> `Error (false, msg)
    | () ->
      if inject <> None then `Error (false, "serve does not support --inject")
      else if cache_capacity < 1 then `Error (false, "--cache must be >= 1")
      else if max_batch < 1 then `Error (false, "--max-batch must be >= 1")
      else if shards < 1 then `Error (false, "--shards must be >= 1")
      else if max_inflight < 0 then `Error (false, "--max-inflight must be >= 0")
      else if compact_every < 0 then `Error (false, "--compact-every must be >= 0")
      else if breaker_threshold < 0 then `Error (false, "--breaker-threshold must be >= 0")
      else if breaker_cooldown < 0.0 then `Error (false, "--breaker-cooldown must be >= 0")
      else if backlog < 1 then `Error (false, "--backlog must be >= 1")
      else
        wrap_errors @@ fun () ->
        with_obs obs "serve" @@ fun () ->
        let breaker =
          if breaker_threshold = 0 then None
          else
            Some
              { Guard_breaker.threshold = breaker_threshold; cooldown_s = breaker_cooldown }
        in
        let t =
          Serve_shard.create ?jobs:par_jobs ~shards ~cache_capacity:cache_capacity ~max_inflight
            ~policy ?cache_file ~fsync ~compact_every ~breaker ()
        in
        (match socket with
        | None -> Serve.run_pipe ~max_batch t
        | Some path -> Serve.run_socket ~max_batch ~backlog ~path t);
        `Ok ()
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix domain socket at $(docv) instead of serving stdin to stdout.  A \
             stale socket file is replaced; the path is unlinked on shutdown.")
  in
  let cache =
    Arg.(
      value & opt int 256
      & info [ "cache" ] ~docv:"N"
          ~doc:"LRU result-cache capacity in entries (default 256); least-recently-used eviction.")
  in
  let max_batch =
    Arg.(
      value & opt int 32
      & info [ "max-batch" ] ~docv:"N"
          ~doc:"Largest request batch dispatched to the domain pool at once (default 32).")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Shared-nothing shards (default 1).  Each shard owns a private LRU cache and domain-pool \
             slice; requests route by a jump consistent hash of the canonical instance key, so \
             repeats always land on the shard that cached them and replies are byte-identical for \
             every shard count.")
  in
  let max_inflight =
    Arg.(
      value & opt int 0
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Admission control: bound each shard's in-flight solves per batch at $(docv); excess \
             requests are shed with a typed busy reply (0 = unbounded, the default).")
  in
  let cache_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-file" ] ~docv:"PATH"
          ~doc:
            "Crash-safe cache persistence rooted at $(docv): every insert is appended to a \
             CRC-framed write-ahead journal ($(docv).journal, flushed once per batch), replayed \
             over the checkpoint at startup (torn or corrupt lines skipped), and periodically \
             compacted into an atomically rewritten checkpoint.  The store survives a change of \
             $(b,--shards) — entries re-route on load.")
  in
  let fsync =
    Arg.(
      value & flag
      & info [ "fsync" ]
          ~doc:
            "fsync the journal once per served batch, upgrading crash durability from \
             kill-safe (OS page cache) to power-loss-safe, at a per-batch fsync cost.")
  in
  let compact_every =
    Arg.(
      value & opt int 1024
      & info [ "compact-every" ] ~docv:"N"
          ~doc:
            "Fold the journal into the checkpoint after $(docv) appended entries (default 1024; \
             0 = only compact on shutdown).")
  in
  let breaker_threshold =
    Arg.(
      value & opt int 5
      & info [ "breaker-threshold" ] ~docv:"K"
          ~doc:
            "Open a solver's circuit breaker after $(docv) consecutive hard failures \
             (solver-fault / no-convergence); requests degrade to the next healthy capable \
             solver, or answer a typed degraded reply.  0 disables the breakers (default 5).")
  in
  let breaker_cooldown =
    Arg.(
      value & opt float 5.0
      & info [ "breaker-cooldown" ] ~docv:"SEC"
          ~doc:
            "How long an open breaker refuses work before letting one half-open probe through \
             (default 5).")
  in
  let backlog =
    Arg.(
      value & opt int 16
      & info [ "backlog" ] ~docv:"N"
          ~doc:"Socket listen(2) backlog (default 16; only meaningful with $(b,--socket)).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running solve service: newline-delimited JSON requests over stdin or a Unix \
          socket, answered from sharded LRU caches backed by persistent domain pools; \
          crash-safe via a write-ahead cache journal and self-healing via per-solver circuit \
          breakers.")
    Term.(
      ret
        (const run $ obs_term
        $ par_jobs_term [ "jobs"; "j" ]
        $ guard_term $ socket $ cache $ max_batch $ shards $ max_inflight $ cache_file $ fsync
        $ compact_every $ breaker_threshold $ breaker_cooldown $ backlog))

(* request lines: the positional ones, else those of [file] ('-' or
   none = stdin); blank lines are dropped *)
let request_lines file reqs =
  let lines =
    match (reqs, file) with
    | [], (None | Some "-") -> String.split_on_char '\n' (In_channel.input_all stdin)
    | [], Some path ->
      String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all)
    | rs, None -> rs
    | _ :: _, Some _ -> failwith "give positional requests or --file, not both"
  in
  List.filter (fun l -> String.trim l <> "") lines

let client_cmd =
  let run socket file reqs retries backoff_ms =
    if retries < 0 then `Error (false, "--retries must be >= 0")
    else if backoff_ms <= 0.0 then `Error (false, "--backoff-ms must be > 0")
    else
      wrap_errors @@ fun () ->
      match request_lines file reqs with
      | [] -> `Ok ()
      | lines -> (
        let backoff = Serve_client.backoff ~base_ms:backoff_ms ~seed:(Unix.getpid ()) () in
        let replies =
          Serve_client.with_retry backoff ~retries (Serve_client.exchange ~socket) lines
        in
        List.iter print_endline replies;
        (* exit-code contract: first error reply's class decides, same
           codes as the one-shot subcommands *)
        match List.find_opt (fun r -> Serve_client.exit_code r <> 0) replies with
        | None -> `Ok ()
        | Some bad -> Stdlib.exit (Serve_client.exit_code bad))
  in
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket of the running $(b,pasched serve).")
  in
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"PATH"
          ~doc:"Read request lines from $(docv) ('-' = stdin) instead of the command line.")
  in
  let reqs = Arg.(value & pos_all string [] & info [] ~docv:"REQUEST" ~doc:"Request lines (JSON).") in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry budget: transport failures (connect refused, connection closed mid-reply) \
             resend the unanswered lines and transient replies (busy admission sheds, degraded \
             breaker refusals) resend just those lines, with capped exponential backoff and \
             decorrelated jitter between attempts.  Safe because requests are idempotent by \
             canonical key.  Default 0 = fail fast.")
  in
  let backoff_ms =
    Arg.(
      value & opt float 100.0
      & info [ "backoff-ms" ] ~docv:"MS"
          ~doc:"Base backoff before the first retry (default 100; sleeps are uniform in \
                [base, 3x previous], capped at 10s).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send request lines to a running serve daemon and print the replies; exits with the \
          first error reply's class code (7 = transient: shed busy or breaker degraded).")
    Term.(ret (const run $ socket $ file $ reqs $ retries $ backoff_ms))

let soak_cmd =
  let run obs par_jobs socket file shards max_inflight cache_capacity cache_file window retries
      backoff_ms chaos kill_at =
    match apply_par_jobs par_jobs with
    | exception Invalid_argument msg -> `Error (false, msg)
    | () ->
      if window < 1 then `Error (false, "--window must be >= 1")
      else if shards < 1 then `Error (false, "--shards must be >= 1")
      else if max_inflight < 0 then `Error (false, "--max-inflight must be >= 0")
      else if retries < 0 then `Error (false, "--retries must be >= 0")
      else if backoff_ms <= 0.0 then `Error (false, "--backoff-ms must be > 0")
      else if kill_at < 0.0 || kill_at > 1.0 then `Error (false, "--kill-at must be in [0, 1]")
      else if chaos && socket = None then `Error (false, "--chaos requires --socket")
      else if chaos && cache_file = None then
        `Error (false, "--chaos requires --cache-file (the journal is what recovers the cache)")
      else if chaos && retries < 1 then
        `Error (false, "--chaos requires --retries >= 1 (retry is what masks the outage)")
      else
        wrap_errors @@ fun () ->
        with_obs obs "soak" @@ fun () ->
        let lines = request_lines file [] in
        if lines = [] then failwith "no requests to soak with (pipe pasched sim --emit-requests)";
        let backoff () = Serve_client.backoff ~base_ms:backoff_ms ~seed:(Unix.getpid ()) () in
        let { Serve_client.ok; busy; errors; latency = s; wall_s = wall } =
          match (socket, cache_file) with
          | Some socket, Some cache_file when chaos ->
            let { Serve_client.killed_window; pre_cache; post_cache; replayed; skipped_corrupt;
                  warm_fraction = warm; rechecked; mismatches; soak } =
              Serve_client.chaos ~exe:Sys.executable_name ~socket ~cache_file ~shards
                ~cache_capacity ~max_inflight ~window ~retries ~backoff:(backoff ()) ~kill_at lines
            in
            Printf.printf
              "chaos: killed_window %d pre_cache %d post_cache %d replayed %d skipped_corrupt %d \
               warm_fraction %.3f\n"
              killed_window pre_cache post_cache replayed skipped_corrupt warm;
            Printf.printf "chaos: recheck %d mismatches %d\n" rechecked mismatches;
            if warm < 0.9 then
              failwith (Printf.sprintf "chaos: warm recovery %.3f below the 0.9 threshold" warm);
            if mismatches > 0 then
              failwith
                (Printf.sprintf "chaos: %d post-crash replies diverged from pre-crash answers"
                   mismatches);
            soak
          | Some socket, _ ->
            (* one persistent pipelined connection, re-established by the
               retry loop whenever the daemon goes away under us *)
            Serve_client.with_connection ~socket (fun exchange ->
                Serve_client.soak ~window
                  ~exchange:(Serve_client.with_retry (backoff ()) ~retries exchange)
                  lines)
          | None, _ ->
            (* in-process mode: the same sharded front end the daemon
               runs, driven directly — no transport in the numbers *)
            let t =
              Serve_shard.create ?jobs:par_jobs ~shards ~cache_capacity ~max_inflight ?cache_file ()
            in
            Fun.protect
              ~finally:(fun () -> Serve_shard.shutdown t)
              (fun () -> Serve_client.soak ~window ~exchange:(Serve_shard.handle_batch t) lines)
        in
        let n = List.length lines in
        Printf.printf "soak: requests %d ok %d busy %d error %d\n" n ok busy errors;
        Printf.printf "soak: latency_s p50 %.6g p95 %.6g p99 %.6g max %.6g mean %.6g\n"
          s.Streaming_metrics.flow_p50 s.Streaming_metrics.flow_p95 s.Streaming_metrics.flow_p99
          s.Streaming_metrics.flow_max s.Streaming_metrics.flow_mean;
        Printf.printf "soak: wall_s %.3f throughput_rps %.1f\n" wall
          (if wall > 0.0 then float_of_int n /. wall else 0.0);
        `Ok ()
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Drive a running $(b,pasched serve) over its Unix socket.  Without this flag the soak \
             runs an in-process sharded front end instead (see $(b,--shards)).")
  in
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"PATH"
          ~doc:"Read request lines from $(docv) ('-' = stdin, the default).")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N" ~doc:"In-process mode: shard count (default 1).")
  in
  let max_inflight =
    Arg.(
      value & opt int 0
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"In-process mode: per-shard admission bound (0 = unbounded).")
  in
  let cache =
    Arg.(
      value & opt int 256
      & info [ "cache" ] ~docv:"N" ~doc:"In-process mode: per-shard LRU capacity (default 256).")
  in
  let cache_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-file" ] ~docv:"PATH" ~doc:"In-process mode: LRU persistence file.")
  in
  let window =
    Arg.(
      value & opt int 64
      & info [ "window" ] ~docv:"N"
          ~doc:
            "Pipelining window: requests are sent (or dispatched) $(docv) at a time and latency is \
             measured per window (default 64).")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Socket mode: retry transient failures (connection loss, busy, degraded) up to $(docv) \
             times per window with capped exponential backoff (default 0 = fail fast).")
  in
  let backoff_ms =
    Arg.(
      value & opt float 100.0
      & info [ "backoff-ms" ] ~docv:"MS"
          ~doc:"Base retry backoff in milliseconds; sleeps jitter up from here (default 100).")
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Kill-chaos drill: the soak spawns its own daemon, SIGKILLs it mid-run at \
             $(b,--kill-at), restarts it, and asserts warm recovery — >= 90% of the pre-crash \
             cache entries back, byte-identical replies for pre-crash requests, and the outage \
             masked by $(b,--retries).  Requires $(b,--socket), $(b,--cache-file) and \
             $(b,--retries) >= 1.")
  in
  let kill_at =
    Arg.(
      value & opt float 0.5
      & info [ "kill-at" ] ~docv:"F"
          ~doc:"Chaos mode: kill the daemon at fraction $(docv) of the windows (default 0.5).")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Soak a serve daemon (or an in-process sharded front end) with emitted request traces and \
          report p50/p95/p99 request latency, shed counts and throughput.  With $(b,--chaos), run \
          a kill-recovery drill against the crash-safe journal.")
    Term.(
      ret
        (const run $ obs_term
        $ par_jobs_term [ "jobs"; "j" ]
        $ socket $ file $ shards $ max_inflight $ cache $ cache_file $ window $ retries
        $ backoff_ms $ chaos $ kill_at))

let () =
  let doc = "power-aware speed-scaling schedulers (Bunde, SPAA 2006)" in
  let info = Cmd.info "pasched" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      ((solve_cmd :: List.map alias_cmd alias_rows)
      @ [ simulate_cmd; sim_cmd; workload_cmd; deadline_cmd; discrete_cmd; precedence_cmd;
          thermal_cmd; fuzz_cmd; serve_cmd; client_cmd; soak_cmd ])
  in
  (* exit-code contract: 0 ok, 1 fuzz counterexample (via Stdlib.exit
     above), 2 usage / invalid input, 3 infeasible, 4 no convergence,
     5 deadline, 6 solver fault (3-6 via Guard_error in wrap_errors),
     7 transient — shed busy by admission control or degraded by an
     open circuit breaker (client only; retryable),
     125 unexpected exception *)
  exit
    (match Cmd.eval_value group with
    | Ok (`Ok ()) | Ok `Help | Ok `Version -> 0
    | Error `Parse | Error `Term -> 2
    | Error `Exn -> 125)
