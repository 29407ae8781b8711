open Capability

(* ---- helpers shared by the adapters ---- *)

let budget (p : Problem.t) =
  match p.Problem.mode with Budget e -> e | _ -> invalid_arg "Builtin: budget mode expected"

let target (p : Problem.t) =
  match p.Problem.mode with Target v -> v | _ -> invalid_arg "Builtin: target mode expected"

(* [?energy]: the solver's own figure, when it has one; otherwise the
   schedule's energy is summed here *)
let sched_result ~solver ~problem ~value ?energy ?(diagnostics = []) schedule =
  let energy =
    match energy with Some e -> e | None -> Schedule.energy (Problem.model problem) schedule
  in
  { Solve_result.solver; problem; schedule = Some schedule; value; energy; pareto = None; diagnostics }

let bare_result ~solver ~problem ~value ~energy ?(diagnostics = []) () =
  { Solve_result.solver; problem; schedule = None; value; energy; pareto = None; diagnostics }

let djobs_of (p : Problem.t) inst =
  let deadlines = Option.get p.Problem.deadlines in
  Array.to_list
    (Array.mapi
       (fun i (j : Job.t) ->
         Djob.make ~id:i ~release:j.Job.release ~deadline:deadlines.(i) ~work:j.Job.work)
       (Instance.jobs inst))

(* ---- uniprocessor makespan ---- *)

module Incmerge_solver = struct
  let name = "incmerge"
  let doc = "linear-time optimal uniprocessor makespan under an energy budget (paper Section 3.1)"
  let capability =
    { objective = Problem.Makespan; settings = Uni_only; modes = [ Budget_mode ]; exact = true; requires = [] }

  let solve problem inst =
    let s = Incmerge.solve (Problem.model problem) ~energy:(budget problem) inst in
    sched_result ~solver:name ~problem ~value:(Metrics.makespan s) s
end

module Dp_solver = struct
  let name = "dp-makespan"
  let doc = "quadratic dynamic-programming baseline for uniprocessor makespan (Section 3.1 sketch)"
  let capability =
    { objective = Problem.Makespan; settings = Uni_only; modes = [ Budget_mode ]; exact = true;
      requires = [ Max_jobs 512 ] }

  let solve problem inst =
    let s = Dp_makespan.solve (Problem.model problem) ~energy:(budget problem) inst in
    sched_result ~solver:name ~problem ~value:(Metrics.makespan s) s
end

module Brute_solver = struct
  let name = "brute"
  let doc = "exhaustive 2^(n-1) block-partition search for uniprocessor makespan (ground truth)"
  let capability =
    { objective = Problem.Makespan; settings = Uni_only; modes = [ Budget_mode ]; exact = true;
      requires = [ Max_jobs 12 ] }

  let solve problem inst =
    let s = Brute.solve (Problem.model problem) ~energy:(budget problem) inst in
    sched_result ~solver:name ~problem ~value:(Metrics.makespan s) s
end

module Frontier_solver = struct
  let name = "frontier"
  let doc = "all non-dominated energy/makespan schedules (paper Section 3.2, Figures 1-3)"
  let capability =
    { objective = Problem.Makespan; settings = Uni_only; modes = [ Budget_mode; Pareto_mode ];
      exact = true; requires = [] }

  let solve problem inst =
    let f = Frontier.build (Problem.model problem) inst in
    match problem.Problem.mode with
    | Problem.Pareto ->
      {
        Solve_result.solver = name;
        problem;
        schedule = None;
        value = Float.nan;
        energy = Float.nan;
        pareto =
          Some
            {
              Solve_result.breakpoints = Frontier.breakpoints f;
              value_at = Frontier.makespan_at f;
              sample = (fun ~lo ~hi ~n -> Frontier.sample f ~lo ~hi ~n);
            };
        diagnostics = [];
      }
    | _ ->
      let e = budget problem in
      sched_result ~solver:name ~problem ~value:(Frontier.makespan_at f e) (Frontier.schedule_at f e)
end

module Server_solver = struct
  let name = "server"
  let doc = "minimum energy for a makespan target (the server projection of the frontier)"
  let capability =
    { objective = Problem.Makespan; settings = Uni_only; modes = [ Target_mode ]; exact = true;
      requires = [] }

  let solve problem inst =
    let model = Problem.model problem in
    let makespan = target problem in
    let e = Server.min_energy model ~makespan inst in
    let s = Server.solve model ~makespan inst in
    sched_result ~solver:name ~problem ~value:(Metrics.makespan s)
      ~diagnostics:[ ("min_energy", e) ] s
end

module Bounded_speed_solver = struct
  let name = "bounded-speed"
  let doc = "uniprocessor makespan under a maximum-speed cap (clamp-and-spill heuristic, Section 6)"
  let capability =
    { objective = Problem.Makespan; settings = Uni_only; modes = [ Budget_mode ]; exact = false;
      requires = [ Needs_speed_cap ] }

  let solve problem inst =
    let cap = Option.get problem.Problem.speed_cap in
    let s = Bounded_speed.solve (Problem.model problem) ~energy:(budget problem) ~cap inst in
    sched_result ~solver:name ~problem ~value:(Metrics.makespan s) ~diagnostics:[ ("cap", cap) ] s
end

module Discrete_solver = struct
  let name = "discrete-makespan"
  let doc = "uniprocessor makespan with discrete speed levels (two-level emulation, Section 6)"
  let capability =
    { objective = Problem.Makespan; settings = Uni_only; modes = [ Budget_mode ]; exact = false;
      requires = [ Needs_levels ] }

  let solve problem inst =
    let levels = Discrete_levels.create (Option.get problem.Problem.levels) in
    let model = Problem.model problem in
    let d = Discrete_makespan.solve model levels ~energy:(budget problem) inst in
    bare_result ~solver:name ~problem ~value:d.Discrete_makespan.makespan
      ~energy:d.Discrete_makespan.energy
      ~diagnostics:
        [ ("continuous_relaxation", Incmerge.makespan model ~energy:(budget problem) inst) ]
      ()
end

(* ---- multiprocessor makespan ---- *)

module Multi_cyclic_solver = struct
  let name = "multi-cyclic"
  let doc = "optimal multiprocessor makespan for equal-work jobs via cyclic distribution (Theorem 10)"
  let capability =
    { objective = Problem.Makespan; settings = Any_procs; modes = [ Budget_mode ]; exact = true;
      requires = [ Equal_work ] }

  let solve problem inst =
    let s =
      Multi.solve (Problem.model problem) ~m:problem.Problem.procs ~energy:(budget problem) inst
    in
    sched_result ~solver:name ~problem ~value:(Metrics.makespan s) s
end

module Multi_brute_solver = struct
  let name = "multi-brute"
  let doc = "exhaustive m^n assignment search for multiprocessor makespan (ground truth)"
  let capability =
    { objective = Problem.Makespan; settings = Any_procs; modes = [ Budget_mode ]; exact = true;
      requires = [ Max_jobs 8 ] }

  let solve problem inst =
    let v =
      Multi.brute_makespan (Problem.model problem) ~m:problem.Problem.procs
        ~energy:(budget problem) inst
    in
    bare_result ~solver:name ~problem ~value:v ~energy:(budget problem) ()
end

module Multi_general_solver = struct
  let name = "multi-general"
  let doc = "greedy + local-search multiprocessor makespan for general instances (NP-hard, Theorem 11)"
  let capability =
    { objective = Problem.Makespan; settings = Any_procs; modes = [ Budget_mode ]; exact = false;
      requires = [] }

  let solve problem inst =
    let s =
      Multi_general.solve (Problem.model problem) ~m:problem.Problem.procs
        ~energy:(budget problem) inst
    in
    sched_result ~solver:name ~problem ~value:(Metrics.makespan s) s
end

module Load_balance_solver = struct
  let name = "load-balance"
  let doc = "L_alpha-norm load balancing for common-release unequal works (LPT + local search)"
  let capability =
    { objective = Problem.Makespan; settings = Any_procs; modes = [ Budget_mode ]; exact = false;
      requires = [ Common_release ] }

  let solve problem inst =
    let s =
      Load_balance.solve ~alpha:problem.Problem.alpha ~m:problem.Problem.procs
        ~energy:(budget problem) inst
    in
    sched_result ~solver:name ~problem ~value:(Metrics.makespan s) s
end

(* ---- flow objectives ---- *)

module Flow_solver = struct
  let name = "flow"
  let doc = "total flow for equal-work jobs under an energy budget (PUW via Theorem 1, Section 4)"
  let capability =
    { objective = Problem.Total_flow; settings = Uni_only; modes = [ Budget_mode ]; exact = true;
      requires = [ Equal_work ] }

  let solve problem inst =
    let sol = Flow.solve_budget ~alpha:problem.Problem.alpha ~energy:(budget problem) inst in
    sched_result ~solver:name ~problem ~value:sol.Flow.flow ~energy:sol.Flow.energy
      ~diagnostics:[ ("last_speed", sol.Flow.last_speed) ]
      (Flow.schedule inst sol)
end

module Flow_spt_solver = struct
  let name = "flow-spt"
  let doc = "exact total flow for unequal works with a common release (SPT order, KKT speeds)"
  let capability =
    { objective = Problem.Total_flow; settings = Uni_only; modes = [ Budget_mode ]; exact = true;
      requires = [ Common_release ] }

  let solve problem inst =
    let sol, s =
      Flow_spt.solve_instance ~alpha:problem.Problem.alpha ~energy:(budget problem) inst
    in
    sched_result ~solver:name ~problem ~value:sol.Flow_spt.flow ~energy:sol.Flow_spt.energy s
end

module Multi_flow_solver = struct
  let name = "multi-flow"
  let doc = "multiprocessor total flow for equal-work jobs (cyclic + shared last speed, Section 5)"
  let capability =
    { objective = Problem.Total_flow; settings = Any_procs; modes = [ Budget_mode ]; exact = true;
      requires = [ Equal_work ] }

  let solve problem inst =
    let m = problem.Problem.procs in
    let sol = Multi_flow.solve_budget ~alpha:problem.Problem.alpha ~m ~energy:(budget problem) inst in
    sched_result ~solver:name ~problem ~value:sol.Multi_flow.flow ~energy:sol.Multi_flow.energy
      ~diagnostics:[ ("last_speed", sol.Multi_flow.last_speed) ]
      (Multi_flow.schedule ~m inst sol)
end

module Max_flow_solver = struct
  let name = "max-flow"
  let doc = "minimum worst-case flow under an energy budget (YDS duality, bisection)"
  let capability =
    { objective = Problem.Max_flow; settings = Uni_only; modes = [ Budget_mode ]; exact = true;
      requires = [] }

  let solve problem inst =
    let f, s = Max_flow.solve (Problem.model problem) ~energy:(budget problem) inst in
    sched_result ~solver:name ~problem ~value:f s
end

module Max_flow_cyclic_solver = struct
  let name = "max-flow-cyclic"
  let doc = "multiprocessor minimum worst-case flow for equal-work jobs (cyclic reduction)"
  let capability =
    { objective = Problem.Max_flow; settings = Any_procs; modes = [ Budget_mode ]; exact = true;
      requires = [ Equal_work ] }

  let solve problem inst =
    let f, s =
      Max_flow.solve_multi (Problem.model problem) ~m:problem.Problem.procs
        ~energy:(budget problem) inst
    in
    sched_result ~solver:name ~problem ~value:f s
end

module Weighted_flow_solver = struct
  let name = "weighted-flow"
  let doc = "closed-form weighted flow for equal-work common-release jobs (weight order, KKT speeds)"
  let capability =
    { objective = Problem.Weighted_flow; settings = Uni_only; modes = [ Budget_mode ]; exact = true;
      requires = [ Equal_work; Common_release; Needs_weights ] }

  let solve problem inst =
    if Instance.is_empty inst then
      bare_result ~solver:name ~problem ~value:0.0 ~energy:0.0 ()
    else begin
      let weights = Option.get problem.Problem.weights in
      let work = (Instance.job inst 0).Job.work in
      let sol =
        Weighted_flow.solve ~alpha:problem.Problem.alpha ~energy:(budget problem) ~work ~weights
      in
      let entries =
        List.init (Array.length sol.Weighted_flow.order) (fun pos ->
            let id = sol.Weighted_flow.order.(pos) in
            let speed = sol.Weighted_flow.speeds.(pos) in
            let start = sol.Weighted_flow.completions.(pos) -. (work /. speed) in
            { Schedule.job = Instance.job inst id; proc = 0; start; speed })
      in
      sched_result ~solver:name ~problem ~value:sol.Weighted_flow.weighted_flow
        ~energy:sol.Weighted_flow.energy (Schedule.of_entries entries)
    end
end

(* ---- deadline energy ---- *)

module Yds_solver = struct
  let name = "yds"
  let doc = "Yao-Demers-Shenker optimal offline energy for deadline feasibility (Section 2)"
  let capability =
    { objective = Problem.Deadline_energy; settings = Uni_only; modes = [ Feasible_mode ];
      exact = true; requires = [ Needs_deadlines ] }

  let solve problem inst =
    let r = Yds.solve (Problem.model problem) (djobs_of problem inst) in
    bare_result ~solver:name ~problem ~value:r.Yds.energy ~energy:r.Yds.energy ()
end

module Avr_solver = struct
  let name = "avr"
  let doc = "Average Rate online deadline scheduling (2^(a-1)·a^a-competitive)"
  let capability =
    { objective = Problem.Deadline_energy; settings = Uni_only; modes = [ Feasible_mode ];
      exact = false; requires = [ Needs_deadlines ] }

  let solve problem inst =
    let r = Avr.run (Problem.model problem) (djobs_of problem inst) in
    bare_result ~solver:name ~problem ~value:r.Avr.energy ~energy:r.Avr.energy ()
end

module Oa_solver = struct
  let name = "optimal-available"
  let doc = "Optimal Available online deadline scheduling (a^a-competitive)"
  let capability =
    { objective = Problem.Deadline_energy; settings = Uni_only; modes = [ Feasible_mode ];
      exact = false; requires = [ Needs_deadlines ] }

  let solve problem inst =
    let r = Optimal_available.run (Problem.model problem) (djobs_of problem inst) in
    bare_result ~solver:name ~problem ~value:r.Optimal_available.energy
      ~energy:r.Optimal_available.energy ()
end

let initialized = ref false

let init () =
  if not !initialized then begin
    initialized := true;
    List.iter Engine.register
      [
        (module Incmerge_solver : Engine.SOLVER);
        (module Dp_solver);
        (module Brute_solver);
        (module Frontier_solver);
        (module Server_solver);
        (module Bounded_speed_solver);
        (module Discrete_solver);
        (module Multi_cyclic_solver);
        (module Multi_brute_solver);
        (module Multi_general_solver);
        (module Load_balance_solver);
        (module Flow_solver);
        (module Flow_spt_solver);
        (module Multi_flow_solver);
        (module Max_flow_solver);
        (module Max_flow_cyclic_solver);
        (module Weighted_flow_solver);
        (module Yds_solver);
        (module Avr_solver);
        (module Oa_solver);
      ]
  end
