type task_schedule = { task : int; proc : int; start : float; speed : float }

type t = {
  tasks : task_schedule list;
  makespan : float;
  energy : float;
}

(* heaviest downstream path including the task itself, in duration terms:
   the list-scheduling priority *)
let downstream_durations dag durations =
  let n = Dag.n dag in
  let lp = Array.make n 0.0 in
  List.iter
    (fun u ->
      let best = List.fold_left (fun acc v -> Float.max acc lp.(v)) 0.0 (Dag.succs dag u) in
      lp.(u) <- best +. durations.(u))
    (List.rev (Dag.topological_order dag));
  lp

(* Graham list scheduling in topological priority order: when a
   processor frees up, start the ready task with the heaviest remaining
   critical path, at its prescribed speed *)
let list_schedule dag ~m ~speeds =
  if m <= 0 then invalid_arg "Precedence.list_schedule: m <= 0";
  let n = Dag.n dag in
  if Array.length speeds <> n then invalid_arg "Precedence.list_schedule: speeds length mismatch";
  Array.iter
    (fun s -> if s <= 0.0 || not (Float.is_finite s) then invalid_arg "Precedence.list_schedule: bad speed")
    speeds;
  let durations = Array.init n (fun i -> Dag.work dag i /. speeds.(i)) in
  let priority = downstream_durations dag durations in
  let completion = Array.make n Float.nan in
  let scheduled = Array.make n false in
  let proc_free = Array.make m 0.0 in
  let result = ref [] in
  for _ = 1 to n do
    (* tasks whose predecessors are all scheduled *)
    let candidates =
      List.filter
        (fun v -> (not scheduled.(v)) && List.for_all (fun u -> scheduled.(u)) (Dag.preds dag v))
        (Dag.topological_order dag)
    in
    (* priority-greedy: heaviest downstream path first, then earliest start *)
    let best = ref None in
    List.iter
      (fun v ->
        let ready = List.fold_left (fun acc u -> Float.max acc completion.(u)) 0.0 (Dag.preds dag v) in
        let proc = ref 0 in
        for p = 1 to m - 1 do
          if proc_free.(p) < proc_free.(!proc) then proc := p
        done;
        let start = Float.max ready proc_free.(!proc) in
        let key = (priority.(v), -.start) in
        match !best with
        | Some (_, _, _, bkey) when bkey >= key -> ()
        | _ -> best := Some (v, !proc, start, key))
      candidates;
    match !best with
    | None -> invalid_arg "Precedence.list_schedule: no candidate (unreachable)"
    | Some (v, p, start, _) ->
      scheduled.(v) <- true;
      completion.(v) <- start +. durations.(v);
      proc_free.(p) <- completion.(v);
      result := { task = v; proc = p; start; speed = speeds.(v) } :: !result
  done;
  let tasks = List.sort (fun a b -> compare (a.start, a.task) (b.start, b.task)) !result in
  let makespan = Array.fold_left Float.max 0.0 completion in
  { tasks; makespan; energy = Float.nan }

let energy_of_speeds ~alpha dag speeds =
  let acc = ref 0.0 in
  for i = 0 to Dag.n dag - 1 do
    acc := !acc +. (Dag.work dag i *. (speeds.(i) ** (alpha -. 1.0)))
  done;
  !acc

let with_energy ~alpha dag speeds t = { t with energy = energy_of_speeds ~alpha dag speeds }

let scale_to_budget ~alpha ~energy dag speeds =
  let e = energy_of_speeds ~alpha dag speeds in
  let c = (energy /. e) ** (1.0 /. (alpha -. 1.0)) in
  Array.map (fun s -> s *. c) speeds

let uniform ~alpha ~m ~energy dag =
  if Dag.n dag = 0 then { tasks = []; makespan = 0.0; energy = 0.0 }
  else begin
    let sigma = (energy /. Dag.total_work dag) ** (1.0 /. (alpha -. 1.0)) in
    let speeds = Array.make (Dag.n dag) sigma in
    with_energy ~alpha dag speeds (list_schedule dag ~m ~speeds)
  end

let critical_boost ~alpha ~m ~energy ?(rounds = 4) dag =
  if Dag.n dag = 0 then { tasks = []; makespan = 0.0; energy = 0.0 }
  else begin
    let n = Dag.n dag in
    let lp_to = Dag.longest_path_to dag in
    let works = Array.init n (Dag.work dag) in
    let lp_from = downstream_durations dag works in
    (* criticality: heaviest work path through the task *)
    let crit = Array.init n (fun i -> lp_to.(i) +. lp_from.(i) -. works.(i)) in
    let candidates =
      List.init rounds (fun r ->
          let gamma = float_of_int r /. float_of_int (Stdlib.max 1 (rounds - 1)) in
          Array.init n (fun i -> crit.(i) ** (gamma /. alpha)))
    in
    let solve speeds =
      let speeds = scale_to_budget ~alpha ~energy dag speeds in
      with_energy ~alpha dag speeds (list_schedule dag ~m ~speeds)
    in
    List.fold_left
      (fun best speeds ->
        let t = solve speeds in
        if t.makespan < best.makespan then t else best)
      (uniform ~alpha ~m ~energy dag)
      candidates
  end

let lower_bound ~alpha ~m ~energy dag =
  if Dag.n dag = 0 then 0.0
  else begin
    let beta = 1.0 /. (alpha -. 1.0) in
    let wcp = Dag.critical_path_work dag in
    let w = Dag.total_work dag in
    let chain = (wcp ** (alpha *. beta)) *. (energy ** -.beta) in
    let load = (((w /. float_of_int m) ** alpha) *. float_of_int m /. energy) ** beta in
    Float.max chain load
  end

let feasible dag ~m t =
  let n = Dag.n dag in
  let by_task = Hashtbl.create 16 in
  List.iter (fun ts -> Hashtbl.replace by_task ts.task ts) t.tasks;
  let all_present = List.length t.tasks = n && Hashtbl.length by_task = n in
  let completion ts = ts.start +. (Dag.work dag ts.task /. ts.speed) in
  let precedence_ok =
    List.for_all
      (fun ts ->
        List.for_all
          (fun u ->
            match Hashtbl.find_opt by_task u with
            | None -> false
            | Some pu -> completion pu <= ts.start +. 1e-9)
          (Dag.preds dag ts.task))
      t.tasks
  in
  let overlap_ok =
    let ok = ref true in
    for p = 0 to m - 1 do
      let on_p = List.filter (fun ts -> ts.proc = p) t.tasks in
      let sorted = List.sort (fun a b -> compare a.start b.start) on_p in
      let rec scan = function
        | a :: (b :: _ as rest) ->
          if b.start < completion a -. 1e-9 then ok := false;
          scan rest
        | _ -> ()
      in
      scan sorted
    done;
    !ok
  in
  all_present && precedence_ok && overlap_ok
