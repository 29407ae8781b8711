let c_states = Obs.counter "dp_makespan.states_expanded"

let block_feasible inst ~first ~last ~speed =
  Block.jobs_feasible inst
    { Block.first; last; work = 0.0 (* unused *); start = (Instance.job inst first).Job.release; speed }

(* j -> the minimum energy that schedules jobs 0..j in pinned blocks
   completing exactly at r_(j+1) (infinity when impossible) *)
let min_prefix_energy model inst =
  let n = Instance.n inst in
  let release i = (Instance.job inst i).Job.release in
  let prefix_work = Array.make (n + 1) 0.0 in
  for i = 0 to n - 1 do
    prefix_work.(i + 1) <- prefix_work.(i) +. (Instance.job inst i).Job.work
  done;
  let work_range i j = prefix_work.(j + 1) -. prefix_work.(i) in
  let dp = Array.make n Float.infinity in
  (* dp.(j): min energy for jobs 0..j, each block ending at the next release *)
  (* O(n^2) states; counted in one batch below to keep the loop clean *)
  if n >= 2 then Obs.add c_states (n * (n - 1) / 2);
  for j = 0 to n - 2 do
    for i = 0 to j do
      Fault.tick ();
      let before = if i = 0 then 0.0 else dp.(i - 1) in
      if Float.is_finite before then begin
        let w = work_range i j in
        let speed = Block.window_speed ~work:w ~start:(release i) ~next_release:(release (j + 1)) in
        if Float.is_finite speed && block_feasible inst ~first:i ~last:j ~speed then begin
          let e = before +. Power_model.energy_run model ~work:w ~speed in
          if e < dp.(j) then dp.(j) <- e
        end
      end
    done
  done;
  dp

let best_split model ~energy inst =
  Obs.span "dp_makespan.best_split" @@ fun () ->
  Fault.enter "dp.solve";
  let n = Instance.n inst in
  if n = 0 then None
  else begin
    if energy <= 0.0 then invalid_arg "Dp_makespan: energy budget must be positive";
    let release i = (Instance.job inst i).Job.release in
    let prefix_work = Array.make (n + 1) 0.0 in
    for i = 0 to n - 1 do
      prefix_work.(i + 1) <- prefix_work.(i) +. (Instance.job inst i).Job.work
    done;
    let dp = min_prefix_energy model inst in
    let best = ref None in
    for s = 0 to n - 1 do
      let before = if s = 0 then 0.0 else dp.(s - 1) in
      let remaining = energy -. before in
      if Float.is_finite before && remaining > 0.0 then begin
        let w = prefix_work.(n) -. prefix_work.(s) in
        match Power_model.speed_for_energy_opt model ~work:w ~energy:remaining with
        | None -> ()
        | Some speed ->
          if block_feasible inst ~first:s ~last:(n - 1) ~speed then begin
            let m = release s +. (w /. speed) in
            match !best with
            | Some (m', _, _) when m' <= m -> ()
            | _ -> best := Some (m, s, speed)
          end
      end
    done;
    !best
  end

(* reconstruct the pinned-prefix blocks achieving dp.(s-1) *)
let reconstruct_prefix model inst upto =
  let release i = (Instance.job inst i).Job.release in
  let prefix_work = Array.make (Instance.n inst + 1) 0.0 in
  for i = 0 to Instance.n inst - 1 do
    prefix_work.(i + 1) <- prefix_work.(i) +. (Instance.job inst i).Job.work
  done;
  let dp = min_prefix_energy model inst in
  let rec go j acc =
    if j < 0 then acc
    else begin
      (* find i achieving dp.(j) *)
      let found = ref None in
      for i = j downto 0 do
        let before = if i = 0 then 0.0 else dp.(i - 1) in
        if Float.is_finite before && !found = None then begin
          let w = prefix_work.(j + 1) -. prefix_work.(i) in
          let speed = Block.window_speed ~work:w ~start:(release i) ~next_release:(release (j + 1)) in
          if Float.is_finite speed
             && block_feasible inst ~first:i ~last:j ~speed
             && before +. Power_model.energy_run model ~work:w ~speed <= dp.(j) +. (1e-9 *. (1.0 +. dp.(j)))
          then found := Some i
        end
      done;
      match !found with
      | None -> invalid_arg "Dp_makespan: inconsistent DP table"
      | Some i ->
        let w = prefix_work.(j + 1) -. prefix_work.(i) in
        let speed = Block.window_speed ~work:w ~start:(release i) ~next_release:(release (j + 1)) in
        go (i - 1) ({ Block.first = i; last = j; work = w; start = release i; speed } :: acc)
    end
  in
  go upto []

let solve model ~energy inst =
  match best_split model ~energy inst with
  | None -> Schedule.of_entries []
  | Some (_, s, speed) ->
    let n = Instance.n inst in
    let w =
      let acc = ref 0.0 in
      for i = s to n - 1 do
        acc := !acc +. (Instance.job inst i).Job.work
      done;
      !acc
    in
    let last_block =
      { Block.first = s; last = n - 1; work = w; start = (Instance.job inst s).Job.release; speed }
    in
    let blocks = reconstruct_prefix model inst (s - 1) @ [ last_block ] in
    Schedule.of_entries (List.concat_map (Block.entries inst 0) blocks)

let makespan model ~energy inst =
  match best_split model ~energy inst with None -> 0.0 | Some (m, _, _) -> m
