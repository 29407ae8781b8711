let subs_of_assignment ~m inst assignment =
  let jobs = Instance.jobs inst in
  Array.init m (fun p ->
      Instance.create
        (List.filteri (fun i _ -> assignment.(i) = p) (Array.to_list jobs)))

let eval model ~m ~energy inst assignment =
  Multi.makespan_of_assignment model ~energy (subs_of_assignment ~m inst assignment)

let greedy_start ~m inst =
  (* release order, each job to the processor with the least assigned
     work so far — reduces to cyclic for equal works *)
  let n = Instance.n inst in
  let loads = Array.make m 0.0 in
  Array.init n (fun i ->
      let j = Instance.job inst i in
      let p = ref 0 in
      for q = 1 to m - 1 do
        if loads.(q) < loads.(!p) -. 1e-12 then p := q
      done;
      loads.(!p) <- loads.(!p) +. j.Job.work;
      !p)

let local_search_pass model ~m ~energy inst assignment =
  let n = Instance.n inst in
  let best = ref (eval model ~m ~energy inst assignment) in
  let improved = ref true in
  let rounds = ref 0 in
  while !improved && !rounds < 20 do
    improved := false;
    incr rounds;
    (* single-job moves *)
    for i = 0 to n - 1 do
      let original = assignment.(i) in
      for p = 0 to m - 1 do
        if p <> original then begin
          assignment.(i) <- p;
          let v = eval model ~m ~energy inst assignment in
          if v < !best -. (1e-9 *. (1.0 +. !best)) then begin
            best := v;
            improved := true
          end
          else assignment.(i) <- original
        end
      done
    done;
    (* pairwise swaps *)
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if assignment.(i) <> assignment.(j) then begin
          let pi = assignment.(i) and pj = assignment.(j) in
          assignment.(i) <- pj;
          assignment.(j) <- pi;
          let v = eval model ~m ~energy inst assignment in
          if v < !best -. (1e-9 *. (1.0 +. !best)) then begin
            best := v;
            improved := true
          end
          else begin
            assignment.(i) <- pi;
            assignment.(j) <- pj
          end
        end
      done
    done
  done;
  assignment

(* processor index per job, release order: the greedy start, then
   move/swap improvement unless [local_search] is off *)
let assign model ~m ~energy ?(local_search = true) inst =
  if m <= 0 then invalid_arg "Multi_general.assign: m <= 0";
  let a = greedy_start ~m inst in
  if local_search && Instance.n inst > 1 then local_search_pass model ~m ~energy inst a else a

let solve model ~m ~energy ?local_search inst =
  if Instance.is_empty inst then Schedule.of_entries []
  else begin
    let a = assign model ~m ~energy ?local_search inst in
    let subs = subs_of_assignment ~m inst a in
    let mk = Multi.makespan_of_assignment model ~energy subs in
    let entries =
      Array.to_list subs
      |> List.mapi (fun p sub ->
             if Instance.is_empty sub then []
             else begin
               let f = Frontier.build model sub in
               let e_p = Frontier.energy_for_makespan f mk in
               Schedule.entries (Frontier.schedule_at f e_p)
               |> List.map (fun e -> { e with Schedule.proc = p })
             end)
      |> List.concat
    in
    Schedule.of_entries entries
  end

let makespan model ~m ~energy ?local_search inst =
  if Instance.is_empty inst then 0.0
  else
    eval model ~m ~energy inst (assign model ~m ~energy ?local_search inst)
