type solution = {
  last_speed : float;
  per_proc : Flow.solution array;
  flow : float;
  energy : float;
}

let check_equal_work inst =
  if not (Instance.is_equal_work inst) then invalid_arg "Multi_flow: requires equal-work jobs"

let of_subs ~alpha subs s =
  let per_proc =
    Array.map
      (fun sub ->
        if Instance.is_empty sub then
          { Flow.last_speed = s; runs = []; speeds = [||]; completions = [||]; flow = 0.0; energy = 0.0 }
        else Flow.solve_for_last_speed ~alpha sub s)
      subs
  in
  let flow = Array.fold_left (fun acc p -> acc +. p.Flow.flow) 0.0 per_proc in
  let energy = Array.fold_left (fun acc p -> acc +. p.Flow.energy) 0.0 per_proc in
  { last_speed = s; per_proc; flow; energy }

let solve_budget_subs ?(eps = 1e-12) ~alpha ~energy subs =
  let g s = (of_subs ~alpha subs s).energy -. energy in
  let lo = ref 1e-6 in
  while g !lo > 0.0 && !lo > 1e-300 do
    lo := !lo /. 16.0
  done;
  let hi = ref 1.0 in
  while g !hi < 0.0 && !hi < 1e300 do
    hi := !hi *. 2.0
  done;
  let s = Rootfind.brent ~f:g ~lo:!lo ~hi:!hi ~eps ~max_iter:300 () in
  of_subs ~alpha subs s

let solve_budget ?eps ~alpha ~m ~energy inst =
  check_equal_work inst;
  if energy <= 0.0 then invalid_arg "Multi_flow: energy budget must be positive";
  if Instance.is_empty inst then
    { last_speed = 0.0; per_proc = [||]; flow = 0.0; energy = 0.0 }
  else solve_budget_subs ?eps ~alpha ~energy (Multi.cyclic_assignment ~m inst)

let schedule ~m inst sol =
  check_equal_work inst;
  let subs = Multi.cyclic_assignment ~m inst in
  let entries =
    Array.to_list
      (Array.mapi
         (fun p sub ->
           if Instance.is_empty sub then []
           else
             List.map
               (fun e -> { e with Schedule.proc = p })
               (Schedule.entries (Flow.schedule sub sol.per_proc.(p))))
         subs)
    |> List.concat
  in
  Schedule.of_entries entries

let brute_flow ~alpha ~m ~energy inst =
  let n = Instance.n inst in
  if n > 9 then invalid_arg "Multi_flow.brute_flow: instance too large";
  check_equal_work inst;
  if n = 0 then 0.0
  else begin
    let jobs = Instance.jobs inst in
    let best = ref Float.infinity in
    let assignment = Array.make n 0 in
    let rec go i used =
      if i = n then begin
        let subs =
          Array.init m (fun p ->
              Instance.create (List.filteri (fun k _ -> assignment.(k) = p) (Array.to_list jobs)))
        in
        let sol = solve_budget_subs ~alpha ~energy subs in
        if sol.flow < !best then best := sol.flow
      end
      else
        for p = 0 to Stdlib.min (m - 1) used do
          assignment.(i) <- p;
          go (i + 1) (Stdlib.max used (p + 1))
        done
    in
    go 0 0;
    !best
  end
