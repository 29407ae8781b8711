let c_steps = Obs.counter "check.shrink_steps"
let c_evals = Obs.counter "check.shrink_evals"

type stats = { steps : int; evals : int }

let pairs_of c =
  Array.to_list
    (Array.map (fun (j : Job.t) -> (j.Job.release, j.Job.work)) (Instance.jobs (c.Oracle.inst)))

let with_pairs c pairs = { c with Oracle.inst = Instance.of_pairs pairs }

let drop_nth i xs = List.filteri (fun k _ -> k <> i) xs

let map_nth i f xs = List.mapi (fun k x -> if k = i then f x else x) xs

(* every one-step simplification of a case, most aggressive first *)
let candidates c =
  let pairs = pairs_of c in
  let n = List.length pairs in
  let drops = if n <= 1 then [] else List.init n (fun i -> with_pairs c (drop_nth i pairs)) in
  let zeros =
    List.init n (fun i ->
        if fst (List.nth pairs i) > 0.0 then
          Some (with_pairs c (map_nth i (fun (_, w) -> (0.0, w)) pairs))
        else None)
    |> List.filter_map Fun.id
  in
  let rounds =
    List.init n (fun i ->
        let _, w = List.nth pairs i in
        let r = Float.max 1.0 (Float.round w) in
        if r <> w then Some (with_pairs c (map_nth i (fun (rel, _) -> (rel, r)) pairs)) else None)
    |> List.filter_map Fun.id
  in
  drops @ zeros @ rounds

let minimize ?(max_evals = 2000) ~prop case =
  let evals = ref 0 in
  let fails c =
    incr evals;
    match prop c with Oracle.Fail _ -> true | Oracle.Pass | Oracle.Skip _ -> false
  in
  if not (fails case) then begin
    Obs.add c_evals !evals;
    (case, { steps = 0; evals = !evals })
  end
  else begin
    let steps = ref 0 in
    let current = ref case in
    let progress = ref true in
    while !progress && !evals < max_evals do
      progress := false;
      (match List.find_opt fails (candidates !current) with
      | Some smaller ->
        current := smaller;
        incr steps;
        progress := true
      | None -> ());
    done;
    Obs.add c_steps !steps;
    Obs.add c_evals !evals;
    (!current, { steps = !steps; evals = !evals })
  end
