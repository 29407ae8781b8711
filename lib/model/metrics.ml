let makespan sched =
  List.fold_left (fun acc e -> Float.max acc (Schedule.completion e)) 0.0 (Schedule.entries sched)

(* wait plus duration, not completion minus release: a job that starts
   at its release contributes its duration exactly, however small it is
   beside the release *)
let job_flow e =
  let j = e.Schedule.job in
  e.Schedule.start -. j.Job.release +. (j.Job.work /. e.Schedule.speed)

let total_flow sched = List.fold_left (fun acc e -> acc +. job_flow e) 0.0 (Schedule.entries sched)

let max_flow sched =
  List.fold_left (fun acc e -> Float.max acc (job_flow e)) 0.0 (Schedule.entries sched)

let total_completion sched =
  List.fold_left (fun acc e -> acc +. Schedule.completion e) 0.0 (Schedule.entries sched)

let weighted_flow ~weights sched =
  List.fold_left
    (fun acc e -> acc +. (weights e.Schedule.job.Job.id *. job_flow e))
    0.0 (Schedule.entries sched)

type metric = (float * float) array -> float

let makespan_metric pairs = Array.fold_left (fun acc (c, _) -> Float.max acc c) 0.0 pairs
let total_flow_metric pairs = Array.fold_left (fun acc (c, r) -> acc +. (c -. r)) 0.0 pairs

let close a b = Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.abs a +. Float.abs b)

let is_symmetric_on m pairs =
  let n = Array.length pairs in
  if n < 2 then true
  else begin
    let base = m pairs in
    let permute_completions perm =
      Array.mapi (fun i (_, r) -> (fst pairs.(perm i), r)) pairs
    in
    let rotation = permute_completions (fun i -> (i + 1) mod n) in
    let ok = ref (close base (m rotation)) in
    for i = 0 to n - 2 do
      let swap =
        permute_completions (fun k -> if k = i then i + 1 else if k = i + 1 then i else k)
      in
      if not (close base (m swap)) then ok := false
    done;
    !ok
  end

let is_non_decreasing_on m pairs =
  let base = m pairs in
  let ok = ref true in
  Array.iteri
    (fun i (c, _) ->
      List.iter
        (fun bump ->
          let bumped = Array.mapi (fun k (ck, rk) -> if k = i then (c +. bump, rk) else (ck, rk)) pairs in
          if m bumped < base -. 1e-9 then ok := false)
        [ 0.125; 1.0; 10.0 ])
    pairs;
  !ok
