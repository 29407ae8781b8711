type entry = { job : Job.t; proc : int; start : float; speed : float }
type t = entry list (* sorted by (proc, start) *)

let c_entries = Obs.counter "schedule.entries_built"

let duration e = e.job.Job.work /. e.speed
let completion e = e.start +. duration e

let of_entries entries_list =
  Obs.span "schedule.of_entries" @@ fun () ->
  Obs.add c_entries (List.length entries_list);
  List.iter
    (fun e ->
      if e.proc < 0 then invalid_arg "Schedule.of_entries: negative processor index";
      if e.speed <= 0.0 || not (Float.is_finite e.speed) then
        invalid_arg "Schedule.of_entries: speed must be finite and positive";
      if e.start < e.job.Job.release -. 1e-9 then
        invalid_arg "Schedule.of_entries: job starts before its release")
    entries_list;
  List.sort (fun a b -> compare (a.proc, a.start, a.job.Job.id) (b.proc, b.start, b.job.Job.id)) entries_list

let entries t = t
let entries_of_proc t p = List.filter (fun e -> e.proc = p) t
let find t id = List.find_opt (fun e -> e.job.Job.id = id) t
let n_jobs = List.length
let n_procs t = List.fold_left (fun acc e -> Stdlib.max acc (e.proc + 1)) 0 t

let profile_of_proc t p =
  entries_of_proc t p
  |> List.map (fun e -> { Speed_profile.t0 = e.start; t1 = completion e; speed = e.speed })
  |> Speed_profile.of_segments

let energy m t =
  List.fold_left (fun acc e -> acc +. Power_model.energy_run m ~work:e.job.Job.work ~speed:e.speed) 0.0 t
