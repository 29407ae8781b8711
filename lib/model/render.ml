let job_char id =
  let alphabet = "abcdefghijklmnopqrstuvwxyz0123456789" in
  alphabet.[id mod String.length alphabet]

let gantt ?(width = 72) sched =
  let entries = Schedule.entries sched in
  if entries = [] then "(empty schedule)\n"
  else begin
    let horizon =
      List.fold_left (fun acc e -> Float.max acc (Schedule.completion e)) 0.0 entries
    in
    let nprocs = Schedule.n_procs sched in
    let buf = Buffer.create 256 in
    let scale t = int_of_float (Float.min (float_of_int (width - 1)) (t /. horizon *. float_of_int width)) in
    for p = 0 to nprocs - 1 do
      let row = Bytes.make width '.' in
      List.iter
        (fun e ->
          if e.Schedule.proc = p then begin
            let a = scale e.Schedule.start and b = scale (Schedule.completion e) in
            for i = a to Stdlib.max a (b - 1) do
              Bytes.set row i (job_char e.Schedule.job.Job.id)
            done
          end)
        entries;
      Buffer.add_string buf (Printf.sprintf "p%-2d |%s|\n" p (Bytes.to_string row))
    done;
    Buffer.add_string buf (Printf.sprintf "     0%*s%.3g\n" (width - 1) "t=" horizon);
    Buffer.contents buf
  end

let entries_tsv sched =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "job\tproc\trelease\twork\tstart\tspeed\tcompletion\tflow\n";
  List.iter
    (fun e ->
      let j = e.Schedule.job in
      let c = Schedule.completion e in
      Buffer.add_string buf
        (Printf.sprintf "%d\t%d\t%g\t%g\t%g\t%g\t%g\t%g\n" j.Job.id e.Schedule.proc j.Job.release
           j.Job.work e.Schedule.start e.Schedule.speed c (Metrics.job_flow e)))
    (Schedule.entries sched);
  Buffer.contents buf

let summary model sched =
  Printf.sprintf "jobs=%d procs=%d makespan=%.6g flow=%.6g energy=%.6g" (Schedule.n_jobs sched)
    (Schedule.n_procs sched) (Metrics.makespan sched) (Metrics.total_flow sched)
    (Schedule.energy model sched)

let series_tsv ~header:(h1, h2) points =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%s\t%s\n" h1 h2);
  List.iter (fun (x, y) -> Buffer.add_string buf (Printf.sprintf "%g\t%g\n" x y)) points;
  Buffer.contents buf
