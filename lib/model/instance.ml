type t = Job.t array (* sorted by (release, id) *)

(* one pass finds rows already in order, as decode hands them over *)
let sorted a =
  let rec in_order i = i >= Array.length a || (Job.compare_by_release a.(i - 1) a.(i) <= 0 && in_order (i + 1)) in
  if not (in_order 1) then Array.sort Job.compare_by_release a;
  a

let create jobs_list =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (j : Job.t) ->
      if Hashtbl.mem seen j.Job.id then invalid_arg "Instance.create: duplicate job id";
      Hashtbl.add seen j.Job.id ();
      (* re-validate in case the record was built directly *)
      ignore (Job.make ~id:j.Job.id ~release:j.Job.release ~work:j.Job.work))
    jobs_list;
  sorted (Array.of_list jobs_list)

(* ids 0 .. n-1 are distinct, and [Job.make] has validated each job *)
let of_pairs pairs = sorted (Array.of_list (List.mapi (fun i (release, work) -> Job.make ~id:i ~release ~work) pairs))
let of_arrays ~releases ~works =
  if Array.length releases <> Array.length works then invalid_arg "Instance.of_arrays: length mismatch";
  sorted (Array.init (Array.length releases) (fun i -> Job.make ~id:i ~release:releases.(i) ~work:works.(i)))

let of_works works = of_pairs (List.map (fun w -> (0.0, w)) works)
let figure1 = of_pairs [ (0.0, 5.0); (5.0, 2.0); (6.0, 1.0) ]
let theorem8 = of_pairs [ (0.0, 1.0); (0.0, 1.0); (1.0, 1.0) ]
let jobs t = t
let job t i = t.(i)
let n = Array.length
let is_empty t = n t = 0
let total_work t = Array.fold_left (fun acc (j : Job.t) -> acc +. j.Job.work) 0.0 t

let first_release t =
  if is_empty t then invalid_arg "Instance.first_release: empty instance" else t.(0).Job.release

let last_release t =
  if is_empty t then invalid_arg "Instance.last_release: empty instance"
  else t.(n t - 1).Job.release

let is_equal_work ?(tol = 1e-12) t =
  n t <= 1
  ||
  let w0 = t.(0).Job.work in
  Array.for_all (fun (j : Job.t) -> Float.abs (j.Job.work -. w0) <= tol *. (1.0 +. w0)) t

let has_common_release ?(tol = 1e-12) t =
  n t <= 1
  ||
  let r0 = t.(0).Job.release in
  Array.for_all (fun (j : Job.t) -> Float.abs (j.Job.release -. r0) <= tol *. (1.0 +. r0)) t

let pp fmt t =
  Format.fprintf fmt "@[<hov 2>instance[%d]{" (n t);
  Array.iteri (fun i j -> if i > 0 then Format.fprintf fmt ";@ "; Job.pp fmt j) t;
  Format.fprintf fmt "}@]"
