type t = { first : int; last : int; work : float; start : float; speed : float }

let window_speed ~work ~start ~next_release =
  let dt = next_release -. start in
  if dt <= 0.0 then Float.infinity else work /. dt

let energy model b =
  if Float.is_finite b.speed then Power_model.energy_run model ~work:b.work ~speed:b.speed
  else Float.infinity

let duration b = if Float.is_finite b.speed then b.work /. b.speed else 0.0
let finish b = b.start +. duration b

let entries inst proc b =
  let rec go i t acc =
    if i > b.last then List.rev acc
    else begin
      let j = Instance.job inst i in
      let e = { Schedule.job = j; proc; start = t; speed = b.speed } in
      go (i + 1) (t +. (j.Job.work /. b.speed)) (e :: acc)
    end
  in
  go b.first b.start []

let jobs_feasible inst b =
  let rec go i t =
    if i > b.last then true
    else begin
      let j = Instance.job inst i in
      if t < j.Job.release -. 1e-9 then false else go (i + 1) (t +. (j.Job.work /. b.speed))
    end
  in
  Float.is_finite b.speed && b.speed > 0.0 && go b.first b.start

(* Struct-of-arrays block storage for the unboxed kernel hot paths.
   [floatarray] fields are guaranteed flat float64 storage on every
   compiler configuration; int fields are plain immediate arrays.  The
   boxed record above stays the public exchange type — a [Soa.t] is a
   kernel-internal working set that materializes records on demand. *)
module Soa = struct
  type blocks = t

  type t = {
    mutable len : int;
    mutable first : int array;
    mutable last : int array;
    mutable work : floatarray;
    mutable start : floatarray;
    mutable speed : floatarray;
  }

  let create cap =
    let cap = Int.max cap 1 in
    {
      len = 0;
      first = Array.make cap 0;
      last = Array.make cap 0;
      work = Float.Array.create cap;
      start = Float.Array.create cap;
      speed = Float.Array.create cap;
    }

  let capacity t = Array.length t.first

  (* capacity-only growth: contents are NOT preserved (every kernel
     knows its worst-case block count up front, so it reserves before
     the first push and growth never happens mid-merge) *)
  let reserve t cap =
    if capacity t < cap then begin
      t.first <- Array.make cap 0;
      t.last <- Array.make cap 0;
      t.work <- Float.Array.create cap;
      t.start <- Float.Array.create cap;
      t.speed <- Float.Array.create cap
    end;
    t.len <- 0

  let set t i ~first ~last ~work ~start ~speed =
    t.first.(i) <- first;
    t.last.(i) <- last;
    Float.Array.set t.work i work;
    Float.Array.set t.start i start;
    Float.Array.set t.speed i speed

  let get t i : blocks =
    {
      first = t.first.(i);
      last = t.last.(i);
      work = Float.Array.get t.work i;
      start = Float.Array.get t.start i;
      speed = Float.Array.get t.speed i;
    }

  let to_list t =
    let rec go i acc = if i < 0 then acc else go (i - 1) (get t i :: acc) in
    go (t.len - 1) []
end
