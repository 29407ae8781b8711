(* Stack-based IncMerge on unboxed struct-of-arrays storage.

   The merge stack lives in the per-domain Scratch arena (slot
   conventions in scratch.mli): block fields in a Block.Soa, the
   per-cell cumulative energies in a parallel floatarray, and the cell
   being built in mutable float locals — a full pass allocates nothing
   proportional to the instance, and the boxed Block.t list is
   materialized once at the API boundary.

   The block being built at the top of the stack is "open": its speed
   is window-determined while more jobs remain, and budget-determined
   once job n-1 has been absorbed.  An empty release window makes a
   transient infinite-speed block; the next push always merges it
   away, so infinite energies never reach the remaining-budget
   computation.

   Per-cell cumulative sums (instead of a mutable running total) avoid
   catastrophic cancellation when a transient very fast block with
   huge energy is pushed and popped; they also make the arithmetic —
   hence every emitted block — bitwise identical to the historical
   boxed-cell implementation. *)

let c_merges = Obs.counter "incmerge.merge_rounds"
let c_blocks = Obs.counter "incmerge.blocks_emitted"
let c_jobs = Obs.counter "incmerge.jobs_processed"
let c_splits = Obs.counter "incmerge.block_splits"

(* a remaining budget at or below the model's energy floor behaves like
   speed 0: the block is "too slow", which forces a merge with its
   predecessor (freeing that block's window energy) *)
let final_speed model ~work ~remaining =
  if remaining <= 0.0 then 0.0
  else match Power_model.speed_for_energy_opt model ~work ~energy:remaining with
    | Some s -> s
    | None -> 0.0

let blocks model ~energy inst =
  let n = Instance.n inst in
  if n = 0 then []
  else begin
    if energy <= 0.0 then invalid_arg "Incmerge.blocks: energy budget must be positive";
    let release i = (Instance.job inst i).Job.release in
    let work i = (Instance.job inst i).Job.work in
    let scr = Scratch.get () in
    (* settled cells: block fields in SoA slot 0, cumulative energies
       (this cell and everything below it) in float slot 0 *)
    let st = Scratch.block_soa scr ~slot:0 n in
    let cum = Scratch.floats scr ~slot:0 n in
    let top = ref 0 in
    let merges = ref 0 in
    let e_sum () = if !top = 0 then 0.0 else Float.Array.get cum (!top - 1) in
    (* the open cell, in unboxed locals *)
    let cur_first = ref 0 and cur_last = ref 0 in
    let cur_work = ref 0.0 and cur_start = ref 0.0 in
    let cur_speed = ref 0.0 and cur_energy = ref 0.0 in
    (* speed/energy of a window block covering jobs [first..last]; a
       transient infinite-speed block (empty release window) always
       merges away on the next push, before any remaining-budget
       computation, so its stored energy can safely be 0 — storing
       [infinity] would corrupt the cumulative sums *)
    let window_cell first last w =
      let start = release first in
      let speed = Block.window_speed ~work:w ~start ~next_release:(release (last + 1)) in
      cur_first := first;
      cur_last := last;
      cur_work := w;
      cur_start := start;
      cur_speed := speed;
      cur_energy :=
        (if Float.is_finite speed then Power_model.energy_run model ~work:w ~speed else 0.0)
    in
    let budget_cell first last w =
      let start = release first in
      let remaining = energy -. e_sum () in
      let speed = final_speed model ~work:w ~remaining in
      cur_first := first;
      cur_last := last;
      cur_work := w;
      cur_start := start;
      cur_speed := speed;
      cur_energy := Float.max remaining 0.0
    in
    for i = 0 to n - 1 do
      if i = n - 1 then budget_cell i i (work i) else window_cell i i (work i);
      let merging = ref true in
      while !merging do
        if !top > 0 && !cur_speed < Float.Array.get st.Block.Soa.speed (!top - 1) then begin
          incr merges;
          decr top;
          let first = st.Block.Soa.first.(!top) in
          let last = !cur_last in
          let w = Float.Array.get st.Block.Soa.work !top +. !cur_work in
          if last = n - 1 then budget_cell first last w else window_cell first last w
        end
        else merging := false
      done;
      Block.Soa.set st !top ~first:!cur_first ~last:!cur_last ~work:!cur_work ~start:!cur_start
        ~speed:!cur_speed;
      Float.Array.set cum !top (e_sum () +. !cur_energy);
      incr top
    done;
    st.Block.Soa.len <- !top;
    if Float.Array.get st.Block.Soa.speed (!top - 1) <= 0.0 then
      invalid_arg "Incmerge.blocks: budget below the power model's energy floor";
    Obs.add c_jobs n;
    Obs.add c_merges !merges;
    Obs.add c_blocks !top;
    (* every block holding more than one job records the splits it
       absorbed: n jobs collapse into k blocks via n - k merges *)
    Obs.add c_splits (n - !top);
    Block.Soa.to_list st
  end

let energy_used model bs = List.fold_left (fun acc b -> acc +. Block.energy model b) 0.0 bs

(* the merge phase with window-determined speeds only, into caller
   storage (capacity must cover upto + 1 rows) *)
let window_into inst ~upto (soa : Block.Soa.t) =
  let release i = (Instance.job inst i).Job.release in
  let work i = (Instance.job inst i).Job.work in
  let top = ref 0 in
  let cur_first = ref 0 and cur_last = ref 0 in
  let cur_work = ref 0.0 and cur_start = ref 0.0 and cur_speed = ref 0.0 in
  let window_cell first last w =
    let start = release first in
    cur_first := first;
    cur_last := last;
    cur_work := w;
    cur_start := start;
    cur_speed := Block.window_speed ~work:w ~start ~next_release:(release (last + 1))
  in
  for i = 0 to upto do
    window_cell i i (work i);
    let merging = ref true in
    while !merging do
      if !top > 0 && !cur_speed < Float.Array.get soa.Block.Soa.speed (!top - 1) then begin
        decr top;
        window_cell soa.Block.Soa.first.(!top) !cur_last
          (Float.Array.get soa.Block.Soa.work !top +. !cur_work)
      end
      else merging := false
    done;
    Block.Soa.set soa !top ~first:!cur_first ~last:!cur_last ~work:!cur_work ~start:!cur_start
      ~speed:!cur_speed;
    incr top
  done;
  soa.Block.Soa.len <- !top

let window_soa inst ~upto =
  Obs.span "incmerge.window_blocks" @@ fun () ->
  let n = Instance.n inst in
  if upto >= n - 1 || upto < -1 then invalid_arg "Incmerge.window_soa: upto out of range";
  let soa = Scratch.block_soa (Scratch.get ()) ~slot:1 (Int.max (upto + 1) 1) in
  window_into inst ~upto soa;
  soa

(* unboxed prefix sums over a SoA store: freshly allocated (they are
   retained by Frontier.t well past the scratch validity window);
   transient infinite-speed blocks count as zero energy, as in the
   [blocks] stack cells *)
let prefix_sums_fa model (soa : Block.Soa.t) =
  let m = soa.Block.Soa.len in
  let cum_work = Float.Array.make (m + 1) 0.0 in
  let cum_energy = Float.Array.make (m + 1) 0.0 in
  for j = 0 to m - 1 do
    let w = Float.Array.get soa.Block.Soa.work j in
    let speed = Float.Array.get soa.Block.Soa.speed j in
    Float.Array.set cum_work (j + 1) (Float.Array.get cum_work j +. w);
    Float.Array.set cum_energy (j + 1)
      (Float.Array.get cum_energy j
      +. if Float.is_finite speed then Power_model.energy_run model ~work:w ~speed else 0.0)
  done;
  (cum_work, cum_energy)

let solve model ~energy inst =
  Obs.span "incmerge.solve" @@ fun () ->
  let bs = blocks model ~energy inst in
  Schedule.of_entries (List.concat_map (Block.entries inst 0) bs)

let makespan model ~energy inst =
  Obs.span "incmerge.makespan" @@ fun () ->
  match List.rev (blocks model ~energy inst) with
  | [] -> 0.0
  | last :: _ -> Block.finish last
