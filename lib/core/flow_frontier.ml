let c_points = Obs.counter "flow_frontier.points_evaluated"

type point = { last_speed : float; energy : float; flow : float }

(* Point evaluations are independent, so both sweeps fan out through
   Par.  Determinism: the speed/energy grids and the warm-start chain
   boundaries are fixed functions of (bounds, n) — never of [jobs] —
   so every jobs value computes bit-identical floats. *)

let grid_speed ~s_lo ~s_hi ~log_ratio ~n i =
  (* endpoints exactly: s_lo *. exp ((n-1) *. log_ratio) drifts in the
     last ulps, which matters to tests pinning the sweep range *)
  if i = 0 then s_lo
  else if i = n - 1 then s_hi
  else s_lo *. Float.exp (float_of_int i *. log_ratio)

let sweep ?jobs ~alpha inst ~s_lo ~s_hi ~n =
  if not (0.0 < s_lo && s_lo < s_hi) then invalid_arg "Flow_frontier.sweep: need 0 < s_lo < s_hi";
  if n < 2 then invalid_arg "Flow_frontier.sweep: need n >= 2";
  let log_ratio = Float.log (s_hi /. s_lo) /. float_of_int (n - 1) in
  Obs.span "flow_frontier.sweep" @@ fun () ->
  Array.to_list
    (Par.init ?jobs n (fun i ->
         let s = grid_speed ~s_lo ~s_hi ~log_ratio ~n i in
         let sol = Flow.solve_for_last_speed ~alpha inst s in
         Obs.incr c_points;
         { last_speed = s; energy = sol.Flow.energy; flow = sol.Flow.flow }))

(* Fixed chunk width for [curve], deliberately independent of [jobs]:
   each chunk starts cold and warm-starts point-to-point inside, so the
   sequence of warm starts (hence every float) is the same whether one
   domain evaluates all chunks or eight evaluate two each. *)
let curve_chunk = 16

let curve ?jobs ~alpha inst ~e_lo ~e_hi ~n =
  if n < 2 then invalid_arg "Flow_frontier.curve: need n >= 2";
  let energy_at i = e_lo +. ((e_hi -. e_lo) *. float_of_int i /. float_of_int (n - 1)) in
  Obs.span "flow_frontier.curve" @@ fun () ->
  let nchunks = (n + curve_chunk - 1) / curve_chunk in
  let chunks =
    Par.init ?jobs nchunks (fun c ->
        let first = c * curve_chunk in
        let last = Int.min n (first + curve_chunk) - 1 in
        let out = Array.make (last - first + 1) (0.0, 0.0) in
        let warm = ref None in
        for i = first to last do
          let e = energy_at i in
          let sol = Flow.solve_budget ?warm:!warm ~alpha ~energy:e inst in
          warm := Some sol.Flow.last_speed;
          Obs.incr c_points;
          out.(i - first) <- (e, sol.Flow.flow)
        done;
        out)
  in
  List.concat_map Array.to_list (Array.to_list chunks)
