(* Constant-memory online metrics for trace-scale simulation.

   Everything here is O(1) space per statistic, whatever the trace
   length: Welford's recurrence carries exact running mean/variance,
   and the P² algorithm (Jain & Chlamtac, CACM'85) tracks a quantile
   with five markers.  The exact aggregates (count, sum, min, max,
   makespan, energy) agree with [Metrics] over a materialized schedule
   to float rounding; the P² quantiles are estimates and are exact only
   while the observation count is at most five.

   [observe] allocates nothing once P² is past its bootstrap: all state
   is float-only storage (Welford's record, P²'s marker arrays, the
   totals), and the Welford and P² updates are inlined into it, so the
   flow never crosses a function boundary boxed. *)

module Welford = struct
  (* Float-only, so every update stores unboxed (a float field of a
     record that also holds an int is boxed on each store).  The count
     is exact as a float up to 2^53. *)
  type t = {
    mutable n : float;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable sum : float;
  }

  let create () =
    { n = 0.0; mean = 0.0; m2 = 0.0; min = Float.infinity; max = Float.neg_infinity; sum = 0.0 }

  let clear w =
    w.n <- 0.0;
    w.mean <- 0.0;
    w.m2 <- 0.0;
    w.min <- Float.infinity;
    w.max <- Float.neg_infinity;
    w.sum <- 0.0

  let[@inline] add w x =
    w.n <- w.n +. 1.0;
    let d = x -. w.mean in
    w.mean <- w.mean +. (d /. w.n);
    (* d uses the pre-update mean, the second factor the post-update
       one: that cross term is what keeps m2 non-negative *)
    w.m2 <- w.m2 +. (d *. (x -. w.mean));
    w.sum <- w.sum +. x;
    if x < w.min then w.min <- x;
    if x > w.max then w.max <- x

  let count w = int_of_float w.n
  let mean w = if w.n = 0.0 then 0.0 else w.mean
  let sum w = w.sum
  let variance w = if w.n < 2.0 then 0.0 else w.m2 /. (w.n -. 1.0)
  let stddev w = sqrt (variance w)
  let minimum w = if w.n = 0.0 then 0.0 else w.min
  let maximum w = if w.n = 0.0 then 0.0 else w.max
end

module P2 = struct
  (* Five markers track (min, q/2, q, (1+q)/2, max); heights are
     adjusted toward their ideal positions with a piecewise-parabolic
     interpolation, falling back to linear when the parabola would
     cross a neighbour. *)
  type t = {
    q : float;
    heights : float array;  (* marker heights, 5 *)
    pos : float array;  (* actual marker positions, 1-based *)
    want : float array;  (* desired positions *)
    dwant : float array;  (* desired-position increments *)
    mutable n : int;
  }

  let create q =
    if q < 0.0 || q > 1.0 then invalid_arg "Streaming_metrics.P2.create: q outside [0, 1]";
    {
      q;
      heights = Array.make 5 0.0;
      pos = [| 1.0; 2.0; 3.0; 4.0; 5.0 |];
      want = [| 1.0; 1.0 +. (2.0 *. q); 1.0 +. (4.0 *. q); 3.0 +. (2.0 *. q); 5.0 |];
      dwant = [| 0.0; q /. 2.0; q; (1.0 +. q) /. 2.0; 1.0 |];
      n = 0;
    }

  (* the first five observations, kept sorted: the exact quantile's
     buffer *)
  let bootstrap t x =
    t.heights.(t.n - 1) <- x;
    let sub = Array.sub t.heights 0 t.n in
    Array.sort compare sub;
    Array.blit sub 0 t.heights 0 t.n

  (* Indices are marker numbers 0..4 into the five-element arrays
     [create] makes, so marker accesses skip bounds checks. *)
  let[@inline] get (a : float array) i = Array.unsafe_get a i
  let[@inline] set (a : float array) i (x : float) = Array.unsafe_set a i x

  (* Inlined, and the marker step is computed in place rather than
     returned from a helper: a float passed to or returned from a
     function that is not inlined is boxed. *)
  let[@inline] add t x =
    t.n <- t.n + 1;
    if t.n <= 5 then bootstrap t x
    else begin
      let h = t.heights and p = t.pos and want = t.want and dwant = t.dwant in
      (* the cell of x: the last marker at or below it, 0 below the
         minimum and 3 at or above the maximum *)
      let k =
        if x < get h 0 then begin
          set h 0 x;
          0
        end
        else if x >= get h 4 then begin
          set h 4 x;
          3
        end
        else if x >= get h 3 then 3
        else if x >= get h 2 then 2
        else if x >= get h 1 then 1
        else 0
      in
      for i = k + 1 to 4 do
        set p i (get p i +. 1.0)
      done;
      (* the end markers' desired positions are never read *)
      for i = 1 to 3 do
        set want i (get want i +. get dwant i)
      done;
      (* move the three middle markers toward their desired positions:
         the piecewise-parabolic prediction, or the linear one when the
         parabola would cross a neighbour *)
      for i = 1 to 3 do
        let pi = get p i and pl = get p (i - 1) and pr = get p (i + 1) in
        let d = get want i -. pi in
        if (d >= 1.0 && pr -. pi > 1.0) || (d <= -1.0 && pl -. pi < -1.0) then begin
          let d = if d >= 0.0 then 1.0 else -1.0 in
          let hi = get h i and hl = get h (i - 1) and hr = get h (i + 1) in
          let parabolic =
            hi
            +. (d /. (pr -. pl)
               *. (((pi -. pl +. d) *. (hr -. hi) /. (pr -. pi))
                  +. ((pr -. pi -. d) *. (hi -. hl) /. (pi -. pl))))
          in
          if hl < parabolic && parabolic < hr then set h i parabolic
          else if d > 0.0 then set h i (hi +. (d *. (hr -. hi) /. (pr -. pi)))
          else set h i (hi +. (d *. (hl -. hi) /. (pl -. pi)));
          set p i (pi +. d)
        end
      done
    end

  let count t = t.n

  let quantile t =
    if t.n = 0 then 0.0
    else if t.n <= 5 then begin
      (* exact quantile over the sorted bootstrap buffer *)
      let k = t.q *. float_of_int (t.n - 1) in
      let i = int_of_float (Float.floor k) in
      let frac = k -. float_of_int i in
      if i + 1 < t.n then t.heights.(i) +. (frac *. (t.heights.(i + 1) -. t.heights.(i)))
      else t.heights.(t.n - 1)
    end
    else t.heights.(2)
end

type totals = { mutable makespan : float; mutable energy : float; mutable released_work : float }

type t = { flow : Welford.t; p50 : P2.t; p95 : P2.t; p99 : P2.t; totals : totals }

type snapshot = {
  jobs : int;
  flow_mean : float;
  flow_stddev : float;
  flow_max : float;
  flow_total : float;
  flow_p50 : float;
  flow_p95 : float;
  flow_p99 : float;
  makespan : float;
  energy : float;
  released_work : float;
}

let create () =
  {
    flow = Welford.create ();
    p50 = P2.create 0.50;
    p95 = P2.create 0.95;
    p99 = P2.create 0.99;
    totals = { makespan = 0.0; energy = 0.0; released_work = 0.0 };
  }

let observe (t : t) ~release ~completion =
  if completion < release then
    invalid_arg "Streaming_metrics.observe: completion precedes release";
  let flow = completion -. release in
  Welford.add t.flow flow;
  P2.add t.p50 flow;
  P2.add t.p95 flow;
  P2.add t.p99 flow;
  if completion > t.totals.makespan then t.totals.makespan <- completion

let totals (t : t) = t.totals
let jobs (t : t) = Welford.count t.flow

let snapshot (t : t) : snapshot =
  {
    jobs = Welford.count t.flow;
    flow_mean = Welford.mean t.flow;
    flow_stddev = Welford.stddev t.flow;
    flow_max = Welford.maximum t.flow;
    flow_total = Welford.sum t.flow;
    flow_p50 = P2.quantile t.p50;
    flow_p95 = P2.quantile t.p95;
    flow_p99 = P2.quantile t.p99;
    makespan = t.totals.makespan;
    energy = t.totals.energy;
    released_work = t.totals.released_work;
  }
