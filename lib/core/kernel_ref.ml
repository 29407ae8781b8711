(* Boxed reference kernels, in two layers.

   The top-level functions mirror the CURRENT Flow algorithm —
   analytic singleton windows, fused-derivative Newton for pinned
   runs warm-started from the window's previous root, O(1) free-run
   totals from the power tables, and one safeguarded Newton on the
   energy equation over the a-priori bracket, with its power-of-two
   rescaling at extreme budgets — operation for operation on boxed
   storage (float arrays and records allocated per call, no scratch
   arena).
   Every float they produce is bitwise identical to the unboxed
   kernels': the [kernel:*] fuzz properties and test_kernel assert
   exactly that, which is what certifies the Float.Array/scratch
   layout as a pure representation change.

   [Legacy] freezes the pre-scratch PR6-era algorithm — per-iteration
   Brent for every pinned window, per-job evaluation everywhere, full
   materialization inside the outer root find — so the
   [kernel_flow_legacy] bench section measures the old cost on the
   same machine (the [kernel] section fails unless the new solver runs
   at least 3x faster, and test_kernel requires it to allocate under a
   third of the old words per solve) and a tolerance property checks
   the new root against the old one.

   Deliberately uninstrumented (no Obs counters, no Fault sites of
   their own — Rootfind's are shared): the references must cost
   exactly their arithmetic, and differential properties skip when
   fault injection is armed, so they never need perturbing. *)

let tol = 1e-12

type solution = {
  last_speed : float;
  speeds : float array;
  completions : float array;
  flow : float;
  energy : float;
}

let empty_solution s =
  { last_speed = s; speeds = [||]; completions = [||]; flow = 0.0; energy = 0.0 }

(* ---- boxed mirror of the current Flow algorithm ---- *)

type env = {
  alpha : float;
  inv_a : float;
  n : int;
  w : float;
  rel : float array;
  rel_sum : float array;
  h : float array;
  hp : float array;
  pw : float array;
  r_first : int array;
  r_last : int array;
  r_pinned : int array;
  r_end : float array;
  r_end_a : float array;
  w_last : int array;
  w_x : float array;
}

(* same recurrences as Scratch.flow_tables, so the cached and the
   per-call tables are bitwise equal *)
let tables ~alpha n =
  let h = Array.make (n + 1) 0.0 in
  let hp = Array.make (n + 1) 0.0 in
  let pw = Array.make (n + 1) 0.0 in
  let inv_a = 1.0 /. alpha in
  for i = 1 to n do
    let fi = float_of_int i in
    h.(i) <- h.(i - 1) +. (fi ** (-1.0 /. alpha));
    hp.(i) <- hp.(i - 1) +. h.(i);
    pw.(i) <- pw.(i - 1) +. (fi ** (1.0 -. inv_a))
  done;
  (h, hp, pw)

let make_env ~alpha ~w inst =
  let n = Instance.n inst in
  let rel = Array.make n 0.0 in
  let rel_sum = Array.make (n + 1) 0.0 in
  for i = 0 to n - 1 do
    let r = (Instance.job inst i).Job.release in
    rel.(i) <- r;
    rel_sum.(i + 1) <- rel_sum.(i) +. r
  done;
  let h, hp, pw = tables ~alpha n in
  {
    alpha;
    inv_a = 1.0 /. alpha;
    n;
    w;
    rel;
    rel_sum;
    h;
    hp;
    pw;
    r_first = Array.make n 0;
    r_last = Array.make n 0;
    r_pinned = Array.make n 0;
    r_end = Array.make n 0.0;
    r_end_a = Array.make n 0.0;
    w_last = Array.make n (-1);
    w_x = Array.make n 0.0;
  }

let merge_pass env s =
  if s <= 0.0 || not (Float.is_finite s) then invalid_arg "Kernel_ref: last speed must be positive";
  let { alpha; inv_a; n; w; rel; h; r_first; r_last; r_pinned; r_end; r_end_a; w_last; w_x; _ } =
    env
  in
  let sa = s ** alpha in
  let pinned_end ~first ~last ~window =
    let len = last - first + 1 in
    if window <= tol then (Float.infinity, Float.infinity)
    else if len = 1 then begin
      if w /. s <= window then (s, sa)
      else begin
        let x = w /. window in
        (x, x ** alpha)
      end
    end
    else begin
      let f_df x =
        let xa = x ** alpha in
        let s0 = ref 0.0 and s1 = ref 0.0 in
        for t = 0 to len - 1 do
          let u = xa +. (float_of_int t *. sa) in
          let term = w /. (u ** inv_a) in
          s0 := !s0 +. term;
          s1 := !s1 +. (term /. u)
        done;
        (!s0 -. window, -.(xa /. x) *. !s1)
      in
      if w /. s *. h.(len) <= window then (s, sa)
      else begin
        let x_up = Float.max (2.0 *. s) (float_of_int len *. w /. window) in
        let x0 = if w_last.(first) = last && w_x.(first) > s then w_x.(first) else x_up in
        let x = Rootfind.newton_bracketed ~f_df ~lo:s ~hi:(2.0 *. x_up) ~x0 () in
        w_last.(first) <- last;
        w_x.(first) <- x;
        (x, x ** alpha)
      end
    end
  in
  let cur_first = ref 0 and cur_last = ref 0 in
  let cur_pinned = ref false in
  let cur_end = ref s and cur_end_a = ref sa in
  let make_run first last =
    cur_first := first;
    cur_last := last;
    if last = n - 1 then begin
      cur_pinned := false;
      cur_end := s;
      cur_end_a := sa
    end
    else begin
      let len = last - first + 1 in
      let window = rel.(last + 1) -. rel.(first) in
      if w /. s *. h.(len) < window -. tol then begin
        cur_pinned := false;
        cur_end := s;
        cur_end_a := sa
      end
      else begin
        cur_pinned := true;
        let e, ea = pinned_end ~first ~last ~window in
        cur_end := e;
        cur_end_a := ea
      end
    end
  in
  let top = ref 0 in
  for i = 0 to n - 1 do
    make_run i i;
    let merging = ref true in
    while !merging do
      if !top > 0 && r_pinned.(!top - 1) = 1 then begin
        let first_a = !cur_end_a +. (float_of_int (!cur_last - !cur_first) *. sa) in
        if r_end_a.(!top - 1) > first_a +. sa +. (1e-9 *. sa) then begin
          decr top;
          make_run r_first.(!top) !cur_last
        end
        else merging := false
      end
      else merging := false
    done;
    r_first.(!top) <- !cur_first;
    r_last.(!top) <- !cur_last;
    r_pinned.(!top) <- (if !cur_pinned then 1 else 0);
    r_end.(!top) <- !cur_end;
    r_end_a.(!top) <- !cur_end_a;
    incr top
  done;
  !top

let eval_energy env s =
  let top = merge_pass env s in
  let { alpha; inv_a; w; pw; r_first; r_last; r_pinned; r_end; r_end_a; _ } = env in
  let sa = s ** alpha in
  let am1_a = 1.0 -. inv_a in
  let sam1 = s ** (alpha -. 1.0) in
  let energy = ref 0.0 and e_free = ref 0.0 and d_pin = ref 0.0 in
  for ri = 0 to top - 1 do
    let first = r_first.(ri) and last = r_last.(ri) in
    if r_pinned.(ri) = 1 then begin
      let ea = r_end_a.(ri) in
      let pa = ref 0.0 and pb = ref 0.0 and pv = ref 0.0 and pq = ref 0.0 in
      for k = first to last do
        let j = float_of_int (last - k) in
        let u = ea +. (j *. sa) in
        let wp = w *. (u ** am1_a) in
        energy := !energy +. wp;
        let term = wp /. u in
        let v = term *. (ea /. u) in
        pa := !pa +. term;
        pb := !pb +. (j *. term);
        pv := !pv +. v;
        pq := !pq +. (j *. v)
      done;
      let d = if r_end.(ri) = s then 1.0 else -.(!pq /. !pv) in
      d_pin := !d_pin +. ((d *. !pa) +. !pb)
    end
    else begin
      let e_run = w *. sam1 *. pw.(last - first + 1) in
      energy := !energy +. e_run;
      e_free := !e_free +. e_run
    end
  done;
  (!energy, (alpha -. 1.0) /. s *. (!e_free +. (sa *. !d_pin)))

let solve_full env s =
  let top = merge_pass env s in
  let { alpha; inv_a; n; w; rel; r_first; r_last; r_end_a; _ } = env in
  let sa = s ** alpha in
  let speeds = Array.make n 0.0 in
  let completions = Array.make n 0.0 in
  for ri = 0 to top - 1 do
    let first = r_first.(ri) and last = r_last.(ri) in
    let xa = r_end_a.(ri) in
    let t = ref rel.(first) in
    for k = first to last do
      let sigma = (xa +. (float_of_int (last - k) *. sa)) ** inv_a in
      speeds.(k) <- sigma;
      t := !t +. (w /. sigma);
      completions.(k) <- !t
    done
  done;
  let flow = ref 0.0 and energy = ref 0.0 in
  for k = 0 to n - 1 do
    flow := !flow +. (completions.(k) -. rel.(k));
    energy := !energy +. (w *. (speeds.(k) ** (alpha -. 1.0)))
  done;
  { last_speed = s; speeds; completions; flow = !flow; energy = !energy }

let validate ~alpha inst =
  if alpha <= 1.0 then invalid_arg "Kernel_ref: need alpha > 1";
  if not (Instance.is_equal_work inst) then
    invalid_arg "Kernel_ref: Theorem 1 structure requires equal-work jobs"

let solve_in_range ~eps ~warm ~alpha ~energy ~w ~s0 inst =
  let env = make_env ~alpha ~w inst in
  let f_df t =
    let e, de = eval_energy env (t *. s0) in
    (energy -. e, -.(s0 *. de))
  in
  let x0 = match warm with Some s -> s /. s0 | None -> 1.0 in
  let t = Rootfind.newton_bracketed ~f_df ~lo:0.0 ~hi:2.0 ~x0 ~eps () in
  solve_full env (t *. s0)

let solve_budget ?(eps = 1e-12) ?warm ~alpha ~energy inst =
  if energy <= 0.0 then invalid_arg "Kernel_ref.solve_budget: energy must be positive";
  if Instance.n inst = 0 then empty_solution 0.0
  else begin
    validate ~alpha inst;
    let n = float_of_int (Instance.n inst) and w = (Instance.job inst 0).Job.work in
    let s0 = (energy /. (n *. w)) ** (1.0 /. (alpha -. 1.0)) in
    let sa0 = s0 ** alpha in
    if sa0 >= 0x1p-128 && sa0 <= 0x1p128 then solve_in_range ~eps ~warm ~alpha ~energy ~w ~s0 inst
    else begin
      let unrepresentable () =
        invalid_arg
          (Printf.sprintf
             "Kernel_ref.solve_budget: the optimal schedule at energy %g lies outside the float range"
             energy)
      in
      let l2s0 = (Float.log2 energy -. Float.log2 n -. Float.log2 w) /. (alpha -. 1.0) in
      let k = -int_of_float (Float.round (Float.min 4096.0 (Float.max (-4096.0) l2s0))) in
      let normal x = x >= Float.min_float && x <= Float.max_float in
      let w' = Float.ldexp w k in
      let ka = float_of_int k *. alpha in
      let q = Float.floor ka in
      let r = ka -. q in
      let energy' = Float.ldexp energy (int_of_float q) *. (2.0 ** r) in
      if not (normal w' && normal energy') then unrepresentable ();
      let s0' = (energy' /. (n *. w')) ** (1.0 /. (alpha -. 1.0)) in
      let warm = Option.map (fun s -> Float.ldexp s k) warm in
      let sol = solve_in_range ~eps ~warm ~alpha ~energy:energy' ~w:w' ~s0:s0' inst in
      let back x = Float.ldexp x (-k) in
      let sol =
        {
          sol with
          last_speed = back sol.last_speed;
          speeds = Array.map back sol.speeds;
          energy = Float.ldexp (sol.energy *. (2.0 ** -.r)) (-int_of_float q);
        }
      in
      if
        not
          (Array.for_all normal sol.speeds
          && Array.for_all Float.is_finite sol.completions
          && Float.is_finite sol.flow && normal sol.energy)
      then unrepresentable ();
      sol
    end
  end

(* same grid and 16-point warm chunks as Flow_frontier.curve,
   evaluated sequentially *)
let curve_chunk = 16

let curve ~alpha inst ~e_lo ~e_hi ~n =
  if n < 2 then invalid_arg "Kernel_ref.curve: need n >= 2";
  let energy_at i = e_lo +. ((e_hi -. e_lo) *. float_of_int i /. float_of_int (n - 1)) in
  let nchunks = (n + curve_chunk - 1) / curve_chunk in
  let chunks =
    Array.init nchunks (fun c ->
        let first = c * curve_chunk in
        let last = Int.min n (first + curve_chunk) - 1 in
        let out = Array.make (last - first + 1) (0.0, 0.0) in
        let warm = ref None in
        for i = first to last do
          let e = energy_at i in
          let sol = solve_budget ?warm:!warm ~alpha ~energy:e inst in
          warm := Some sol.last_speed;
          out.(i - first) <- (e, sol.flow)
        done;
        out)
  in
  List.concat_map Array.to_list (Array.to_list chunks)

(* ---- frozen PR6-era flow solver ---- *)

module Legacy = struct
  type solution = {
    last_speed : float;
    speeds : float array;
    completions : float array;
    flow : float;
    energy : float;
  }

  let empty_solution s =
    { last_speed = s; speeds = [||]; completions = [||]; flow = 0.0; energy = 0.0 }

  let harmonic ~alpha n =
    let h = Array.make (n + 1) 0.0 in
    for t = 1 to n do
      h.(t) <- h.(t - 1) +. (float_of_int t ** (-1.0 /. alpha))
    done;
    h

  type run = { first : int; last : int; pinned : bool; end_speed : float }

  let job_speed ~alpha ~s x last k =
    ((x ** alpha) +. (float_of_int (last - k) *. (s ** alpha))) ** (1.0 /. alpha)

  let solve_with ~alpha ~h inst s =
    if s <= 0.0 || not (Float.is_finite s) then
      invalid_arg "Kernel_ref.Legacy: last speed must be positive";
    let n = Instance.n inst in
    if n = 0 then empty_solution s
    else begin
      let w = (Instance.job inst 0).Job.work in
      let release i = (Instance.job inst i).Job.release in
      let sa = s ** alpha in
      let free_duration l = w /. s *. h.(l) in
      let pinned_end_speed ~len ~window =
        if window <= tol then Float.infinity
        else begin
          let dur x =
            let acc = ref 0.0 in
            for t = 0 to len - 1 do
              acc := !acc +. (w /. (((x ** alpha) +. (float_of_int t *. sa)) ** (1.0 /. alpha)))
            done;
            !acc
          in
          let f x = dur x -. window in
          if f s <= 0.0 then s
          else begin
            let hi = ref (Float.max (2.0 *. s) (2.0 *. float_of_int len *. w /. window)) in
            let i = ref 0 in
            while f !hi > 0.0 && !i < 200 do
              hi := !hi *. 2.0;
              incr i
            done;
            Rootfind.brent ~f ~lo:s ~hi:!hi ()
          end
        end
      in
      let make_run first last =
        let len = last - first + 1 in
        if last = n - 1 then { first; last; pinned = false; end_speed = s }
        else begin
          let window = release (last + 1) -. release first in
          if free_duration len < window -. tol then { first; last; pinned = false; end_speed = s }
          else { first; last; pinned = true; end_speed = pinned_end_speed ~len ~window }
        end
      in
      let first_speed r =
        if Float.is_finite r.end_speed then job_speed ~alpha ~s r.end_speed r.last r.first
        else Float.infinity
      in
      let stack = Array.make n { first = 0; last = 0; pinned = false; end_speed = s } in
      let top = ref 0 in
      for i = 0 to n - 1 do
        let cur = ref (make_run i i) in
        let merging = ref true in
        while !merging do
          if !top > 0 then begin
            let prev = stack.(!top - 1) in
            if
              prev.pinned
              && (prev.end_speed ** alpha) > (first_speed !cur ** alpha) +. sa +. (1e-9 *. sa)
            then begin
              decr top;
              cur := make_run prev.first !cur.last
            end
            else merging := false
          end
          else merging := false
        done;
        stack.(!top) <- !cur;
        incr top
      done;
      let speeds = Array.make n 0.0 in
      let completions = Array.make n 0.0 in
      for ri = 0 to !top - 1 do
        let r = stack.(ri) in
        let t = ref (release r.first) in
        for k = r.first to r.last do
          let sigma = job_speed ~alpha ~s r.end_speed r.last k in
          speeds.(k) <- sigma;
          t := !t +. (w /. sigma);
          completions.(k) <- !t
        done
      done;
      let flow = ref 0.0 and energy = ref 0.0 in
      for k = 0 to n - 1 do
        flow := !flow +. (completions.(k) -. release k);
        energy := !energy +. (w *. (speeds.(k) ** (alpha -. 1.0)))
      done;
      { last_speed = s; speeds; completions; flow = !flow; energy = !energy }
    end

  let validate ~alpha inst =
    if alpha <= 1.0 then invalid_arg "Kernel_ref.Legacy: need alpha > 1";
    if not (Instance.is_equal_work inst) then
      invalid_arg "Kernel_ref.Legacy: Theorem 1 structure requires equal-work jobs"

  let solve_budget ?(eps = 1e-12) ?warm ~alpha ~energy inst =
    if energy <= 0.0 then invalid_arg "Kernel_ref.Legacy.solve_budget: energy must be positive";
    if Instance.n inst = 0 then empty_solution 0.0
    else begin
      validate ~alpha inst;
      let h = harmonic ~alpha (Instance.n inst) in
      let g s = (solve_with ~alpha ~h inst s).energy -. energy in
      let lo, hi =
        match warm with
        | Some s0 when s0 > 0.0 && Float.is_finite s0 ->
          if g s0 <= 0.0 then begin
            let hi = ref (s0 *. 1.05) in
            while g !hi < 0.0 && !hi < 1e300 do
              hi := !hi *. 2.0
            done;
            (s0, !hi)
          end
          else begin
            let lo = ref (s0 /. 1.05) in
            while g !lo > 0.0 && !lo > 1e-300 do
              lo := !lo /. 2.0
            done;
            (!lo, s0)
          end
        | _ ->
          let lo = ref 1e-6 in
          while g !lo > 0.0 && !lo > 1e-300 do
            lo := !lo /. 16.0
          done;
          let hi = ref 1.0 in
          while g !hi < 0.0 && !hi < 1e300 do
            hi := !hi *. 2.0
          done;
          (!lo, !hi)
      in
      let s = Rootfind.brent ~f:g ~lo ~hi ~eps ~max_iter:300 () in
      solve_with ~alpha ~h inst s
    end

  let curve ~alpha inst ~e_lo ~e_hi ~n =
    if n < 2 then invalid_arg "Kernel_ref.Legacy.curve: need n >= 2";
    let energy_at i = e_lo +. ((e_hi -. e_lo) *. float_of_int i /. float_of_int (n - 1)) in
    let nchunks = (n + curve_chunk - 1) / curve_chunk in
    let chunks =
      Array.init nchunks (fun c ->
          let first = c * curve_chunk in
          let last = Int.min n (first + curve_chunk) - 1 in
          let out = Array.make (last - first + 1) (0.0, 0.0) in
          let warm = ref None in
          for i = first to last do
            let e = energy_at i in
            let sol = solve_budget ?warm:!warm ~alpha ~energy:e inst in
            warm := Some sol.last_speed;
            out.(i - first) <- (e, sol.flow)
          done;
          out)
    in
    List.concat_map Array.to_list (Array.to_list chunks)
end

(* ---- boxed frontier reference ---- *)

type segment = {
  prefix_len : int;
  e_fixed : float;
  last_first : int;
  last_work : float;
  last_start : float;
  e_min : float;
  e_max : float;
}

type frontier = { model : Power_model.t; segs : segment array }

let frontier_build model inst =
  let n = Instance.n inst in
  if n = 0 then { model; segs = [||] }
  else begin
    let release i = (Instance.job inst i).Job.release in
    let work i = (Instance.job inst i).Job.work in
    let blocks = Array.of_list (Incmerge.window_blocks inst ~upto:(n - 2)) in
    let m = Array.length blocks in
    let cum_work, cum_energy = Incmerge.prefix_sums model blocks in
    let w_last = work (n - 1) in
    let segs = ref [] in
    let e_max = ref Float.infinity in
    for j = m downto 0 do
      let last_first = if j = m then n - 1 else blocks.(j).Block.first in
      let last_start = if j = m then release (n - 1) else blocks.(j).Block.start in
      let last_work = cum_work.(m) -. cum_work.(j) +. w_last in
      let e_min =
        if j = 0 then 0.0
        else begin
          let prev = blocks.(j - 1) in
          if Float.is_finite prev.Block.speed then
            cum_energy.(j) +. Power_model.energy_run model ~work:last_work ~speed:prev.Block.speed
          else Float.infinity
        end
      in
      if e_min < !e_max then begin
        segs :=
          { prefix_len = j; e_fixed = cum_energy.(j); last_first; last_work; last_start; e_min;
            e_max = !e_max }
          :: !segs;
        e_max := e_min
      end
    done;
    { model; segs = Array.of_list (List.rev !segs) }
  end

let segment_at t e =
  let m = Array.length t.segs in
  if m = 0 then invalid_arg "Kernel_ref.segment_at: empty instance";
  if e <= 0.0 then invalid_arg "Kernel_ref.segment_at: energy must be positive";
  let lo = ref 0 and hi = ref (m - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if e > t.segs.(mid).e_min then hi := mid else lo := mid + 1
  done;
  t.segs.(!lo)

let makespan_at t e =
  let s = segment_at t e in
  s.last_start
  +. (s.last_work /. Power_model.speed_for_energy t.model ~work:s.last_work ~energy:(e -. s.e_fixed))

let sample t ~lo ~hi ~n =
  if n < 2 then invalid_arg "Kernel_ref.sample: need at least two points";
  List.init n (fun i ->
      let e = lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)) in
      (e, makespan_at t e))
