(* Equal-work total flow on one processor (the PUW Theorem 1
   structure).  For a fixed last speed s a forward merge pass builds the
   unique Theorem 1-consistent configuration, pinned windows solved by a
   warm-started inner Newton.  Theorem 8 of the paper shows the budget's
   last speed has no closed form even for three jobs, so the laptop
   problem is one safeguarded Newton on the energy equation over an
   a-priori bracket ([solve_in_range]), its derivative priced by the
   same pass as the energy; the server problem is a bracketed Brent
   search on total flow. *)

let c_runs = Obs.counter "flow.runs_formed"
let c_run_merges = Obs.counter "flow.run_merges"

type run = { first : int; last : int; pinned : bool; end_speed : float }

type solution = {
  last_speed : float;
  runs : run list;
  speeds : float array;
  completions : float array;
  flow : float;
  energy : float;
}

let tol = 1e-12

let empty_solution s =
  { last_speed = s; runs = []; speeds = [||]; completions = [||]; flow = 0.0; energy = 0.0 }

let validate ~alpha inst =
  if alpha <= 1.0 then invalid_arg "Flow: need alpha > 1";
  if not (Instance.is_equal_work inst) then
    invalid_arg "Flow: Theorem 1 structure requires equal-work jobs"

(* Evaluation environment for one solver call: the instance's releases
   (plus their prefix sums) and the cached power tables unpacked into
   unboxed arrays, the scratch run stack, and the pinned-window warm
   starts (see scratch.mli, Flow owns slots 16..23).  Root finders
   evaluate the configuration several times per solve; with the
   environment prepared once, an evaluation allocates only its
   closures — nothing proportional to the instance.

   The evaluation path works throughout with alpha-th powers of
   speeds: a run's Theorem 1 job speeds are sigma_k = (e^a + j s^a)^(1/a)
   (j jobs after k, e the run's end speed), so storing e^a alongside e
   makes the merge test power-free, an energy term one power
   (sigma^(a-1) = u^(1-1/a) for u = e^a + j s^a) and a duration term
   one power (w/sigma = w u^(-1/a)).  Free (unpinned) runs have e = s,
   where the per-length power sums are cached (Scratch.flow_tables):
   their total energy and total flow are O(1) lookups, and only pinned
   jobs are walked at all.

   A pinned window's end speed moves smoothly with s, so each solve
   keeps the last root found for every window: [w_x.(f)] is the end
   speed of the pinned run starting at job f and ending at job
   [w_last.(f)] (-1 when there is none yet), and the next evaluation
   of the same window starts its Newton iteration there.  The table is
   cleared by [make_env], so nothing crosses solver calls: results
   depend on the call's arguments only, never on what the domain
   solved before.

   Kernel_ref mirrors this arithmetic operation for operation on boxed
   storage — the [kernel:*] fuzz properties compare the two bitwise —
   while Kernel_ref.Legacy preserves the pre-scratch algorithm for
   tolerance comparison and the before/after benchmark. *)
type env = {
  alpha : float;
  inv_a : float;  (* 1.0 /. alpha *)
  n : int;
  w : float;  (* the common work *)
  rel : floatarray;  (* releases, rel.(0 .. n-1) *)
  rel_sum : floatarray;  (* prefix sums: rel_sum.(i) = sum rel.(0 .. i-1) *)
  h : floatarray;  (* free-run durations: length-l free run takes (w/s) h.(l) *)
  hp : floatarray;  (* prefix sums of h, for O(1) free-run flow *)
  pw : floatarray;  (* pw.(l) = sum_{t=1..l} t^(1-1/a), for O(1) free-run energy *)
  r_first : int array;  (* run stack, r_*.(0 .. top-1) *)
  r_last : int array;
  r_pinned : int array;  (* 0/1 *)
  r_end : floatarray;  (* run end speeds e *)
  r_end_a : floatarray;  (* e ** alpha, the form every evaluation consumes *)
  w_last : int array;  (* pinned warm starts, indexed by a run's first job *)
  w_x : floatarray;
}

(* [w] is the common work: the instance's, or a power-of-two rescaling
   of it (see [solve_budget]) *)
let make_env ~alpha ~w inst =
  let n = Instance.n inst in
  let scr = Scratch.get () in
  let rel = Scratch.floats scr ~slot:17 n in
  let rel_sum = Scratch.floats scr ~slot:19 (n + 1) in
  Float.Array.unsafe_set rel_sum 0 0.0;
  for i = 0 to n - 1 do
    let r = (Instance.job inst i).Job.release in
    Float.Array.unsafe_set rel i r;
    Float.Array.unsafe_set rel_sum (i + 1) (Float.Array.unsafe_get rel_sum i +. r)
  done;
  let h, hp, pw = Scratch.flow_tables scr ~alpha ~n in
  let w_last = Scratch.ints scr ~slot:19 n in
  Array.fill w_last 0 n (-1);
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
    r_first = Scratch.ints scr ~slot:16 n;
    r_last = Scratch.ints scr ~slot:17 n;
    r_pinned = Scratch.ints scr ~slot:18 n;
    r_end = Scratch.floats scr ~slot:16 n;
    r_end_a = Scratch.floats scr ~slot:18 n;
    w_last;
    w_x = Scratch.floats scr ~slot:20 n;
  }

(* flat all-float accumulators: field updates do not box, unlike
   [float ref], so evaluation loops allocate nothing per element *)
type acc2 = { mutable s0 : float; mutable s1 : float }

(* the Theorem 1-consistent run structure for a fixed last speed [s]:
   a forward pass with merging (analogous to IncMerge) into the
   scratch run stack; returns the stack height.  Each job starts its
   own run; a run whose relaxed completion passes the next release is
   pinned to it (a nested root find); a pinned run whose end speed
   exceeds the Theorem 1 upper bound merges with its successor. *)
let merge_pass env s =
  if s <= 0.0 || not (Float.is_finite s) then invalid_arg "Flow: last speed must be positive";
  (* one deadline/injection poll per configuration evaluation, so a
     deadline trips at a solve's first evaluation *)
  Fault.tick ();
  let { alpha; inv_a; n; w; rel; h; r_first; r_last; r_pinned; r_end; r_end_a; w_last; w_x; _ } =
    env
  in
  let sa = s ** alpha in
  (* pinned end speed (and its alpha-th power): the x >= s at which
     the run [first .. last] exactly fills its release window *)
  let pinned_end ~first ~last ~window =
    let len = last - first + 1 in
    if window <= tol then (Float.infinity, Float.infinity)
    else if len = 1 then begin
      (* a single job's window equation w/x = window is closed-form *)
      if w /. s <= window then (s, sa)
      else begin
        let x = w /. window in
        (x, x ** alpha)
      end
    end
    else begin
      (* dur x = sum_t w (x^a + t s^a)^(-1/a) is decreasing in x, and
         its derivative reuses every power of the value:
         dur' = -(x^a / x) sum_t term_t / u_t.  One fused evaluation
         costs what a plain one does, so safeguarded Newton beats
         derivative-free bracketing decisively here. *)
      let f_df x =
        let xa = x ** alpha in
        let a = { s0 = 0.0; s1 = 0.0 } in
        for t = 0 to len - 1 do
          let u = xa +. (float_of_int t *. sa) in
          let term = w /. (u ** inv_a) in
          a.s0 <- a.s0 +. term;
          a.s1 <- a.s1 +. (term /. u)
        done;
        (a.s0 -. window, -.(xa /. x) *. a.s1)
      in
      (* at x = s the run is free, so dur s = (w/s) h.(len) is a
         table lookup: the window fits at the last speed *)
      if w /. s *. Float.Array.unsafe_get h len <= window then (s, sa)
      else begin
        (* dur x <= len w / x, so x0 = len w / window sits at or above
           the root: a tight one-sided guess, with the doubled value as
           the safeguard bracket's far end.  The window's root at the
           previous evaluation is a far better start when it is still
           above s: the outer search moves s less and less. *)
        let x_up = Float.max (2.0 *. s) (float_of_int len *. w /. window) in
        let x0 =
          if w_last.(first) = last && Float.Array.unsafe_get w_x first > s then
            Float.Array.unsafe_get w_x first
          else x_up
        in
        let x = Rootfind.newton_bracketed ~f_df ~lo:s ~hi:(2.0 *. x_up) ~x0 () in
        w_last.(first) <- last;
        Float.Array.unsafe_set w_x first x;
        (x, x ** alpha)
      end
    end
  in
  (* the run being built, in unboxed locals *)
  let cur_first = ref 0 and cur_last = ref 0 in
  let cur_pinned = ref false in
  let cur = { s0 = s; s1 = sa } (* end speed, end speed ** alpha *) in
  let make_run first last =
    cur_first := first;
    cur_last := last;
    if last = n - 1 then begin
      cur_pinned := false;
      cur.s0 <- s;
      cur.s1 <- sa
    end
    else begin
      let len = last - first + 1 in
      let window = Float.Array.unsafe_get rel (last + 1) -. Float.Array.unsafe_get rel first in
      if w /. s *. Float.Array.unsafe_get h len < window -. tol then begin
        cur_pinned := false;
        cur.s0 <- s;
        cur.s1 <- sa
      end
      else begin
        cur_pinned := true;
        let e, ea = pinned_end ~first ~last ~window in
        cur.s0 <- e;
        cur.s1 <- ea
      end
    end
  in
  let top = ref 0 and merges = ref 0 in
  for i = 0 to n - 1 do
    make_run i i;
    let merging = ref true in
    while !merging do
      if !top > 0 && r_pinned.(!top - 1) = 1 then begin
        (* alpha-th power of the current run's first-job speed under
           its own end speed; infinities propagate as the comparison
           needs (an infinite predecessor always merges, an infinite
           current run never forces one) *)
        let first_a = cur.s1 +. (float_of_int (!cur_last - !cur_first) *. sa) in
        if Float.Array.unsafe_get r_end_a (!top - 1) > first_a +. sa +. (1e-9 *. sa) then begin
          incr merges;
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
    Float.Array.unsafe_set r_end !top cur.s0;
    Float.Array.unsafe_set r_end_a !top cur.s1;
    incr top
  done;
  Obs.add c_run_merges !merges;
  Obs.add c_runs !top;
  !top

(* energy accumulators of [eval_energy]: the total, the free runs'
   share, and per pinned run the four sums of its derivative *)
type eacc = {
  mutable e : float;
  mutable e_free : float;
  mutable d_pin : float;  (* sum over pinned runs of (D A + B) *)
  mutable pa : float;
  mutable pb : float;
  mutable pv : float;
  mutable pq : float;
}

(* energy of the configuration at [s] and its derivative in [s],
   without materializing per-job arrays — the root-find evaluation
   path of [solve_budget].  Pinned runs cost one power per job; free
   runs are one cached lookup.

   The derivative needs no further power.  A free run's energy is
   w s^(a-1) pw(len), so it contributes (a-1) E_run / s.  A pinned run
   with X = e^a and S = s^a has job terms u_j = X + j S and energy
   sum_j w u_j^(1-1/a); its window equation sum_j w u_j^(-1/a) = window
   differentiates to dX/dS = D = -(sum_j j v_j) / (sum_j v_j) with
   v_j = w u_j^(-1/a-1), so
     dE_run/ds = (a-1) (S/s) sum_j w u_j^(-1/a) (D + j)
               = (a-1) (S/s) (D A + B)
   for A = sum_j w u_j^(-1/a) and B = sum_j j w u_j^(-1/a).  Every term
   is the energy term's power divided by u; the v_j are taken times X
   (the ratio D does not change, and X/u_j is in (0, 1], so they stay
   in range wherever the durations do).  A run clamped to e = s moves
   with s: there D = 1. *)
let eval_energy env s =
  let top = merge_pass env s in
  let { alpha; inv_a; w; pw; r_first; r_last; r_pinned; r_end; r_end_a; _ } = env in
  let sa = s ** alpha in
  let am1_a = 1.0 -. inv_a in
  let sam1 = s ** (alpha -. 1.0) in
  let c = { e = 0.0; e_free = 0.0; d_pin = 0.0; pa = 0.0; pb = 0.0; pv = 0.0; pq = 0.0 } in
  for ri = 0 to top - 1 do
    let first = r_first.(ri) and last = r_last.(ri) in
    if r_pinned.(ri) = 1 then begin
      let ea = Float.Array.unsafe_get r_end_a ri in
      c.pa <- 0.0;
      c.pb <- 0.0;
      c.pv <- 0.0;
      c.pq <- 0.0;
      for k = first to last do
        let j = float_of_int (last - k) in
        let u = ea +. (j *. sa) in
        let wp = w *. (u ** am1_a) in
        c.e <- c.e +. wp;
        let term = wp /. u in
        let v = term *. (ea /. u) in
        c.pa <- c.pa +. term;
        c.pb <- c.pb +. (j *. term);
        c.pv <- c.pv +. v;
        c.pq <- c.pq +. (j *. v)
      done;
      let d = if Float.Array.unsafe_get r_end ri = s then 1.0 else -.(c.pq /. c.pv) in
      c.d_pin <- c.d_pin +. ((d *. c.pa) +. c.pb)
    end
    else begin
      let e_run = w *. sam1 *. Float.Array.unsafe_get pw (last - first + 1) in
      c.e <- c.e +. e_run;
      c.e_free <- c.e_free +. e_run
    end
  done;
  (c.e, (alpha -. 1.0) /. s *. (c.e_free +. (sa *. c.d_pin)))

(* total flow at [s], likewise array-free — the evaluation path of
   [solve_flow_target] *)
let eval_flow env s =
  let top = merge_pass env s in
  let { alpha; inv_a; w; rel; rel_sum; h; hp; r_first; r_last; r_pinned; r_end_a; _ } = env in
  let sa = s ** alpha in
  let w_over_s = w /. s in
  let a = { s0 = 0.0; s1 = 0.0 } (* total flow, running completion *) in
  for ri = 0 to top - 1 do
    let first = r_first.(ri) and last = r_last.(ri) in
    if r_pinned.(ri) = 1 then begin
      let ea = Float.Array.unsafe_get r_end_a ri in
      a.s1 <- Float.Array.unsafe_get rel first;
      for k = first to last do
        let u = ea +. (float_of_int (last - k) *. sa) in
        a.s1 <- a.s1 +. (w /. (u ** inv_a));
        a.s0 <- a.s0 +. (a.s1 -. Float.Array.unsafe_get rel k)
      done
    end
    else begin
      (* free run: completions rel_first + (w/s)(h(len) - h(last-k)),
         summed in closed form over the run *)
      let len = last - first + 1 in
      a.s0 <-
        a.s0
        +. (float_of_int len *. Float.Array.unsafe_get rel first)
        +. (w_over_s
           *. ((float_of_int len *. Float.Array.unsafe_get h len)
              -. Float.Array.unsafe_get hp (len - 1)))
        -. (Float.Array.unsafe_get rel_sum (last + 1) -. Float.Array.unsafe_get rel_sum first)
    end
  done;
  a.s0

(* the full solution at [s]: per-job speeds/completions and the boxed
   run list are materialized exactly once per solver call, at the root *)
let solve_full env s =
  let top = merge_pass env s in
  let { alpha; inv_a; n; w; rel; r_first; r_last; r_pinned; r_end; r_end_a; _ } = env in
  let sa = s ** alpha in
  let speeds = Array.make n 0.0 in
  let completions = Array.make n 0.0 in
  for ri = 0 to top - 1 do
    let first = r_first.(ri) and last = r_last.(ri) in
    let xa = Float.Array.unsafe_get r_end_a ri in
    let t = { s0 = Float.Array.unsafe_get rel first; s1 = 0.0 } in
    for k = first to last do
      let sigma = (xa +. (float_of_int (last - k) *. sa)) ** inv_a in
      speeds.(k) <- sigma;
      t.s0 <- t.s0 +. (w /. sigma);
      completions.(k) <- t.s0
    done
  done;
  let flow = ref 0.0 and energy = ref 0.0 in
  for k = 0 to n - 1 do
    flow := !flow +. (completions.(k) -. Float.Array.get rel k);
    energy := !energy +. (w *. (speeds.(k) ** (alpha -. 1.0)))
  done;
  let runs =
    List.init top (fun i ->
        {
          first = r_first.(i);
          last = r_last.(i);
          pinned = r_pinned.(i) = 1;
          end_speed = Float.Array.get r_end i;
        })
  in
  { last_speed = s; runs; speeds; completions; flow = !flow; energy = !energy }

let common_work inst = (Instance.job inst 0).Job.work

let solve_for_last_speed ~alpha inst s =
  validate ~alpha inst;
  if s <= 0.0 || not (Float.is_finite s) then invalid_arg "Flow: last speed must be positive";
  if Instance.n inst = 0 then empty_solution s
  else solve_full (make_env ~alpha ~w:(common_work inst) inst) s

(* Every job runs at least at the last speed s, so
   energy(s) >= n w s^(a-1), and s0 = (E / (n w))^(1/(a-1)) lies at or
   above the root: (0, 2 s0) brackets it before any evaluation (the
   doubling absorbs rounding where the bound is tight, as for one free
   run).  Energy is continuous and increasing in s, so one safeguarded
   Newton on t = s / s0 over (0, 2) finds the root — from the warm
   speed when it lies inside the bracket, from t = 1 otherwise.  Its
   step test is relative to s, since every root has t >= n^(-1/a)
   (up to the merge test's 1e-9): no job runs faster than n^(1/a) s
   under Theorem 1. *)
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
  Obs.span "flow.solve_budget" @@ fun () ->
  Fault.enter "flow.solve_budget";
  if energy <= 0.0 then invalid_arg "Flow.solve_budget: energy must be positive";
  if Instance.n inst = 0 then empty_solution 0.0
  else begin
    validate ~alpha inst;
    let n = float_of_int (Instance.n inst) and w = common_work inst in
    let s0 = (energy /. (n *. w)) ** (1.0 /. (alpha -. 1.0)) in
    let sa0 = s0 ** alpha in
    if sa0 >= 0x1p-128 && sa0 <= 0x1p128 then solve_in_range ~eps ~warm ~alpha ~energy ~w ~s0 inst
    else begin
      (* s0^a is out of range (at huge budgets it overflows): solve
         the instance with work and speeds scaled by 2^k, which leaves
         durations, completions and flow unchanged and scales energy by
         2^(k a), with k putting the scaled s0 near 1; then map back *)
      let unrepresentable () =
        invalid_arg
          (Printf.sprintf
             "Flow.solve_budget: the optimal schedule at energy %g lies outside the float range"
             energy)
      in
      let l2s0 = (Float.log2 energy -. Float.log2 n -. Float.log2 w) /. (alpha -. 1.0) in
      (* past |log2 s0| = 4096 no work keeps w 2^k a float *)
      let k = -int_of_float (Float.round (Float.min 4096.0 (Float.max (-4096.0) l2s0))) in
      let normal x = x >= Float.min_float && x <= Float.max_float in
      let w' = Float.ldexp w k in
      (* 2^(k a) = 2^q 2^r, q integral and r in [0, 1) *)
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
          runs = List.map (fun run -> { run with end_speed = back run.end_speed }) sol.runs;
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

let solve_flow_target ?(eps = 1e-12) ~alpha ~flow inst =
  Obs.span "flow.solve_flow_target" @@ fun () ->
  if flow <= 0.0 then invalid_arg "Flow.solve_flow_target: flow target must be positive";
  if Instance.n inst = 0 then empty_solution 0.0
  else begin
    validate ~alpha inst;
    let env = make_env ~alpha ~w:(common_work inst) inst in
    let g s = eval_flow env s -. flow in
    (* flow(s) is decreasing: large s -> tiny flows *)
    let lo = ref 1e-6 in
    let glo = ref (g !lo) in
    while !glo < 0.0 && !lo > 1e-300 do
      Fault.tick ();
      lo := !lo /. 16.0;
      glo := g !lo
    done;
    let hi = ref 1.0 in
    let ghi = ref (g !hi) in
    while !ghi > 0.0 && !hi < 1e300 do
      Fault.tick ();
      hi := !hi *. 2.0;
      ghi := g !hi
    done;
    let s = Rootfind.brent ~f:g ~lo:!lo ~hi:!hi ~flo:!glo ~fhi:!ghi ~eps ~max_iter:300 () in
    solve_full env s
  end

let schedule inst sol =
  let n = Instance.n inst in
  let entries = ref [] in
  for k = n - 1 downto 0 do
    let j = Instance.job inst k in
    let start = sol.completions.(k) -. (j.Job.work /. sol.speeds.(k)) in
    entries := { Schedule.job = j; proc = 0; start; speed = sol.speeds.(k) } :: !entries
  done;
  Schedule.of_entries !entries

let theorem1_holds ?(tol = 1e-6) ~alpha inst sol =
  let n = Instance.n inst in
  let s = sol.last_speed in
  let sa = s ** alpha in
  let ok = ref true in
  for i = 0 to n - 2 do
    let r_next = (Instance.job inst (i + 1)).Job.release in
    let ci = sol.completions.(i) in
    let si_a = sol.speeds.(i) ** alpha in
    let upper = (sol.speeds.(i + 1) ** alpha) +. sa in
    let slack = tol *. (1.0 +. si_a) in
    let case1 = ci < r_next -. tol && Float.abs (sol.speeds.(i) -. s) <= tol *. (1.0 +. s) in
    let case2 = ci > r_next +. tol && Float.abs (si_a -. upper) <= slack in
    let case3 =
      Float.abs (ci -. r_next) <= tol *. (1.0 +. r_next)
      && si_a >= sa -. slack
      && si_a <= upper +. slack
    in
    if not (case1 || case2 || case3) then ok := false
  done;
  !ok
