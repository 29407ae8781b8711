exception No_bracket of { lo : float; hi : float; f_lo : float; f_hi : float }
exception No_convergence of { iters : int; residual : float }

(* iteration counters are batched: one [Obs.add] per solver call, so
   the per-iteration cost of instrumentation is zero *)
let c_bisect = Obs.counter "rootfind.bisect_iters"
let c_brent = Obs.counter "rootfind.brent_iters"
let c_newton = Obs.counter "rootfind.newton_iters"
let c_bracket = Obs.counter "rootfind.bracket_steps"
let c_calls = Obs.counter "rootfind.calls"

let default_eps = 1e-12

let opposite fa fb = (fa <= 0.0 && fb >= 0.0) || (fa >= 0.0 && fb <= 0.0)

let bisect ~f ~lo ~hi ?(eps = default_eps) ?(max_iter = 200) () =
  Fault.enter "rootfind.bisect";
  let eps = eps *. Fault.tol_scale () in
  let max_iter = Fault.cap_iters max_iter in
  let fa = f lo and fb = f hi in
  if not (opposite fa fb) then raise (No_bracket { lo; hi; f_lo = fa; f_hi = fb });
  if fa = 0.0 then lo
  else if fb = 0.0 then hi
  else begin
    let lo = ref lo and hi = ref hi and fa = ref fa in
    let i = ref 0 in
    let width () = !hi -. !lo in
    let tol () = eps *. (1.0 +. Float.abs !lo +. Float.abs !hi) in
    while width () > tol () && !i < max_iter do
      Fault.tick ();
      let mid = 0.5 *. (!lo +. !hi) in
      let fm = f mid in
      if fm = 0.0 then begin
        lo := mid;
        hi := mid
      end
      else if (fm < 0.0) = (!fa < 0.0) then begin
        lo := mid;
        fa := fm
      end
      else hi := mid;
      incr i
    done;
    Obs.incr c_calls;
    Obs.add c_bisect !i;
    let mid = 0.5 *. (!lo +. !hi) in
    if width () > tol () then raise (No_convergence { iters = !i; residual = Float.abs (f mid) });
    Fault.observe_float "rootfind.bisect" mid
  end

let brent ~f ~lo ~hi ?flo ?fhi ?(eps = default_eps) ?(max_iter = 200) () =
  Fault.enter "rootfind.brent";
  let eps = eps *. Fault.tol_scale () in
  let max_iter = Fault.cap_iters max_iter in
  let a = ref lo and b = ref hi in
  let endpoint pre x = match pre with Some v -> v | None -> f x in
  let fa = ref (endpoint flo !a) and fb = ref (endpoint fhi !b) in
  if not (opposite !fa !fb) then raise (No_bracket { lo; hi; f_lo = !fa; f_hi = !fb });
  if Float.abs !fa < Float.abs !fb then begin
    let t = !a in
    a := !b;
    b := t;
    let t = !fa in
    fa := !fb;
    fb := t
  end;
  let c = ref !a and fc = ref !fa in
  let d = ref (!b -. !a) in
  let mflag = ref true in
  let iter = ref 0 in
  let converged () = !fb = 0.0 || Float.abs (!b -. !a) <= eps *. (1.0 +. Float.abs !b) in
  while (not (converged ())) && !iter < max_iter do
    Fault.tick ();
    let s =
      if !fa <> !fc && !fb <> !fc then
        (* inverse quadratic interpolation *)
        (!a *. !fb *. !fc /. ((!fa -. !fb) *. (!fa -. !fc)))
        +. (!b *. !fa *. !fc /. ((!fb -. !fa) *. (!fb -. !fc)))
        +. (!c *. !fa *. !fb /. ((!fc -. !fa) *. (!fc -. !fb)))
      else !b -. (!fb *. (!b -. !a) /. (!fb -. !fa))
    in
    let lo_bound = (3.0 *. !a +. !b) /. 4.0 in
    let in_range = s > Float.min lo_bound !b && s < Float.max lo_bound !b in
    let cond_bisect =
      (not in_range)
      || (!mflag && Float.abs (s -. !b) >= Float.abs (!b -. !c) /. 2.0)
      || ((not !mflag) && Float.abs (s -. !b) >= Float.abs (!c -. !d) /. 2.0)
      || (!mflag && Float.abs (!b -. !c) < eps)
      || ((not !mflag) && Float.abs (!c -. !d) < eps)
    in
    let s = if cond_bisect then 0.5 *. (!a +. !b) else s in
    mflag := cond_bisect;
    let fs = f s in
    d := !c;
    c := !b;
    fc := !fb;
    if opposite !fa fs then begin
      b := s;
      fb := fs
    end
    else begin
      a := s;
      fa := fs
    end;
    if Float.abs !fa < Float.abs !fb then begin
      let t = !a in
      a := !b;
      b := t;
      let t = !fa in
      fa := !fb;
      fb := t
    end;
    incr iter
  done;
  Obs.incr c_calls;
  Obs.add c_brent !iter;
  if not (converged ()) then raise (No_convergence { iters = !iter; residual = Float.abs !fb });
  Fault.observe_float "rootfind.brent" !b

let newton ~f ~df ~x0 ?(eps = default_eps) ?(max_iter = 100) () =
  let max_iter = Fault.cap_iters max_iter in
  let eps = eps *. Fault.tol_scale () in
  let steps = ref 0 in
  let rec go x i =
    steps := i;
    Fault.tick ();
    let fx = f x in
    if i >= max_iter then raise (No_convergence { iters = i; residual = Float.abs fx })
    else if Float.abs fx = 0.0 then x
    else begin
      let d = df x in
      if d = 0.0 || not (Float.is_finite d) then
        raise (No_convergence { iters = i; residual = Float.abs fx })
      else begin
        let x' = x -. (fx /. d) in
        if not (Float.is_finite x') then raise (No_convergence { iters = i; residual = Float.abs fx })
        else if Float.abs (x' -. x) <= eps *. (1.0 +. Float.abs x') then x'
        else go x' (i + 1)
      end
    end
  in
  let root = go x0 0 in
  Obs.incr c_calls;
  Obs.add c_newton !steps;
  root

(* Safeguarded Newton on a bracket, for a DECREASING function whose
   derivative falls out of the same evaluation loop as the value (the
   Flow kernel's pinned-run windows: value and derivative share every
   [**], so one fused evaluation costs what a plain one does).  The
   caller guarantees f lo >= 0 >= f hi without those endpoints being
   (re-)evaluated here; every evaluated point tightens the bracket, and
   any Newton step that leaves it — or meets a flat or non-finite
   derivative — is replaced by bisection, so convergence never depends
   on the initial guess being good.  State lives in one flat all-float
   record: an iteration allocates nothing. *)
type newton_state = { mutable x : float; mutable blo : float; mutable bhi : float }

let newton_bracketed ~f_df ~lo ~hi ?x0 ?(eps = default_eps) ?(max_iter = 200) () =
  Fault.enter "rootfind.newton_bracketed";
  let eps = eps *. Fault.tol_scale () in
  let max_iter = Fault.cap_iters max_iter in
  let st = { x = (match x0 with Some x -> x | None -> 0.5 *. (lo +. hi)); blo = lo; bhi = hi } in
  if not (st.x > lo && st.x < hi) then st.x <- 0.5 *. (lo +. hi);
  let iter = ref 0 in
  let finished = ref false in
  while (not !finished) && !iter < max_iter do
    Fault.tick ();
    let fx, dx = f_df st.x in
    let x' = st.x -. (fx /. dx) in
    (* a Newton step that rounds away leaves x the root to the last bit;
       x is about to end the bracket, which would bisect away from it *)
    if fx = 0.0 || x' = st.x then finished := true
    else begin
      if fx > 0.0 then st.blo <- st.x else st.bhi <- st.x;
      let x' =
        if Float.is_finite x' && x' > st.blo && x' < st.bhi then x'
        else 0.5 *. (st.blo +. st.bhi)
      in
      if Float.abs (x' -. st.x) <= eps *. (1.0 +. Float.abs x') then begin
        st.x <- x';
        finished := true
      end
      else st.x <- x'
    end;
    incr iter
  done;
  Obs.incr c_calls;
  Obs.add c_newton !iter;
  if not !finished then raise (No_convergence { iters = !iter; residual = st.bhi -. st.blo });
  Fault.observe_float "rootfind.newton_bracketed" st.x

let bracket_outward ~f ~lo ~hi ?(grow = 1.6) ?(max_iter = 60) () =
  if lo >= hi then raise (No_bracket { lo; hi; f_lo = Float.nan; f_hi = Float.nan });
  let max_iter = Fault.cap_iters max_iter in
  let lo = ref lo and hi = ref hi in
  let fa = ref (f !lo) and fb = ref (f !hi) in
  let i = ref 0 in
  while (not (opposite !fa !fb)) && !i < max_iter do
    Fault.tick ();
    let width = !hi -. !lo in
    if Float.abs !fa < Float.abs !fb then begin
      lo := !lo -. (grow *. width);
      fa := f !lo
    end
    else begin
      hi := !hi +. (grow *. width);
      fb := f !hi
    end;
    incr i
  done;
  Obs.add c_bracket !i;
  if opposite !fa !fb then (!lo, !hi)
  else raise (No_bracket { lo = !lo; hi = !hi; f_lo = !fa; f_hi = !fb })

let find_root ~f ~lo ~hi ?(eps = default_eps) () =
  let lo, hi = if opposite (f lo) (f hi) then (lo, hi) else bracket_outward ~f ~lo ~hi () in
  brent ~f ~lo ~hi ~eps ()
