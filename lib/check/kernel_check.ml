(* Differential properties for the unboxed kernel hot paths.

   Two claims shipped with the scratch-arena kernels, checked here on
   fuzzed cases:

   - bitwise: the unboxed Flow/Frontier produce exactly the floats of
     Kernel_ref, the boxed mirror of the same arithmetic — the layout
     (Float.Array + per-domain scratch) is a pure representation
     change;
   - semantic: the current algorithm's roots agree with the frozen
     PR6-era solver (Kernel_ref.Legacy) to root-finder precision —
     analytic windows and Newton changed how the roots are reached,
     not where they are.

   All three skip while fault injection is armed: chaos hooks scale
   tolerances and cap iterations inside the instrumented kernels but
   not inside the uninstrumented references, so a differential
   comparison under chaos would report injected noise as a defect. *)

let prepare c = Oracle.equal_work_view (Oracle.truncate 12 c)

let grid c =
  let e = c.Oracle.energy in
  (0.5 *. e, 1.5 *. e)

let curve_bitwise c =
  if Fault.installed () then Oracle.Skip "fault injection armed"
  else begin
    let c = prepare c in
    if Instance.n c.Oracle.inst = 0 then Oracle.Skip "empty instance"
    else begin
      let e_lo, e_hi = grid c in
      let got = Flow_frontier.curve ~jobs:1 ~alpha:c.Oracle.alpha c.Oracle.inst ~e_lo ~e_hi ~n:8 in
      let want = Kernel_ref.curve ~alpha:c.Oracle.alpha c.Oracle.inst ~e_lo ~e_hi ~n:8 in
      if got = want then Oracle.Pass
      else Oracle.Fail "unboxed curve differs bitwise from the boxed mirror"
    end
  end

let sample_bitwise c =
  if Fault.installed () then Oracle.Skip "fault injection armed"
  else begin
    let c = Oracle.truncate 12 c in
    if Instance.n c.Oracle.inst = 0 then Oracle.Skip "empty instance"
    else begin
      let e_lo, e_hi = grid c in
      let model = Oracle.model c in
      let got =
        Frontier.sample ~jobs:1 (Frontier.build model c.Oracle.inst) ~lo:e_lo ~hi:e_hi ~n:16
      in
      let want =
        Kernel_ref.sample (Kernel_ref.frontier_build model c.Oracle.inst) ~lo:e_lo ~hi:e_hi ~n:16
      in
      if got = want then Oracle.Pass
      else Oracle.Fail "unboxed frontier sample differs bitwise from the boxed mirror"
    end
  end

let flow_legacy_close c =
  if Fault.installed () then Oracle.Skip "fault injection armed"
  else begin
    let c = prepare c in
    if Instance.n c.Oracle.inst = 0 then Oracle.Skip "empty instance"
    else begin
      let sol = Flow.solve_budget ~alpha:c.Oracle.alpha ~energy:c.Oracle.energy c.Oracle.inst in
      let old =
        Kernel_ref.Legacy.solve_budget ~alpha:c.Oracle.alpha ~energy:c.Oracle.energy c.Oracle.inst
      in
      let close = Oracle.close ~tol:1e-9 in
      if not (close sol.Flow.last_speed old.Kernel_ref.Legacy.last_speed) then
        Oracle.fail_eq "last speed drifted from the PR6-era solver"
          ~expected:old.Kernel_ref.Legacy.last_speed ~got:sol.Flow.last_speed
      else if not (close sol.Flow.flow old.Kernel_ref.Legacy.flow) then
        Oracle.fail_eq "total flow drifted from the PR6-era solver"
          ~expected:old.Kernel_ref.Legacy.flow ~got:sol.Flow.flow
      else if not (close sol.Flow.energy old.Kernel_ref.Legacy.energy) then
        Oracle.fail_eq "energy drifted from the PR6-era solver"
          ~expected:old.Kernel_ref.Legacy.energy ~got:sol.Flow.energy
      else Oracle.Pass
    end
  end

let props =
  [
    ( "kernel:curve-bitwise",
      "the unboxed flow curve equals the boxed mirror float for float",
      curve_bitwise );
    ( "kernel:sample-bitwise",
      "the unboxed frontier sample equals the boxed mirror float for float",
      sample_bitwise );
    ( "kernel:flow-legacy-close",
      "budget roots agree with the frozen PR6-era solver to 1e-9",
      flow_legacy_close );
  ]

let registered = ref false

let register () =
  if not !registered then begin
    registered := true;
    List.iter (fun (name, doc, run) -> Oracle.register { Oracle.name; doc; run }) props
  end
