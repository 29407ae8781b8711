(* The flow kernel checked by its optimality certificate.

   For release (FIFO) order the laptop problem is convex, so Theorem 1
   together with a budget spent to 1e-9 certifies a flow solution as
   optimal: that is the registered [flow_budget] property.  The
   certificate reads the output, not the algorithm, so it holds
   whatever way a root is reached.  Here it is applied to the
   warm-started path too: every point of a warm-chained
   Flow_frontier.curve must equal a cold solve at its budget to 1e-9,
   and that cold solve must pass [flow_budget].

   Skipped while fault injection is armed: chaos hooks scale
   tolerances and cap iterations, so the warm and cold solves of one
   budget would differ by injected noise rather than by a defect. *)

let prepare c = Oracle.equal_work_view (Oracle.truncate 12 c)

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

let curve_certified c =
  if Fault.installed () then Oracle.Skip "fault injection armed"
  else begin
    let c = prepare c in
    if Instance.n c.Oracle.inst = 0 then Oracle.Skip "empty instance"
    else
      match Oracle.find "flow_budget" with
      | None -> Oracle.Fail "the flow_budget property is not registered"
      | Some flow_budget ->
        let alpha = c.Oracle.alpha and e = c.Oracle.energy in
        let rec certify = function
          | [] -> Oracle.Pass
          | (energy, flow) :: rest -> (
            let cold = Flow.solve_budget ~alpha ~energy c.Oracle.inst in
            if not (close flow cold.Flow.flow) then
              Oracle.fail_eq
                (Printf.sprintf "warm curve flow at E=%.17g vs a cold solve" energy)
                ~expected:cold.Flow.flow ~got:flow
            else
              match flow_budget.Oracle.run { c with Oracle.energy } with
              | Oracle.Fail why -> Oracle.Fail (Printf.sprintf "cold solve at E=%.17g: %s" energy why)
              | Oracle.Pass | Oracle.Skip _ -> certify rest)
        in
        certify
          (Flow_frontier.curve ~jobs:1 ~alpha c.Oracle.inst ~e_lo:(0.5 *. e) ~e_hi:(1.5 *. e) ~n:8)
  end

let registered = ref false

let register () =
  if not !registered then begin
    registered := true;
    Oracle.register
      {
        Oracle.name = "kernel:curve-certified";
        doc = "every warm flow-curve point equals a cold solve that passes flow_budget";
        run = curve_certified;
      }
  end
