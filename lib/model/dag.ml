type t = {
  works : float array;
  preds : int list array;
  succs : int list array;
  topo : int list; (* cached topological order *)
}

let toposort works preds succs =
  let n = Array.length works in
  let indeg = Array.map List.length preds in
  let module Q = Queue in
  let q = Q.create () in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then Q.add i q
  done;
  let order = ref [] in
  let count = ref 0 in
  while not (Q.is_empty q) do
    let u = Q.pop q in
    order := u :: !order;
    incr count;
    List.iter
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Q.add v q)
      succs.(u)
  done;
  if !count <> n then invalid_arg "Dag.create: graph has a cycle";
  List.rev !order

let create ~works ~edges =
  let n = Array.length works in
  Array.iter (fun w -> if w <= 0.0 then invalid_arg "Dag.create: non-positive work") works;
  let preds = Array.make n [] and succs = Array.make n [] in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Dag.create: edge endpoint out of range";
      if u = v then invalid_arg "Dag.create: self-loop";
      preds.(v) <- u :: preds.(v);
      succs.(u) <- v :: succs.(u))
    edges;
  let topo = toposort works preds succs in
  { works = Array.copy works; preds; succs; topo }

let chain works = create ~works ~edges:(List.init (Stdlib.max 0 (Array.length works - 1)) (fun i -> (i, i + 1)))
let independent works = create ~works ~edges:[]

let random ~seed ~n ~layers ~edge_prob ~work_range:(wlo, whi) =
  if layers <= 0 || n <= 0 then invalid_arg "Dag.random: need positive n and layers";
  if wlo <= 0.0 || whi < wlo then invalid_arg "Dag.random: bad work range";
  let st = Random.State.make [| seed; 0xda6 |] in
  let works = Array.init n (fun _ -> wlo +. Random.State.float st (whi -. wlo)) in
  let layer_of = Array.init n (fun i -> i * layers / n) in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if layer_of.(v) = layer_of.(u) + 1 && Random.State.float st 1.0 < edge_prob then
        edges := (u, v) :: !edges
    done
  done;
  create ~works ~edges:!edges

let n t = Array.length t.works
let work t i = t.works.(i)
let total_work t = Array.fold_left ( +. ) 0.0 t.works
let preds t i = t.preds.(i)
let succs t i = t.succs.(i)

let topological_order t = t.topo

let longest_path_to t =
  let lp = Array.make (n t) 0.0 in
  List.iter
    (fun v ->
      let best = List.fold_left (fun acc u -> Float.max acc lp.(u)) 0.0 t.preds.(v) in
      lp.(v) <- best +. t.works.(v))
    t.topo;
  lp

let critical_path_work t = Array.fold_left Float.max 0.0 (longest_path_to t)
