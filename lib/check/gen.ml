type 'a t = size:int -> Rng.t -> 'a

let run ~size ~seed g = g ~size (Rng.make seed)

let return x ~size:_ _ = x
let map f g ~size rng = f (g ~size rng)

let map2 f ga gb ~size rng =
  let a = ga ~size rng in
  let b = gb ~size rng in
  f a b

let pair ga gb = map2 (fun a b -> (a, b)) ga gb

let sized body ~size rng = (body size) ~size rng

let int_range lo hi ~size:_ rng =
  if lo > hi then invalid_arg "Gen.int_range: lo > hi";
  lo + Rng.int rng (hi - lo + 1)

let float_range lo hi ~size:_ rng = lo +. Rng.float rng (hi -. lo)

let oneof gens ~size rng =
  match gens with
  | [] -> invalid_arg "Gen.oneof: empty list"
  | _ -> (List.nth gens (Rng.int rng (List.length gens))) ~size rng

let frequency weighted ~size rng =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 weighted in
  if total <= 0 then invalid_arg "Gen.frequency: weights must sum to a positive value";
  let k = Rng.int rng total in
  let rec pick k = function
    | [] -> assert false
    | (w, g) :: tl -> if k < w then g else pick (k - w) tl
  in
  (pick k weighted) ~size rng

let list_n len g ~size rng =
  let n = len ~size rng in
  List.init n (fun _ -> g ~size rng)

(* ---------- domain generators ---------- *)

let sub_seed : int t = fun ~size:_ rng -> Rng.int rng 0x3fffffff

let arrival : Workload.arrival t =
  oneof
    [
      return Workload.Immediate;
      map (fun rate -> Workload.Poisson rate) (float_range 0.2 3.0);
      map (fun span -> Workload.Uniform_span span) (float_range 0.5 20.0);
      map2
        (fun (bursts, span) jitter -> Workload.Bursty { bursts; span; jitter = jitter *. span })
        (pair (int_range 1 5) (float_range 1.0 15.0))
        (float_range 0.01 0.2);
      map (fun step -> Workload.Staircase step) (float_range 0.1 3.0);
    ]

let power_exponent : float t = frequency [ (1, return 2.0); (1, return 3.0); (2, float_range 1.5 4.0) ]
let procs : int t = int_range 1 4
let n_jobs : int t = sized (fun size -> int_range 1 (Stdlib.max 2 (Stdlib.min 40 size)))

let instance : Instance.t t =
 fun ~size rng ->
  let n = n_jobs ~size rng in
  let seed = sub_seed ~size rng in
  let arr = arrival ~size rng in
  let dist = Rng.int rng 4 in
  match dist with
  | 0 -> Workload.equal_work ~seed ~n ~work:(float_range 0.3 3.0 ~size rng) arr
  | 1 -> Workload.uniform_work ~seed ~n ~lo:0.2 ~hi:(float_range 0.5 4.0 ~size rng +. 0.2) arr
  | 2 -> Workload.heavy_tailed ~seed ~n ~shape:(float_range 1.5 3.0 ~size rng) ~scale:0.5 arr
  | _ -> Workload.partition_style ~seed ~n ~max_value:(int_range 1 12 ~size rng)

let case : Oracle.case t =
 fun ~size rng ->
  let inst = instance ~size rng in
  let alpha = power_exponent ~size rng in
  let m = procs ~size rng in
  let seed = sub_seed ~size rng in
  (* budget proportional to total work keeps speeds in sane ranges for
     every n; the multiplier spans under- and over-provisioned regimes *)
  let energy = Instance.total_work inst *. float_range 0.3 5.0 ~size rng in
  { Oracle.seed; alpha; energy; m; inst }
