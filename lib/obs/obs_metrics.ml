(* Named instruments backed by a global registry.

   Handles are interned once (typically at module initialization, on
   the main domain) and then updated through Atomic cells: no lock, no
   hash lookup on the hot path, and — since pasched.par started running
   solver code on worker domains — no lost increments either.  On
   OCaml 4.x the stdlib's Atomic is implemented as plain loads and
   stores (the runtime is single-threaded), so the fallback build keeps
   the historical zero-cost plain-int path; on OCaml 5 the same calls
   compile to real atomic read-modify-writes.

   The interning tables themselves are not domain-safe: handle creation
   must stay on the main domain (module-initialization time in
   practice), which snapshot/reset also assume. *)

type counter = { c_name : string; c_count : int Atomic.t }
type gauge = { g_name : string; g_value : float Atomic.t; g_touched : bool Atomic.t }

type histogram = {
  h_name : string;
  mutable n : int;
  mutable sum : float;
  mutable sumsq : float;
  mutable lo : float;
  mutable hi : float;
}

type histogram_stats = {
  count : int;
  total : float;
  mean : float;
  stddev : float;
  min_v : float;
  max_v : float;
}

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let counter name =
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_count = Atomic.make 0 } in
    Hashtbl.replace counters name c;
    c

let incr c = Atomic.incr c.c_count
let add c k = ignore (Atomic.fetch_and_add c.c_count k)
let value c = Atomic.get c.c_count

let gauge name =
  match Hashtbl.find_opt gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_value = Atomic.make 0.0; g_touched = Atomic.make false } in
    Hashtbl.replace gauges name g;
    g

let set g v =
  Atomic.set g.g_value v;
  Atomic.set g.g_touched true

let gauge_value g = Atomic.get g.g_value

let histogram name =
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
    let h = { h_name = name; n = 0; sum = 0.0; sumsq = 0.0; lo = Float.infinity; hi = Float.neg_infinity } in
    Hashtbl.replace histograms name h;
    h

let observe h v =
  h.n <- h.n + 1;
  h.sum <- h.sum +. v;
  h.sumsq <- h.sumsq +. (v *. v);
  if v < h.lo then h.lo <- v;
  if v > h.hi then h.hi <- v

let stats h =
  if h.n = 0 then { count = 0; total = 0.0; mean = 0.0; stddev = 0.0; min_v = 0.0; max_v = 0.0 }
  else begin
    let nf = float_of_int h.n in
    let mean = h.sum /. nf in
    let var = Float.max 0.0 ((h.sumsq /. nf) -. (mean *. mean)) in
    { count = h.n; total = h.sum; mean; stddev = sqrt var; min_v = h.lo; max_v = h.hi }
  end

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_stats) list;
}

let by_name (a, _) (b, _) = compare (a : string) b

let snapshot () =
  {
    counters =
      Hashtbl.fold (fun name c acc -> (name, Atomic.get c.c_count) :: acc) counters []
      |> List.sort by_name;
    gauges =
      Hashtbl.fold
        (fun name g acc -> if Atomic.get g.g_touched then (name, Atomic.get g.g_value) :: acc else acc)
        gauges []
      |> List.sort by_name;
    histograms =
      Hashtbl.fold (fun name h acc -> if h.n > 0 then (name, stats h) :: acc else acc) histograms []
      |> List.sort by_name;
  }

let reset () =
  Hashtbl.iter (fun _ c -> Atomic.set c.c_count 0) counters;
  Hashtbl.iter
    (fun _ g ->
      Atomic.set g.g_value 0.0;
      Atomic.set g.g_touched false)
    gauges;
  Hashtbl.iter
    (fun _ h ->
      h.n <- 0;
      h.sum <- 0.0;
      h.sumsq <- 0.0;
      h.lo <- Float.infinity;
      h.hi <- Float.neg_infinity)
    histograms
