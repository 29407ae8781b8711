(* Thin wrapper over the CLOCK_MONOTONIC stub that ships with bechamel,
   so every timestamp in the observability layer comes from one
   monotonic source (never wall time, which can step backwards). *)

let now_ns = Monotonic_clock.now

let ns_to_s ns = Int64.to_float ns /. 1e9

let ns_to_us ns = Int64.to_float ns /. 1e3

type stopwatch = int64

let start () = now_ns ()

let elapsed_ns sw = Int64.sub (now_ns ()) sw

let elapsed_s sw = ns_to_s (elapsed_ns sw)
