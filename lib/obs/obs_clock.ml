(* Thin wrapper over the CLOCK_MONOTONIC stub that ships with bechamel,
   so every timestamp in the observability layer comes from one
   monotonic source (never wall time, which can step backwards). *)

let now_ns = Monotonic_clock.now

let ns_to_us ns = Int64.to_float ns /. 1e3
