#!/usr/bin/env bash
# Build the daemon and the benchmark harness from this checkout, then
# run one workload:
#
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from a pasched source tree (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi
dune build --root . --cache=disabled bin/pasched.exe perfbench/main.exe 1>&2
run=(_build/default/perfbench/main.exe --pasched _build/default/bin/pasched.exe "$@")
# The harness, the daemon and the workers share one CPU (the last one
# this process may use).  Otherwise the scheduler places the client and
# the daemon on the same core in some runs and on different cores in
# others; on a 2-vCPU VM the cross-core wake-ups moved serve_flow's
# closed-loop figures by up to 20% between runs.
if command -v taskset >/dev/null 2>&1; then
  cpus=$(taskset -cp $$ 2>/dev/null | sed 's/.*: *//') || cpus=
  cpu=$(printf '%s\n' "$cpus" | tr ',-' '\n\n' | tail -n 1)
  if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
    exec taskset -c "$cpu" "${run[@]}"
  fi
fi
exec "${run[@]}"
