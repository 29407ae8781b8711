#!/usr/bin/env bash
# Soak a sharded serve daemon with an emitted trace and report latency
# percentiles.  The whole loop is the EXPERIMENTS.md SOAK drill:
#
#   scripts/soak.sh [REQUESTS] [SHARDS] [MAX_INFLIGHT]
#
# defaults: 100000 trace jobs -> 20000 requests, 2 shards, unbounded
# admission.  Pass a small MAX_INFLIGHT (e.g. 16) to watch admission
# control shed with typed busy replies while the daemon stays up.
#
# With CHAOS=1 the script runs the EXPERIMENTS.md CHAOS-SERVE drill
# instead: the soak spawns its own daemon, SIGKILLs it halfway through,
# restarts it, and fails unless journal replay warms the cache and
# client retry masks the outage (exit 0, zero error-class replies,
# post-crash answers byte-identical to pre-crash ones).
set -euo pipefail

jobs=${1:-100000}
shards=${2:-2}
max_inflight=${3:-0}
chaos=${CHAOS:-0}

workdir=$(mktemp -d)
sock="$workdir/pasched.sock"
reqs="$workdir/requests.ndjson"
cache="$workdir/serve.cache"
daemon_pid=""
trap 'if [ -n "$daemon_pid" ]; then kill "$daemon_pid" 2>/dev/null || true; fi; rm -rf "$workdir"' EXIT

dune build bin/pasched.exe
pasched=_build/default/bin/pasched.exe

# 1. a realistic diurnal request trace off the streaming simulator
"$pasched" sim --count "$jobs" --emit-requests 5 > "$reqs"
echo "emitted $(wc -l < "$reqs") requests from a $jobs-job diurnal trace"

if [ "$chaos" = "1" ]; then
  # kill-chaos drill: the soak owns the daemon's lifecycle -- it
  # spawns the daemon, SIGKILLs it at ~50% of the windows, restarts
  # it over the crash debris, and exits nonzero unless recovery is
  # warm (>= 90% of pre-kill cache entries replayed, zero corrupt)
  # and every post-crash recheck is byte-identical
  "$pasched" soak --chaos --socket "$sock" --cache-file "$cache" \
    --file "$reqs" --shards "$shards" --cache 4096 --window 64 \
    --retries 8 --backoff-ms 50 --kill-at 0.5
  echo "chaos drill survived: journal replay + retry masked a SIGKILL"
  exit 0
fi

# 2. the sharded daemon: jump-hash routing, per-shard LRU + pool,
#    admission control, cache persistence
"$pasched" serve --socket "$sock" --shards "$shards" \
  --max-inflight "$max_inflight" --cache-file "$cache" &
daemon_pid=$!
# ready once a ping is answered (the socket file alone exists before
# listen)
"$pasched" client --socket "$sock" --retries 10 --backoff-ms 50 '{"op":"ping"}' > /dev/null

# 3. the measured soak: windowed pipelining, p50/p95/p99 via the
#    streaming quantile estimator
"$pasched" soak --socket "$sock" --file "$reqs" --window 64

# 4. clean shutdown persists every shard's cache
"$pasched" client --socket "$sock" '{"op":"shutdown"}' > /dev/null
wait "$daemon_pid" 2>/dev/null || true
echo "persisted cache: $(wc -l < "$cache") entries at $cache"
