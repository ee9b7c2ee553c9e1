#!/usr/bin/env bash
# Pre-merge check: configure (Release, warnings on), build, run the full
# test suite and the end-to-end benchmark's quick-scale digest check,
# then print the sweep microbenchmark gauges so perf regressions are
# visible next to the test results.
#
# Usage: scripts/check.sh [build-dir]   (default: build)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-Wall -Wextra"
cmake --build "$BUILD_DIR" -j "$(nproc)"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo
echo "== end-to-end benchmark, quick scale (pinned seed-1 digests) =="
# bench_e2e/ is a package of its own: it builds the library from src/
# and its ctest, bench_e2e_quick, runs every workload once and fails on
# any digest, failed operation or check that does not hold.
cmake -B "$BUILD_DIR/bench_e2e" -S bench_e2e -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR/bench_e2e" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR/bench_e2e" --output-on-failure

GMD="$BUILD_DIR/examples/gmd"

echo
echo "== GMDT pack -> verify -> unpack smoke =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
"$GMD" trace --out-dir "$SMOKE_DIR" --vertices 256
"$GMD" trace pack \
  --input "$SMOKE_DIR/workload.gem5.txt" --input-format gem5 \
  --output "$SMOKE_DIR/smoke.gmdt"
"$GMD" trace verify --input "$SMOKE_DIR/smoke.gmdt"
"$GMD" trace unpack \
  --input "$SMOKE_DIR/smoke.gmdt" --output "$SMOKE_DIR/smoke.nvmain.txt"
cmp "$SMOKE_DIR/smoke.nvmain.txt" "$SMOKE_DIR/workload.nvmain.txt"
echo "GMDT round trip matches the text converter output"

echo
echo "== pipeline kill-and-resume smoke =="
PIPE_REF="$SMOKE_DIR/pipeline-ref"
PIPE_KILLED="$SMOKE_DIR/pipeline-killed"
# Reference: one uninterrupted run.
"$GMD" pipeline --vertices 96 --out-dir "$PIPE_REF" \
  --summary-only
# Same configuration, killed twice (SIGKILL stand-in: no destructors, no
# flushes) and failed once, resumed after each fault.
if "$GMD" pipeline --vertices 96 \
    --out-dir "$PIPE_KILLED" --kill-after-points 5 --summary-only; then
  echo "expected the mid-sweep kill to terminate the run" >&2; exit 1
fi
if "$GMD" pipeline --vertices 96 \
    --out-dir "$PIPE_KILLED" --resume --kill-stage train --summary-only; then
  echo "expected the pre-train kill to terminate the run" >&2; exit 1
fi
if "$GMD" pipeline --vertices 96 \
    --out-dir "$PIPE_KILLED" --resume --fail-stage recommend \
    --summary-only; then
  echo "expected the injected recommend failure to fail the run" >&2; exit 1
fi
"$GMD" pipeline --vertices 96 --out-dir "$PIPE_KILLED" \
  --resume --summary-only
# The markdown study report, retrained from the recovered sweep.csv.
"$GMD" pipeline --vertices 96 --out-dir "$PIPE_KILLED" \
  --resume --summary-only --report "$SMOKE_DIR/study.md"
grep -q '## Surrogate model scores' "$SMOKE_DIR/study.md"
# The recovered artifacts must be bit-identical to the uninterrupted run,
# and no uncommitted temp file may survive.
cmp "$PIPE_REF/sweep.csv" "$PIPE_KILLED/sweep.csv"
cmp "$PIPE_REF/table1.txt" "$PIPE_KILLED/table1.txt"
cmp "$PIPE_REF/recommendations.txt" "$PIPE_KILLED/recommendations.txt"
for model in "$PIPE_REF"/models/*.model; do
  cmp "$model" "$PIPE_KILLED/models/$(basename "$model")"
done
LEFTOVER_TEMPS="$(find "$PIPE_REF" "$PIPE_KILLED" -name '*.tmp')"
if [ -n "$LEFTOVER_TEMPS" ]; then
  echo "uncommitted temp files left behind:" >&2
  echo "$LEFTOVER_TEMPS" >&2
  exit 1
fi
echo "killed-and-resumed pipeline matches the uninterrupted run bit for bit"

echo
echo "== distributed sweep kill-worker smoke =="
# Single-process reference CSV over the full 416-point paper grid.
"$GMD" sweep --vertices 96 --space paper \
  --policy retry --csv "$SMOKE_DIR/single-sweep.csv" > /dev/null
# Lease-sharded run: 4 forked workers, two of which _Exit(137) (the
# SIGKILL stand-in — no destructors, no flushes) after 10 journaled
# points; the supervisor reaps and respawns them mid-run.
"$GMD" sweep --vertices 96 --space paper \
  --policy retry --run-dir "$SMOKE_DIR/dist-forked" --distributed 4 \
  --shard-points 8 --lease-ttl-ms 1000 --kill-workers 2 \
  --kill-after-points 10 > /dev/null
cmp "$SMOKE_DIR/single-sweep.csv" "$SMOKE_DIR/dist-forked/sweep.csv"
echo "4-worker run with two SIGKILLed workers matches single-process bit for bit"
# External supervisor + worker processes: two workers die mid-run, a
# replacement restarted under a dead worker's id adopts its journal.
timeout 300 "$GMD" sweep --vertices 96 --space paper \
  --run-dir "$SMOKE_DIR/dist-ext" --supervise-only --shard-points 8 \
  --lease-ttl-ms 1000 > /dev/null & SUP_PID=$!
"$GMD" worker --run-dir "$SMOKE_DIR/dist-ext" --space paper --worker w1 \
  > /dev/null &
"$GMD" worker --run-dir "$SMOKE_DIR/dist-ext" --space paper --worker w2 \
  --exit-after-points 5 > /dev/null & W2_PID=$!
"$GMD" worker --run-dir "$SMOKE_DIR/dist-ext" --space paper --worker w3 \
  --exit-after-points 5 > /dev/null & W3_PID=$!
if wait "$W2_PID"; then
  echo "expected worker w2 to be killed mid-run" >&2; exit 1
fi
if wait "$W3_PID"; then
  echo "expected worker w3 to be killed mid-run" >&2; exit 1
fi
"$GMD" worker --run-dir "$SMOKE_DIR/dist-ext" --space paper --worker w2 \
  > /dev/null &
wait "$SUP_PID"
cmp "$SMOKE_DIR/single-sweep.csv" "$SMOKE_DIR/dist-ext/sweep.csv"
wait
echo "supervised run with killed-and-resumed workers matches bit for bit"
# A supervisor over a limited prefix of the 10^6-point grid, joined by
# an external worker: gmd sweep and gmd worker read --space and --limit
# through one point-list parser, so they agree on the sweep identity.
MILLION=(--space million --limit 24)
"$GMD" sweep "${MILLION[@]}" --csv "$SMOKE_DIR/million-single.csv" > /dev/null
timeout 300 "$GMD" sweep "${MILLION[@]}" --run-dir "$SMOKE_DIR/million-ext" \
  --supervise-only --shard-points 8 > /dev/null & SUP_PID=$!
"$GMD" worker --run-dir "$SMOKE_DIR/million-ext" "${MILLION[@]}" \
  --worker m1 > /dev/null
wait "$SUP_PID"
cmp "$SMOKE_DIR/million-single.csv" "$SMOKE_DIR/million-ext/sweep.csv"
echo "external worker over a limited million-point space matches single-process bit for bit"

echo
echo "== bounded-memory sweep =="
# The sweep keeps a predecoded stream only while the task that built it
# replays its members, so peak memory grows with the thread count, not
# with the four clock-free geometries of the paper grid (each split into
# per-thread pieces).  Building one stream per (geometry, clock pair)
# and keeping all of them for the whole sweep peaked near 290 MB here;
# the bound fails that.  The arithmetic: 4 threads peak near 14 MB, and
# each further pool thread adds one live stream of about 1 MB (71,630
# requests at 16 B, plus its arena), so 16 hardware threads reach
# 14 + 12 * 1 = 26 MB (measured: 25-26 MB), with room left for allocator
# arenas.  The 60 B record this replaced fails it from 8 threads (49 MB).
python3 - "$GMD" sweep --vertices 1024 \
  --space paper --csv "$SMOKE_DIR/bounded-sweep.csv" <<'PY'
import resource
import subprocess
import sys

LIMIT_MB = 40
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"1024-vertex paper-grid sweep peaked at {peak_mb:.0f} MB "
      f"(bound {LIMIT_MB} MB)")
sys.exit(1 if peak_mb > LIMIT_MB else 0)
PY

echo
echo "== sampled-CI smoke =="
"$GMD" memsim --emit-config dram > "$SMOKE_DIR/dram.cfg"
# A sampled run must report confidence intervals for every metric.
"$GMD" memsim --config "$SMOKE_DIR/dram.cfg" \
  --trace "$SMOKE_DIR/smoke.nvmain.txt" --sample-fraction 0.5 \
  --sample-chunk-events 500 > "$SMOKE_DIR/sampled.out"
grep -q "joint confidence intervals" "$SMOKE_DIR/sampled.out"
CI_LINES="$(grep -c '\[.*, .*\]' "$SMOKE_DIR/sampled.out")"
if [ "$CI_LINES" -lt 6 ]; then
  echo "expected >= 6 per-metric CI lines, got $CI_LINES" >&2; exit 1
fi
echo "sampled run reports per-metric confidence intervals"

echo
echo "== query service smoke =="
# Bare protocol: health + stats on stdin, one response line each, and a
# clean drain (exit 0) when stdin closes.
printf '%s\n' '{"verb":"health","id":1}' '{"verb":"stats","id":2}' \
  | "$BUILD_DIR/examples/gmd_serve" > "$SMOKE_DIR/serve.out"
grep -q '"status":"ok"' "$SMOKE_DIR/serve.out"
test "$(wc -l < "$SMOKE_DIR/serve.out")" -eq 2
echo "gmd_serve answered health+stats and drained cleanly on EOF"
# Chaos smoke: an armed one-shot fault answers its typed wire code on
# the first stats, then the site disarms and the second stats succeeds.
printf '%s\n' '{"verb":"stats","id":1}' '{"verb":"stats","id":2}' \
  | "$BUILD_DIR/examples/gmd_serve" \
      --faults 'service.stats=unavailable:nth=1:oneshot' \
  > "$SMOKE_DIR/serve_faults.out"
grep -q '"code":"unavailable"' "$SMOKE_DIR/serve_faults.out"
grep -q '"ok":true' "$SMOKE_DIR/serve_faults.out"
echo "gmd_serve fault injection: typed error once, then healthy"
# Full client smoke: concurrent mixed load, cache bit-identity against
# run_sweep, 10k-config predict, deadline expiry, overload shedding on
# a tiny queue, graceful drain, SIGKILL + transparent client retry, and
# an injected store fault that quarantines and self-heals.
"$BUILD_DIR/examples/service_client" --server "$BUILD_DIR/examples/gmd_serve" \
  --vertices 128 --out-dir "$SMOKE_DIR/service"

echo
echo "== adaptive explorer kill-and-resume smoke =="
EXPLORER_ARGS=(--vertices 96 --space reduced --model rf --initial 8 \
  --batch 4 --rounds 3 --budget 20 --top-k 5)
# Reference: one uninterrupted closed loop.
"$GMD" explore "${EXPLORER_ARGS[@]}" \
  --out-dir "$SMOKE_DIR/explorer-ref" > /dev/null
# Same loop, SIGKILL stand-in (_Exit, no destructors, no flushes) after
# one acquisition round, then resumed from the journals.
if "$GMD" explore "${EXPLORER_ARGS[@]}" \
    --run-dir "$SMOKE_DIR/explorer-kill" --kill-after-round 2 \
    > /dev/null; then
  echo "expected the mid-loop kill to terminate the explorer" >&2; exit 1
fi
"$GMD" explore "${EXPLORER_ARGS[@]}" \
  --run-dir "$SMOKE_DIR/explorer-kill" --resume \
  --out-dir "$SMOKE_DIR/explorer-resumed" > /dev/null
for artifact in result.csv front_power_w__total_latency_cycles.csv \
    front_power_w__bandwidth_mbs.csv; do
  cmp "$SMOKE_DIR/explorer-ref/$artifact" \
    "$SMOKE_DIR/explorer-resumed/$artifact"
done
echo "killed-and-resumed explorer matches the uninterrupted run bit for bit"

echo
echo "== memsim microbenchmarks =="
"$BUILD_DIR/bench/bench_micro" \
  --benchmark_filter='BM_MemorySimulation' --benchmark_min_time=2

echo
echo "== sweep gauge (compare against BENCH_sweep.json) =="
"$BUILD_DIR/bench/bench_sweep"

echo
echo "== surrogate training gauge, quick mode (compare against BENCH_ml.json) =="
"$BUILD_DIR/bench/bench_ml" --quick

echo
echo "== query service gauge (compare against BENCH_service.json) =="
"$BUILD_DIR/bench/bench_service"

echo
echo "== explorer gauge, quick mode (compare against BENCH_explorer.json) =="
"$BUILD_DIR/bench/bench_explorer" --quick

echo
echo "== code size gauge (non-blank lines that are not // comments) =="
# The ROADMAP's counting method: every .cpp and .hpp file, less blank
# lines and whole-line // comments.  A printed number, not a gate.
for dir in src examples; do
  lines=$(find "$dir" \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
    xargs -0 cat | grep -v '^[[:space:]]*$' | grep -cv '^[[:space:]]*//')
  echo "$dir/: $lines code lines"
done
