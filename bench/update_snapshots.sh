#!/usr/bin/env sh
# Regenerate the in-repo perf-trajectory snapshots (ROADMAP: commit
# BENCH_*.json so perf changes are visible in review):
#
#   bench/BENCH_eval_micro.json     google-benchmark JSON of the hot-path
#                                   microbenchmarks (evaluator,
#                                   router/network models)
#   bench/BENCH_parallel_sweep.json headline numbers of the batch
#                                   speedup + bit-identity bench
#   bench/BENCH_trace_overhead.json flight-recorder overhead on the
#                                   reference-CG evaluation hot path
#                                   (tracing disabled must be <1%)
#   bench/BENCH_service_throughput.json  interactive latency under a
#                                   mixed service workload: FIFO
#                                   baseline vs the weighted-fair
#                                   broker at concurrency 1/2/4
#                                   (interactive p99 must improve >=2x)
#
# Usage: bench/update_snapshots.sh [build-dir]   (default: ./build)
#
# Numbers are machine-dependent; snapshots track the trajectory on the
# reference machine, they are not asserted by CI.
set -eu

cd "$(dirname "$0")/.."
build="${1:-build}"

if [ ! -x "$build/bench_eval_micro" ] || [ ! -x "$build/bench_parallel_sweep" ]; then
  echo "error: bench binaries not found under '$build'" >&2
  echo "build them first: cmake -B $build -S . && cmake --build $build -j" >&2
  exit 1
fi

"$build/bench_eval_micro" \
  --benchmark_out=bench/BENCH_eval_micro.json \
  --benchmark_out_format=json

# A budget small enough to finish in seconds but large enough that the
# pool actually spreads load (the full 128-cell Table II-style grid at
# 800 evaluations per cell). --workerd-threads sweeps the worker-side
# exec-pool width through the remote scheduler — the serve_connection
# internal-pool scaling axis, bit-identity re-checked at every width.
PHONOC_SWEEP_EVALS=800 "$build/bench_parallel_sweep" \
  --workerd-threads=1,2,4 \
  --json=bench/BENCH_parallel_sweep.json >/dev/null

"$build/bench_trace_overhead" --json=bench/BENCH_trace_overhead.json

# Mixed service workload (a few heavy sweeps + an interactive burst
# from several clients) through a paused broker, one pass per
# scheduling policy. The FIFO pass is the pre-pool baseline; the drr
# passes sweep the broker worker pool through 1/2/4.
"$build/bench_service_throughput" \
  --concurrency=1,2,4 \
  --json=bench/BENCH_service_throughput.json

echo "snapshots updated:"
ls -l bench/BENCH_eval_micro.json \
  bench/BENCH_parallel_sweep.json bench/BENCH_trace_overhead.json \
  bench/BENCH_service_throughput.json
