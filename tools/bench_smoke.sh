#!/usr/bin/env sh
# Fast end-to-end smoke of the build: the full test suite plus a minimal
# bench_perf pass (microbenches at minimum time, macro section on a small
# population). Intended as the pre-push gate; see `make bench_smoke`.
#
# Usage: tools/bench_smoke.sh [build-dir]
#   build-dir defaults to ./build (configured if missing).
# Env:
#   PROXION_BENCH_SCALE  population size for the macro section (default 2000
#                        here; bench default is 12000).
set -eu

BUILD_DIR="${1:-build}"
SCALE="${PROXION_BENCH_SCALE:-2000}"

if [ ! -f "${BUILD_DIR}/CMakeCache.txt" ]; then
  cmake -B "${BUILD_DIR}" -S .
fi
cmake --build "${BUILD_DIR}" -j "$(nproc 2>/dev/null || echo 4)"

echo "== ctest =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc 2>/dev/null || echo 4)"

echo "== bench_perf (smoke: PROXION_BENCH_SCALE=${SCALE}) =="
PROXION_BENCH_SCALE="${SCALE}" \
  "${BUILD_DIR}/bench/bench_perf" --benchmark_min_time=0.01s

echo "== raw-speed acceptance (selector memo ratio) =="
# The hot-path pass must hold its headline ratio on the repeat-sweep
# ablation bench_perf just wrote: selector-hash keccak invocations down
# >= 2x with the selector memo on, and all ablation sweeps bit-identical.
# (For scale: the seed recorded 7.43e6 keccak invocations across a full
# bench_perf run, all paid on every sweep.)
python3 - <<'EOF'
import json

with open("BENCH_results.json") as f:
    results = json.load(f)["bench_perf"]

keccak_x = results["selector_memo_keccak_reduction_x"]
identical = results["raw_speed_sweeps_identical"]

assert keccak_x >= 2.0, f"selector-memo keccak reduction {keccak_x:.2f}x < 2x"
assert identical == 1.0, "ablation sweeps were not bit-identical"
print(f"  keccak reduction {keccak_x:.2f}x (>=2), sweeps identical")
EOF

echo "== bench_layout_inference (smoke: PROXION_BENCH_SCALE=${SCALE}) =="
PROXION_BENCH_SCALE="${SCALE}" \
  "${BUILD_DIR}/bench/bench_layout_inference"

echo "== layout-inference acceptance (source-free coverage + drift) =="
# The source-free collision mode must family-check >= 90% of the pairs the
# source-attached mode checks on the synthetic population, and every pair
# family-checked in both modes must reach the same family-collision verdict
# (declared and inferred layouts share the (base, depth, path) identity).
python3 - <<'EOF'
import json

with open("BENCH_results.json") as f:
    results = json.load(f)["bench_layout_inference"]

coverage = results["source_free_coverage_ratio"]
diffs = results["family_verdict_diffs"]

assert coverage >= 0.90, f"source-free coverage {coverage:.3f} < 0.90"
assert diffs == 0.0, f"{diffs:.0f} family-verdict diffs between modes"
print(f"  source-free coverage {coverage:.3f} (>=0.90), "
      f"verdict diffs {diffs:.0f} (==0)")
EOF

echo "== bench_telemetry_overhead (smoke: PROXION_BENCH_SCALE=${SCALE}) =="
PROXION_BENCH_SCALE="${SCALE}" \
  "${BUILD_DIR}/bench/bench_telemetry_overhead" --benchmark_min_time=0.01s

echo "== telemetry acceptance (tracing tax + introspection plane) =="
# The tracing-tax shave must hold full tracing with the coarse clock at
# <= 15% over telemetry-off, and the whole live introspection plane
# (exporter + event log + status publishing + live span ring) at <= 2% over
# the histograms-on default. Both are min-of-3 measurements.
python3 - <<'EOF'
import json

with open("BENCH_results.json") as f:
    results = json.load(f)["bench_telemetry_overhead"]

coarse = results["tracing_coarse_overhead_pct"]
plane = results["plane_overhead_pct"]

assert coarse <= 15.0, f"coarse-clock tracing overhead {coarse:.1f}% > 15%"
assert plane <= 2.0, f"introspection-plane overhead {plane:.1f}% > 2%"
print(f"  coarse-clock tracing {coarse:.1f}% (<=15), "
      f"introspection plane {plane:.1f}% (<=2)")
EOF

echo "== bench_query_service (smoke: PROXION_BENCH_SCALE=${SCALE}) =="
PROXION_BENCH_SCALE="${SCALE}" \
  "${BUILD_DIR}/bench/bench_query_service"

echo "== query-plane acceptance (reader scaling + staleness ceiling) =="
# The lock-free snapshot must let readers scale near-linearly (>= 0.7x of
# linear at the max thread count tried — trivially satisfied on 1 core) and
# the follower's fence must leave the snapshot at most 1 block behind the
# chain after every absorbed block.
python3 - <<'EOF'
import json

with open("BENCH_results.json") as f:
    results = json.load(f)["bench_query_service"]

efficiency = results["read_scaling_efficiency"]
staleness = results["staleness_blocks_max"]
laps = results["follower_laps"]

assert efficiency >= 0.7, f"reader scaling {efficiency:.2f}x of linear < 0.7"
assert staleness <= 1.0, f"staleness after fence {staleness:.0f} blocks > 1"
assert laps >= 1.0, "the upgrade workload never triggered an incremental lap"
print(f"  reader scaling {efficiency:.2f}x of linear (>=0.7) at "
      f"{results['read_threads_max']:.0f} thread(s), "
      f"staleness max {staleness:.0f} (<=1), {laps:.0f} laps")
EOF

echo "bench_smoke: OK"
