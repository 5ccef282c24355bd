#!/usr/bin/env sh
# The disk-fault chaos gate: power-cut the durable sweep at EVERY mutating-op
# boundary (test_chaos_crash runs the exhaustive matrix over the model
# filesystem), fuzz every single-byte journal corruption, and exercise the
# ENOSPC/fsyncgate/bit-rot disasters — then once more under ASan, record
# chaos-recovery timings into BENCH_results.json, and finally run the
# README's durable-sweep walkthrough (checkpoint, kill, --resume) end to end.
#
# Usage: tools/chaos_smoke.sh [build-dir]
#   build-dir defaults to ./build (configured if missing).
# Env:
#   PROXION_BENCH_SCALE  population for the recovery-timing bench (default
#                        2000 here; bench default is 12000).
#   PROXION_CHAOS_ASAN   set to 0 to skip the ASan leg (default on).
set -eu

BUILD_DIR="${1:-build}"
SCALE="${PROXION_BENCH_SCALE:-2000}"
ASAN="${PROXION_CHAOS_ASAN:-1}"
JOBS="$(nproc 2>/dev/null || echo 4)"
CHAOS_TESTS="test_vfs_fault|test_journal_fuzz|test_chaos_crash"

if [ ! -f "${BUILD_DIR}/CMakeCache.txt" ]; then
  cmake -B "${BUILD_DIR}" -S .
fi
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target \
  test_vfs_fault test_journal_fuzz test_chaos_crash bench_chaos \
  landscape_survey

echo "== chaos matrix (power cut at every boundary + fuzz + disasters) =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" \
  -R "${CHAOS_TESTS}"

if [ "${ASAN}" != "0" ]; then
  dir="build-san-address"
  echo "== chaos matrix under ASan+UBSan =="
  if [ ! -f "${dir}/CMakeCache.txt" ]; then
    cmake -B "${dir}" -S . -DPROXION_SANITIZE=address \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
  fi
  cmake --build "${dir}" -j "${JOBS}" --target \
    test_vfs_fault test_journal_fuzz test_chaos_crash
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
    -R "${CHAOS_TESTS}"
fi

echo "== chaos-recovery timings (PROXION_BENCH_SCALE=${SCALE}) =="
PROXION_BENCH_SCALE="${SCALE}" "${BUILD_DIR}/bench/bench_chaos"

echo "== chaos acceptance (resume identical, zero committed-work recompute) =="
python3 - <<'EOF'
import json

with open("BENCH_results.json") as f:
    results = json.load(f)["bench_chaos"]

assert results["chaos_sweeps_identical"] == 1.0, \
    "a resumed sweep diverged from the fault-free run"
assert results["chaos_zero_recompute"] == 1.0, \
    "a resume recomputed committed work"
assert results["chaos_boundaries"] >= 20, \
    f"suspiciously few power-cut boundaries: {results['chaos_boundaries']}"
print(f"  {int(results['chaos_boundaries'])} boundaries, "
      f"resume mean {results['chaos_resume_ms_mean']:.1f} ms, "
      f"all resumes bit-identical, zero committed-work recompute")
EOF

echo "== durable-sweep walkthrough (uninterrupted vs --max-shards 3 + --resume) =="
survey="$(cd "${BUILD_DIR}" && pwd)/examples/landscape_survey"
work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT
(
  cd "${work}"
  "${survey}" --checkpoint whole.journal --shard-size 500 \
    > whole.txt 2> whole.err
  "${survey}" --checkpoint cut.journal --shard-size 500 --max-shards 3 \
    > cut.txt 2> cut.err
  grep -q "rerun with --resume to finish" cut.txt
  "${survey}" --checkpoint cut.journal --shard-size 500 --resume \
    > resumed.txt 2> resumed.err
  # Same landscape either way. Only the accounting differs: the replay
  # line, and the archive-call count (replayed contracts make no calls).
  grep -v -e "durable sweep:" -e "getStorageAt calls:" whole.txt \
    > whole.landscape
  grep -v -e "durable sweep:" -e "getStorageAt calls:" resumed.txt \
    > resumed.landscape
  if ! diff whole.landscape resumed.landscape; then
    echo "chaos_smoke: the resumed sweep printed a different landscape" >&2
    exit 1
  fi
  grep "durable sweep:" resumed.txt
)

echo "chaos_smoke: OK"
