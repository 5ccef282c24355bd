#!/usr/bin/env sh
# Builds and runs the concurrency- and fault-tolerance-critical tests under
# both sanitizer flavors: ASan+UBSan (memory errors, UB) and TSan (data
# races in the pipeline / thread pool / resilience layer). One build tree
# per flavor — sanitizers cannot be mixed in one binary.
#
# Usage: tools/sanitize_smoke.sh [test-regex]
#   test-regex defaults to the fault-injection + concurrency suites, the
#   keccak known answers (the hand-unrolled permutation's UB check), the
#   chain suite (stored code hashes), the interpreter's per-opcode suite
#   (EXTCODEHASH reads account state), the logic finder (the lockstep
#   search's flat frontier and its index bookkeeping), and the
#   storage-access scanner's suites (layout, storage profile, collisions).
set -eu

TESTS="${1:-test_keccak|test_chain|test_interpreter_opcodes|test_logic_finder|test_resilience|test_archive_batch|test_thread_pool|test_pipeline|test_obs_metrics|test_obs_trace|test_obs_export|test_static_analysis|test_static_tier|test_layout|test_storage_profile|test_collisions|test_fuzz|test_store_journal|test_durable_sweep|test_vfs_fault|test_journal_fuzz|test_query_service}"
JOBS="$(nproc 2>/dev/null || echo 4)"
# CI runs one flavor per job; default is both.
FLAVORS="${PROXION_SANITIZE_FLAVORS:-address thread}"

for flavor in ${FLAVORS}; do
  dir="build-san-${flavor}"
  echo "== configure + build (${flavor}) =="
  cmake -B "${dir}" -S . -DPROXION_SANITIZE="${flavor}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${dir}" -j "${JOBS}" --target \
    test_keccak test_chain test_interpreter_opcodes test_logic_finder \
    test_resilience test_archive_batch test_thread_pool \
    test_pipeline test_obs_metrics test_obs_trace \
    test_obs_export test_static_analysis test_static_tier test_layout \
    test_storage_profile test_collisions test_fuzz test_store_journal \
    test_durable_sweep test_vfs_fault test_journal_fuzz test_query_service

  echo "== ctest under ${flavor} sanitizer =="
  if [ "${flavor}" = "thread" ]; then
    # Suppress the libstdc++ <12.3 atomic<shared_ptr> false positive (see
    # the suppressions file); harmless on toolchains with _GLIBCXX_TSAN.
    TSAN_OPTIONS="suppressions=$(pwd)/tools/tsan_suppressions.txt ${TSAN_OPTIONS:-}" \
      ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -R "${TESTS}"
  else
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -R "${TESTS}"
  fi
done

echo "sanitize_smoke: OK (${FLAVORS})"
