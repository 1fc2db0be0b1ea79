#!/usr/bin/env bash
# Tier-1 verification: configure, build with warnings as errors (a new
# compiler warning fails tier-1), run the full test suite, then run the
# `concurrency` label on its own (the concurrent-executor suite).
#
#   scripts/tier1.sh                # plain build + tests
#   DISCO_TSAN=1 scripts/tier1.sh   # additionally rebuild the concurrency
#                                   # suite under ThreadSanitizer
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "$repo/build" -S "$repo" -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build "$repo/build" -j "$(nproc)"
ctest --test-dir "$repo/build" --output-on-failure -j "$(nproc)"
ctest --test-dir "$repo/build" -L concurrency --output-on-failure

if [[ "${DISCO_TSAN:-0}" != "0" ]]; then
  echo "== ThreadSanitizer pass (concurrency label) =="
  cmake -B "$repo/build-tsan" -S "$repo" -DDISCO_SANITIZE=thread
  # concurrency_suites (tests/CMakeLists.txt) is every suite whose ctest
  # label matches `concurrency`.
  cmake --build "$repo/build-tsan" -j "$(nproc)" --target concurrency_suites
  ctest --test-dir "$repo/build-tsan" -L concurrency --output-on-failure
fi

echo "tier-1 OK"
