#!/usr/bin/env bash
# CI entry point: tier-1 verification (scripts/tier1.sh: build, full
# suite, the concurrency suites on their own and, opt-in, a
# ThreadSanitizer pass over them), then the obs label and the smokes.
#
#   scripts/ci.sh                 # build + full tests + concurrency label
#   DISCO_TSAN=1 scripts/ci.sh    # additionally rebuild the concurrency
#                                 # suites under ThreadSanitizer
#   DISCO_ASAN=1 scripts/ci.sh    # additionally build the whole tree
#                                 # under ASan+UBSan and run every suite
#   DISCO_BENCH=1 scripts/ci.sh   # additionally run the experiment
#                                 # benches (writes BENCH_*.json)
#   DISCO_PERFBENCH=1 scripts/ci.sh  # additionally run the repository
#                                    # benchmark's self-test (builds into
#                                    # .bench_build/)
#   DISCO_COVERAGE=1 scripts/ci.sh  # additionally build instrumented,
#                                   # run the memdb/docstore suites and
#                                   # gate their line coverage (85%)
#   DISCO_PLANCHECK=1 scripts/ci.sh  # additionally build with the
#                                    # DISCO_PLANCHECK definition (every
#                                    # plan-template hit is checked
#                                    # against a fresh optimize) and run
#                                    # the full suite and the three
#                                    # bench smokes there (build-plancheck/)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"

echo "== tier-1: build + full test suite + concurrency label (+ TSan) =="
"$repo/scripts/tier1.sh"

echo "== obs label (tracing & explain suite) =="
ctest --test-dir "$repo/build" -L obs --output-on-failure

echo "== fedcat many-sources smoke (flat vs hierarchical, pruning) =="
cmake --build "$repo/build" -j "$(nproc)" --target bench_manysources
"$repo/build/bench/bench_manysources" --smoke

echo "== index smoke (point/range/bind-join + plan flip, small table) =="
cmake --build "$repo/build" -j "$(nproc)" --target bench_index
"$repo/build/bench/bench_index" --smoke

echo "== docsource smoke (path probes + pushdown twins, small collection) =="
cmake --build "$repo/build" -j "$(nproc)" --target bench_docsource
"$repo/build/bench/bench_docsource" --smoke

if [[ "${DISCO_ASAN:-0}" != "0" ]]; then
  # The whole suite, not a label: the concurrency suites hand exec spans,
  # cache tickets and Runtime lifetimes across threads, and the join,
  # optimizer and source code runs mostly in the unlabelled suites. The
  # suites run one at a time so wall-clock tests keep their margins.
  echo "== ASan+UBSan pass (full suite) =="
  cmake -B "$repo/build-asan" -S "$repo" -DDISCO_SANITIZE=address+undefined
  cmake --build "$repo/build-asan" -j "$(nproc)"
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir "$repo/build-asan" --output-on-failure
fi

if [[ "${DISCO_PLANCHECK:-0}" != "0" ]]; then
  # A template hit and a fresh enumerate+bind of the same query, priced
  # from one set of estimates, must agree on plan text, estimate,
  # plans_considered and every node's logical form; any difference throws
  # an InternalError, which fails the suite or the smoke that met it.
  echo "== plan check: every template hit against a fresh optimize =="
  cmake -B "$repo/build-plancheck" -S "$repo" -DDISCO_PLANCHECK=ON
  cmake --build "$repo/build-plancheck" -j "$(nproc)"
  ctest --test-dir "$repo/build-plancheck" --output-on-failure -j "$(nproc)"
  "$repo/build-plancheck/bench/bench_manysources" --smoke
  "$repo/build-plancheck/bench/bench_index" --smoke
  "$repo/build-plancheck/bench/bench_docsource" --smoke
fi

if [[ "${DISCO_BENCH:-0}" != "0" ]]; then
  echo "== resilience bench =="
  cmake --build "$repo/build" -j "$(nproc)" --target bench_resilience
  "$repo/build/bench/bench_resilience" "$repo/BENCH_resilience.json"
  echo "== parallel bench (per-stage spans + obs overhead) =="
  cmake --build "$repo/build" -j "$(nproc)" --target bench_parallel
  "$repo/build/bench/bench_parallel" "$repo/BENCH_parallel.json"
  echo "== cache bench (cold/warm + single-flight storm) =="
  cmake --build "$repo/build" -j "$(nproc)" --target bench_cache
  "$repo/build/bench/bench_cache" "$repo/BENCH_cache.json"
  echo "== overload bench (scheduler off vs on, slow-source mix) =="
  cmake --build "$repo/build" -j "$(nproc)" --target bench_overload
  "$repo/build/bench/bench_overload" "$repo/BENCH_overload.json"
  echo "== server bench (64-connection QPS, cached-hit overhead, storm) =="
  cmake --build "$repo/build" -j "$(nproc)" --target bench_server
  "$repo/build/bench/bench_server" "$repo/BENCH_server.json"
  echo "== many-sources bench (1k/5k/10k extents, flat vs hierarchical) =="
  "$repo/build/bench/bench_manysources" "$repo/BENCH_manysources.json"
  echo "== index bench (1M rows: index build, probes, plan flip, 10x bar) =="
  "$repo/build/bench/bench_index" "$repo/BENCH_index.json"
  echo "== docsource bench (path pushdown vs whole-doc fetch, 5x bar) =="
  "$repo/build/bench/bench_docsource" "$repo/BENCH_docsource.json"
fi

if [[ "${DISCO_PERFBENCH:-0}" != "0" ]]; then
  # Smoke-runs every perfbench workload, untraced and traced, checks each
  # answer against the reference mediator, and requires one seed's exact
  # counts to repeat.
  echo "== perfbench self-test =="
  (cd "$repo" && python3 perfbench/run.py --selftest)
fi

if [[ "${DISCO_COVERAGE:-0}" != "0" ]]; then
  echo "== coverage gate: src/sources/memdb >= 85%, src/sources/docstore >= 85% =="
  cmake -B "$repo/build-cov" -S "$repo" -DDISCO_COVERAGE=ON
  cmake --build "$repo/build-cov" -j "$(nproc)" \
    --target test_memdb test_memdb_concurrency test_differential \
             test_docstore test_doc_differential
  # Stale counters from an earlier run would inflate the numbers.
  find "$repo/build-cov" -name '*.gcda' -delete
  # The memdb suites (test_memdb + the storms + the MiniSQL
  # differential) drive src/sources/memdb, including the new index path.
  "$repo/build-cov/tests/test_memdb"
  "$repo/build-cov/tests/test_memdb_concurrency"
  "$repo/build-cov/tests/test_differential"
  # The docstore suites (path/store/wrapper units + the doc-vs-relational
  # differential) drive src/sources/docstore.
  "$repo/build-cov/tests/test_docstore"
  "$repo/build-cov/tests/test_doc_differential"
  # gcov is handed the .gcda files directly: CMake names the counters
  # <source>.cpp.gcda, which gcov's source-name lookup does not find.
  gate_coverage() {
    local dir="$1" match="$2" gate="$3"
    gcov -n "$dir"/*.gcda 2>/dev/null \
      | awk -v match_re="$match" -v gate="$gate" '
        /^File/   { file = $0; keep = (file ~ match_re) }
        keep && /^Lines executed/ {
          split($0, byColon, ":"); split(byColon[2], pctOf, "% of ");
          covered += pctOf[1] / 100 * pctOf[2]; total += pctOf[2];
          printf "  %-48s %7s%% of %d lines\n", file, pctOf[1], pctOf[2];
          keep = 0
        }
        END {
          if (total == 0) { print "no " match_re " coverage data"; exit 1 }
          pct = 100 * covered / total;
          printf "%s aggregate: %.2f%% of %d lines (gate: %s%%)\n",
                 match_re, pct, total, gate;
          exit (pct >= gate + 0 ? 0 : 1)
        }'
  }
  gate_coverage \
    "$repo/build-cov/src/sources/memdb/CMakeFiles/disco_memdb.dir" \
    "src/sources/memdb/" 85
  gate_coverage \
    "$repo/build-cov/src/sources/docstore/CMakeFiles/disco_docstore.dir" \
    "src/sources/docstore/" 85
fi

echo "ci OK"
