// Self-test of the benchmark's own helpers and a smoke-sized run of each
// workload. Exits non-zero on the first failed check.
//
//   perfbench_selftest
#include <cstdio>
#include <string>
#include <vector>

#include "measure.hpp"
#include "workloads.hpp"

namespace {

using disco::Value;
using namespace perfbench;

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void test_percentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, reversed
  check(percentile(v, 0.5) == 50, "p50 of 1..100 is 50 (nearest rank)");
  check(percentile(v, 0.96) == 96, "p96 of 1..100 is 96");
  check(percentile(v, 0.999) == 100, "p99.9 of 1..100 is the maximum");
  std::vector<double> one = {7};
  check(percentile(one, 0.95) == 7, "percentile of one sample");
  std::vector<double> none;
  check(percentile(none, 0.5) == 0, "percentile of no samples is 0");

  check(samples_beyond(100, 0.96) == 4, "4 of 100 samples lie beyond p96");
  check(samples_beyond(250, 0.96) == 10, "10 of 250 samples lie beyond p96");
  check(samples_beyond(249, 0.96) < 10, "249 samples leave fewer than 10");
  check(samples_beyond(200, 0.95) == 10, "10 of 200 samples lie beyond p95");
  check(samples_beyond(143, 0.93) == 10, "10 of 143 samples lie beyond p93");
  // Every sample beyond the percentile is strictly larger than it.
  std::vector<double> w;
  for (int i = 0; i < 300; ++i) w.push_back(i % 37);
  const double p = percentile(w, 0.92);
  size_t above = 0;
  for (double x : w) above += x > p;
  check(above <= samples_beyond(w.size(), 0.92),
        "no more samples exceed the percentile than samples_beyond counts");
}

void test_digest() {
  const Value a = Value::strct({{"n", Value::string("a")}, {"s", Value::integer(1)}});
  const Value b = Value::strct({{"n", Value::string("b")}, {"s", Value::integer(2)}});
  const Value c = Value::strct({{"n", Value::string("c")}, {"s", Value::integer(3)}});
  check(digest(Value::bag({a, b, c})) == digest(Value::bag({c, a, b})),
        "digest ignores row order");
  check(!(digest(Value::bag({a, a, b})) == digest(Value::bag({a, b, b}))),
        "digest counts duplicate multiplicity");
  check(!(digest(Value::bag({a, a})) == digest(Value::bag({a}))),
        "a duplicated row differs from a single row");
  check(!(digest(Value::bag({a, b})) == digest(Value::bag({a, c}))),
        "different rows differ");
  check(digest(Value::bag({Value::integer(2)})) ==
            digest(Value::bag({Value::real(2.0)})),
        "an Int and an equal Double digest alike");
  check(digest(Value::bag({Value::real(0.1 + 0.2)})) ==
            digest(Value::bag({Value::real(0.3)})),
        "float results differing in the last bits digest alike");
  check(digest(Value::bag({Value::bag({a, b})})) ==
            digest(Value::bag({Value::bag({b, a})})),
        "nested bags are compared as multisets");
  check(!(digest(Value::bag({Value::list({a, b})})) ==
          digest(Value::bag({Value::list({b, a})}))),
        "nested lists keep their order");
  check(!(digest(Value::bag({Value::string("1")})) ==
          digest(Value::bag({Value::integer(1)}))),
        "a string never digests like a number");
  check(digest(Value::bag({})) == Digest{}, "the empty bag digests to zero");
}

RunReport smoke(Workload workload, bool trace, uint64_t seed) {
  RunConfig config;
  config.workload = workload;
  config.seed = seed;
  config.seconds = 1;
  config.trace = trace;
  config.smoke = true;
  return run_workload(config);
}

void test_workloads() {
  for (Workload w : {Workload::Lookup, Workload::Analytics, Workload::Serve}) {
    for (bool trace : {false, true}) {
      const RunReport r = smoke(w, trace, 3);
      for (const std::string& note : r.notes) std::printf("     %s\n", note.c_str());
      check(r.correct && r.failed == 0 && r.attempted > 0,
            std::string(workload_name(w)) + (trace ? " traced" : "") +
                " smoke run: every answer matches the reference (" +
                std::to_string(r.attempted) + " operations)");
    }
  }
}

void test_exact_counts() {
  for (Workload w : {Workload::Lookup, Workload::Analytics}) {
    for (bool trace : {false, true}) {
      const RunReport first = smoke(w, trace, 11);
      const RunReport second = smoke(w, trace, 11);
      bool same = first.exact.size() == second.exact.size() &&
                  !first.exact.empty();
      for (size_t i = 0; same && i < first.exact.size(); ++i) {
        same = first.exact[i].name == second.exact[i].name &&
               first.exact[i].value == second.exact[i].value;
        if (!same) {
          std::printf("     %s: %.17g vs %.17g\n", first.exact[i].name.c_str(),
                      first.exact[i].value, second.exact[i].value);
        }
      }
      check(same, std::string(workload_name(w)) + (trace ? " traced" : "") +
                      ": exact counts repeat for one seed (" +
                      std::to_string(first.exact.size()) + " counts)");
    }
  }
}

}  // namespace

int main() {
  test_percentile();
  test_digest();
  test_workloads();
  test_exact_counts();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
