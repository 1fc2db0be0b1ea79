// The three benchmark workloads and their report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "world.hpp"

namespace perfbench {

struct RunConfig {
  Workload workload = Workload::Lookup;
  uint64_t seed = 1;
  /// Length of the measured window, wall seconds.
  double seconds = 10;
  /// Traced run: report per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Small federation and windows, for the self-test.
  bool smoke = false;
  /// Traced runs write their spans here when non-empty.
  std::string span_path;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Counts that must repeat exactly for one seed (lookup, analytics).
  std::vector<Metric> exact;
  /// Diagnostics for standard error: wrong answers, errors, config.
  std::vector<std::string> notes;
};

RunReport run_workload(const RunConfig& config);

/// The single-line JSON result the benchmark prints last.
std::string report_json(const RunReport& report);

}  // namespace perfbench
