// The repository benchmark program. run.py builds it and passes its own
// arguments through:
//
//   perfbench --workload lookup|analytics|serve --seed N --seconds S
//             --trace 0|1 [--spans FILE]
//
// Diagnostics go to standard error; the last line of standard output is
// the JSON result.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "lookup|analytics|serve --seed N --seconds S --trace 0|1 "
               "[--spans FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      have_workload = true;
      if (value == "lookup") {
        config.workload = perfbench::Workload::Lookup;
      } else if (value == "analytics") {
        config.workload = perfbench::Workload::Analytics;
      } else if (value == "serve") {
        config.workload = perfbench::Workload::Serve;
      } else {
        return usage(("unknown workload " + value).c_str());
      }
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage("bad --seed");
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(config.seconds > 0) ||
          config.seconds > 600) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (arg == "--spans") {
      config.span_path = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  try {
    const perfbench::RunReport report = perfbench::run_workload(config);
    for (const std::string& note : report.notes) {
      std::fprintf(stderr, "perfbench: %s\n", note.c_str());
    }
    std::cout << perfbench::report_json(report) << std::endl;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
