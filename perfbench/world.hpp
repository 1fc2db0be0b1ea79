// The generated heterogeneous federation every workload runs against:
// relational memdb repositories, a get-only CSV source, a key-value
// store and a nested-document store, all generated from the run's seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/disco.hpp"
#include "server/server.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Workload { Lookup, Analytics, Serve };

const char* workload_name(Workload workload);

struct Scale {
  size_t repos = 16;
  size_t rows_per_repo = 20'000;
  size_t docs = 20'000;
  size_t sites = 200;
  size_t accounts = 20'000;
  size_t depts = 200;
  size_t archive_rows = 2'000;

  /// The committed benchmark scale.
  static Scale full() { return Scale{}; }
  /// A small federation for the self-test's answer-checking runs.
  static Scale smoke() { return Scale{4, 1'000, 1'000, 40, 1'000, 50, 200}; }
};

/// Source contents generated from the seed. Generating them is not part
/// of set-up; loading them into the sources is.
struct Inputs {
  Scale scale;
  std::vector<std::vector<disco::memdb::Row>> person;  ///< per repository
  std::vector<disco::memdb::Row> sites;
  std::vector<disco::memdb::Row> archive;
  std::vector<disco::Value> accounts;
  std::string depts_csv;
  std::string readings_json;
};

Inputs generate_inputs(uint64_t seed, const Scale& scale);

/// One federation: the sources, the measured mediator over them (and, in
/// serve, the daemon in front of it), and the reference mediator that
/// checks answers over the same sources.
struct World {
  std::vector<std::unique_ptr<disco::memdb::Database>> dbs;
  disco::docstore::DocStore docs{"docs"};
  disco::kvstore::KvStore kv{"kv"};
  disco::csv::CsvTable depts;
  /// The measured mediator's real wrappers, for their counters.
  std::shared_ptr<disco::wrapper::MemDbWrapper> memdb;
  /// Timing decorators registered in their place (traced runs only).
  std::vector<std::shared_ptr<TimingWrapper>> timers;
  std::unique_ptr<disco::Mediator> mediator;
  std::unique_ptr<disco::Mediator> reference;
  std::unique_ptr<disco::server::Server> server;

  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World();
};

/// Set-up proper: loads the inputs into fresh sources, builds indexes,
/// registers everything with a new mediator and, for serve, starts the
/// daemon. With a span log the wrappers are registered behind timing
/// decorators.
std::unique_ptr<World> build_world(const Inputs& inputs, Workload workload,
                                   uint64_t seed, SpanLog* trace);

/// Adds the reference mediator: virtual time, every Options subsystem
/// off, every source up, plain wrappers over the same sources.
void attach_reference(World& world, const Inputs& inputs);

/// ODL for the admin operation: an extent of Person over an empty table
/// in its own repository. Answers never change when it is added or
/// dropped.
std::string admin_odl(bool add);

/// The repository that goes down on a schedule in `lookup`.
inline constexpr const char* kFlakyRepository = "r5";
/// Wall seconds serve waits per simulated second of source latency.
inline constexpr double kServeLatencyScale = 1.0;
/// Query deadline in `lookup`, in simulated seconds.
inline constexpr double kLookupDeadline = 0.25;

}  // namespace perfbench
