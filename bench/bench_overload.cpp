// Experiment: fast-query tail latency under slow-source overload with
// the per-source admission scheduler off vs on (DESIGN.md §4,
// src/sched/).
//
// The federation: four fast person databases (~10ms simulated) on their
// own repositories, plus one slow repository `slow0` (~250ms simulated)
// hosting eight archive extents. Slow-client threads hammer the archive
// while fast-client threads run person queries through the same
// mediator.
//
//   * scheduler off — every archive fan-out sends eight ~250ms calls to
//     `slow0`, as many at once as the slow clients ask for. Their waits
//     hold no compute worker (the dispatcher's timer thread waits them
//     out), so fast queries do not queue behind them.
//   * scheduler on — `slow0` is capped at 2 in-flight calls with a
//     zero-length queue: excess archive calls shed instantly into §4
//     residuals (the slow answers come back partial, completable later
//     by resubmission), and the slow source never sees more than its
//     limit.
//
// The bar: with the scheduler on, slow0 stays at or below its limit in
// flight, the excess is shed, and no fast query is incomplete in either
// configuration. Measured: p50/p99 of the fast queries in both
// configurations plus the shed/admission counters; the p99 ratio is
// reported, not gated. Results go to BENCH_overload.json (or argv[1]).
//
//   build/bench/bench_overload
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "worlds.hpp"

namespace {

using namespace disco;
using namespace disco::bench;

constexpr size_t kFastRepos = 4;
constexpr size_t kSlowExtents = 8;
constexpr size_t kRowsPerExtent = 40;
constexpr size_t kFastClients = 12;
constexpr size_t kSlowClients = 4;
constexpr int kFastQueriesPerClient = 50;
constexpr size_t kSlowLimit = 2;
const char* kFastQuery = "select x.name from x in person where x.salary > 100";
const char* kSlowQuery = "select x.name from x in archive where x.salary > 100";

/// Four fast person repositories plus one slow archive repository, all
/// served by one MemDb wrapper. ScaledWorld cannot express the asymmetry
/// (one latency model, one extent per repository), so the world is built
/// by hand in the same shape.
struct OverloadWorld {
  explicit OverloadWorld(Mediator::Options options)
      : mediator(std::make_unique<Mediator>(options)) {
    auto w = std::make_shared<wrapper::MemDbWrapper>();
    std::string odl = R"(
      interface Person (extent person) {
        attribute Long id;
        attribute String name;
        attribute Short salary; };
      interface Archive (extent archive) {
        attribute Long id;
        attribute String name;
        attribute Short salary; };
    )";
    SplitMix64 rng(7);
    auto fill = [&](memdb::Database& db, const std::string& extent) {
      auto& table =
          db.create_table(extent, {{"id", memdb::ColumnType::Int},
                                   {"name", memdb::ColumnType::Text},
                                   {"salary", memdb::ColumnType::Int}});
      for (size_t r = 0; r < kRowsPerExtent; ++r) {
        table.insert({Value::integer(static_cast<int64_t>(r)),
                      Value::string(extent + "_" + std::to_string(r)),
                      Value::integer(rng.next_in(0, 1000))});
      }
    };

    for (size_t s = 0; s < kFastRepos; ++s) {
      const std::string rn = std::to_string(s);
      dbs.push_back(std::make_unique<memdb::Database>("db" + rn));
      fill(*dbs.back(), "person" + rn);
      mediator->register_repository(
          catalog::Repository{"r" + rn, "host" + rn, "db", "10.0.0." + rn},
          net::LatencyModel{0.010, 1e-5, 0});
      w->attach_database("r" + rn, dbs.back().get());
      odl += "extent person" + rn + " of Person wrapper w0 repository r" +
             rn + ";\n";
    }

    dbs.push_back(std::make_unique<memdb::Database>("slowdb"));
    mediator->register_repository(
        catalog::Repository{"slow0", "slowhost", "db", "10.0.1.0"},
        net::LatencyModel{0.250, 1e-5, 0});
    w->attach_database("slow0", dbs.back().get());
    for (size_t e = 0; e < kSlowExtents; ++e) {
      const std::string en = std::to_string(e);
      fill(*dbs.back(), "archive" + en);
      odl += "extent archive" + en +
             " of Archive wrapper w0 repository slow0;\n";
    }

    mediator->register_wrapper("w0", std::move(w));
    mediator->execute_odl(odl);
  }

  std::vector<std::unique_ptr<memdb::Database>> dbs;
  std::unique_ptr<Mediator> mediator;
};

struct RunResult {
  double fast_p50_ms = 0;
  double fast_p99_ms = 0;
  double fast_avg_ms = 0;
  double fast_max_ms = 0;
  uint64_t fast_queries = 0;
  uint64_t fast_incomplete = 0;  ///< sanity: must stay 0 in both configs
  uint64_t slow_queries = 0;
  uint64_t slow_partials = 0;  ///< archive answers carrying residuals
  uint64_t shed = 0;
  uint64_t slow_max_in_flight = 0;
};

Mediator::Options bench_options(bool sched_on) {
  Mediator::Options options;
  options.exec.workers = 8;
  options.exec.latency_scale = 0.02;  // 250ms simulated -> 5ms wall
  options.exec.call_deadline_s = 60.0;  // simulated; never hit (sources up)
  options.sched.enabled = sched_on;
  // Fast repositories see at most kFastClients concurrent calls; a
  // generous default limit keeps them unconstrained while slow0 is
  // pinned to kSlowLimit with a zero-length queue, so excess archive
  // calls shed immediately instead of waiting for a token.
  options.sched.per_endpoint_limit = 16;
  options.sched.limits["slow0"] = kSlowLimit;
  options.sched.queue_capacity = 0;
  return options;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t idx =
      static_cast<size_t>(p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

RunResult run_once(bool sched_on) {
  OverloadWorld world(bench_options(sched_on));
  Mediator& mediator = *world.mediator;
  RunResult out;

  // Warm the plan cache so measured samples are execution, not
  // optimization.
  (void)mediator.query(kFastQuery);
  (void)mediator.query(kSlowQuery);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> slow_queries{0};
  std::atomic<uint64_t> slow_partials{0};
  std::vector<std::thread> slow_clients;
  for (size_t t = 0; t < kSlowClients; ++t) {
    slow_clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        Answer answer = mediator.query(kSlowQuery);
        slow_queries.fetch_add(1, std::memory_order_relaxed);
        if (!answer.complete()) {
          slow_partials.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Let the archive overload build before sampling fast queries.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::mutex samples_mutex;
  std::vector<double> samples;
  std::atomic<uint64_t> fast_incomplete{0};
  std::vector<std::thread> fast_clients;
  for (size_t t = 0; t < kFastClients; ++t) {
    fast_clients.emplace_back([&] {
      std::vector<double> mine;
      mine.reserve(kFastQueriesPerClient);
      for (int q = 0; q < kFastQueriesPerClient; ++q) {
        Stopwatch watch;
        Answer answer = mediator.query(kFastQuery);
        mine.push_back(watch.seconds() * 1e3);
        if (!answer.complete()) {
          fast_incomplete.fetch_add(1, std::memory_order_relaxed);
        }
      }
      std::lock_guard<std::mutex> lock(samples_mutex);
      samples.insert(samples.end(), mine.begin(), mine.end());
    });
  }
  for (std::thread& t : fast_clients) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : slow_clients) t.join();

  std::sort(samples.begin(), samples.end());
  out.fast_queries = samples.size();
  out.fast_p50_ms = percentile(samples, 0.50);
  out.fast_p99_ms = percentile(samples, 0.99);
  for (double ms : samples) {
    out.fast_avg_ms += ms;
    out.fast_max_ms = std::max(out.fast_max_ms, ms);
  }
  if (!samples.empty()) out.fast_avg_ms /= static_cast<double>(samples.size());
  out.fast_incomplete = fast_incomplete.load();
  out.slow_queries = slow_queries.load();
  out.slow_partials = slow_partials.load();
  out.shed = mediator.exec_metrics().shed;
  out.slow_max_in_flight = mediator.sched_stats("slow0").max_in_flight;
  return out;
}

void print_result(const char* label, const RunResult& r) {
  std::printf("%-10s fast p50 %7.2f ms  p99 %7.2f ms  avg %7.2f ms  max "
              "%7.2f ms  (%llu queries, %llu incomplete)\n"
              "           slow queries %llu (%llu partial)  shed=%llu  "
              "slow0 max in-flight=%llu\n",
              label, r.fast_p50_ms, r.fast_p99_ms, r.fast_avg_ms,
              r.fast_max_ms, static_cast<unsigned long long>(r.fast_queries),
              static_cast<unsigned long long>(r.fast_incomplete),
              static_cast<unsigned long long>(r.slow_queries),
              static_cast<unsigned long long>(r.slow_partials),
              static_cast<unsigned long long>(r.shed),
              static_cast<unsigned long long>(r.slow_max_in_flight));
}

void write_json(const char* path, const RunResult& off, const RunResult& on,
                double improvement) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  auto emit = [&](const char* key, const RunResult& r, const char* tail) {
    std::fprintf(
        f,
        "  \"%s\": {\n"
        "    \"fast_p50_ms\": %.3f,\n"
        "    \"fast_p99_ms\": %.3f,\n"
        "    \"fast_avg_ms\": %.3f,\n"
        "    \"fast_max_ms\": %.3f,\n"
        "    \"fast_queries\": %llu,\n"
        "    \"fast_incomplete\": %llu,\n"
        "    \"slow_queries\": %llu,\n"
        "    \"slow_partials\": %llu,\n"
        "    \"shed\": %llu,\n"
        "    \"slow_max_in_flight\": %llu\n"
        "  }%s\n",
        key, r.fast_p50_ms, r.fast_p99_ms, r.fast_avg_ms, r.fast_max_ms,
        static_cast<unsigned long long>(r.fast_queries),
        static_cast<unsigned long long>(r.fast_incomplete),
        static_cast<unsigned long long>(r.slow_queries),
        static_cast<unsigned long long>(r.slow_partials),
        static_cast<unsigned long long>(r.shed),
        static_cast<unsigned long long>(r.slow_max_in_flight), tail);
  };
  std::fprintf(f, "{\n  \"bench\": \"overload\",\n");
  std::fprintf(f,
               "  \"config\": {\"fast_repos\": %zu, \"slow_extents\": %zu, "
               "\"workers\": 8, \"fast_clients\": %zu, \"slow_clients\": %zu, "
               "\"slow_limit\": %zu, \"queue_capacity\": 0},\n",
               kFastRepos, kSlowExtents, kFastClients, kSlowClients,
               kSlowLimit);
  emit("sched_off", off, ",");
  emit("sched_on", on, ",");
  std::fprintf(f, "  \"fast_p99_improvement\": %.2f\n}\n", improvement);
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("overload: %zu fast repos vs 1 slow repo (%zu archive "
              "extents), %zu fast + %zu slow clients on 8 workers, "
              "slow0 limit=%zu queue=0\n\n",
              kFastRepos, kSlowExtents, kFastClients, kSlowClients,
              kSlowLimit);

  RunResult off = run_once(/*sched_on=*/false);
  print_result("sched off", off);
  RunResult on = run_once(/*sched_on=*/true);
  print_result("sched on", on);

  const double improvement =
      on.fast_p99_ms > 0 ? off.fast_p99_ms / on.fast_p99_ms : 0.0;
  std::printf("\nfast-query p99 ratio (sched off / on): %.2fx\n",
              improvement);

  write_json(argc > 1 ? argv[1] : "BENCH_overload.json", off, on,
             improvement);
  const bool sane = off.fast_incomplete == 0 && on.fast_incomplete == 0 &&
                    on.shed > 0 && on.slow_max_in_flight <= kSlowLimit &&
                    on.slow_max_in_flight > 0;
  if (!sane) std::printf("SANITY FAILURE: see counters above\n");
  return sane ? 0 : 1;
}
