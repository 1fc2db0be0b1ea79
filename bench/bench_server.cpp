// Experiment E12: the mediator daemon under network load (src/server/,
// DESIGN.md §server).
//
// Three measurements against one live Server on a loopback socket:
//
//   1. cached-hit overhead — the same warm-cache query submitted
//      in-process (submit().wait()) vs over the wire (SUBMIT{subscribe}
//      -> pushed COMPLETE). The acceptance bar: the network path stays
//      under 2x the in-process latency on this path.
//   2. sustained throughput — 64 concurrent client connections each
//      running submit->completion loops; reported as total QPS plus the
//      per-query p50/p99.
//   3. slow-source storm — fast person queries and slow archive queries
//      share the daemon, with the per-source admission scheduler
//      (src/sched/) off vs on. Off: `slow0` receives every archive call
//      the slow clients send; the dispatcher's timer thread waits them
//      out, so they hold no compute worker. On: `slow0` is capped,
//      excess archive calls shed into §4 residuals. The bar: slow0 stays
//      at or below its limit in flight, the excess is shed, and every
//      fast query gets its COMPLETE frame in both configurations; the
//      fast-client p99 ratio is reported, not gated.
//
// Results go to BENCH_server.json (or argv[1]).
//
//   build/bench/bench_server
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/client.hpp"
#include "server/server.hpp"
#include "worlds.hpp"

namespace {

using namespace disco;
using namespace disco::bench;

constexpr size_t kFastRepos = 4;
constexpr size_t kSlowExtents = 8;
constexpr size_t kRowsPerExtent = 40;
constexpr size_t kConnections = 64;
constexpr int kQueriesPerConnection = 20;
constexpr int kCachedSamples = 300;
constexpr size_t kStormFastClients = 8;
constexpr int kStormFastQueries = 30;
constexpr size_t kStormSlowClients = 4;
constexpr size_t kSlowLimit = 2;
const char* kFastQuery = "select x.name from x in person where x.salary > 100";
const char* kSlowQuery = "select x.name from x in archive where x.salary > 100";
// The cached-path probe is a point lookup so the number isolates the
// protocol's off-path cost (frames, IO loop, push wakeup) rather than
// bulk row serialization.
const char* kPointQuery =
    "select x.name from x in person where x.name = \"person0_1\"";
constexpr double kInf = std::numeric_limits<double>::infinity();

/// kFastRepos fast person repositories, optionally plus one slow
/// archive repository (the bench_overload shape), behind a Server.
struct ServerWorld {
  ServerWorld(Mediator::Options options, bool with_slow)
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
    if (with_slow) {
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
    }
    mediator->register_wrapper("w0", std::move(w));
    mediator->execute_odl(odl);

    srv = std::make_unique<server::Server>(*mediator);
    srv->start();
  }

  server::Client connect() {
    return server::Client("127.0.0.1", srv->port());
  }

  std::vector<std::unique_ptr<memdb::Database>> dbs;
  std::unique_ptr<Mediator> mediator;
  std::unique_ptr<server::Server> srv;
};

Mediator::Options base_options() {
  Mediator::Options options;
  options.exec.workers = 8;
  options.exec.latency_scale = 0.02;
  options.exec.call_deadline_s = 60.0;
  options.session.workers = 8;
  options.session.retry_interval_s = 1.0;
  return options;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t idx =
      static_cast<size_t>(p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct Quantiles {
  double p50 = 0, p99 = 0, mean = 0, max = 0;
  size_t samples = 0;
};

Quantiles quantiles(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  Quantiles q;
  q.samples = samples.size();
  q.p50 = percentile(samples, 0.50);
  q.p99 = percentile(samples, 0.99);
  for (double s : samples) {
    q.mean += s;
    q.max = std::max(q.max, s);
  }
  if (!samples.empty()) q.mean /= static_cast<double>(samples.size());
  return q;
}

/// Submit with subscribe and block until the pushed COMPLETE arrives.
void submit_and_wait(server::Client& client, const char* query) {
  const uint64_t id = client.submit_id(query, kInf, /*subscribe=*/true);
  auto done = client.wait_event(id, {server::FrameType::kComplete}, 60.0);
  if (!done.has_value()) {
    std::fprintf(stderr, "bench_server: COMPLETE never arrived\n");
    std::abort();
  }
}

// ------------------------------------------------- 1. cached-hit overhead ---

struct CachedPathResult {
  Quantiles inproc_us;
  Quantiles server_us;
  // server_p / inproc_p: total multiplier, and the added fraction
  // (ratio - 1). The acceptance bar is added overhead < 2x.
  double ratio_p50 = 0;
  double ratio_p99 = 0;
  double overhead_p50 = 0;
  double overhead_p99 = 0;
};

CachedPathResult run_cached_path() {
  Mediator::Options options = base_options();
  options.cache.enabled = true;
  ServerWorld world(options, /*with_slow=*/false);
  Mediator& mediator = *world.mediator;

  // Warm: plan optimized, result cache holding the submit's answer.
  (void)mediator.submit(kPointQuery).wait();

  CachedPathResult out;
  {
    std::vector<double> samples;
    samples.reserve(kCachedSamples);
    for (int i = 0; i < kCachedSamples; ++i) {
      Stopwatch watch;
      (void)mediator.submit(kPointQuery).wait();
      samples.push_back(watch.seconds() * 1e6);
    }
    out.inproc_us = quantiles(samples);
  }
  {
    server::Client client = world.connect();
    std::vector<double> samples;
    samples.reserve(kCachedSamples);
    for (int i = 0; i < kCachedSamples; ++i) {
      Stopwatch watch;
      submit_and_wait(client, kPointQuery);
      samples.push_back(watch.seconds() * 1e6);
    }
    out.server_us = quantiles(samples);
  }
  out.ratio_p50 =
      out.inproc_us.p50 > 0 ? out.server_us.p50 / out.inproc_us.p50 : 0;
  out.ratio_p99 =
      out.inproc_us.p99 > 0 ? out.server_us.p99 / out.inproc_us.p99 : 0;
  out.overhead_p50 = out.ratio_p50 > 0 ? out.ratio_p50 - 1.0 : 0;
  out.overhead_p99 = out.ratio_p99 > 0 ? out.ratio_p99 - 1.0 : 0;
  return out;
}

// ---------------------------------------------- 2. 64-connection QPS sweep ---

struct QpsResult {
  Quantiles latency_ms;
  double wall_s = 0;
  double qps = 0;
  uint64_t busy = 0;
  uint64_t errors = 0;
};

QpsResult run_qps() {
  Mediator::Options options = base_options();
  options.cache.enabled = true;
  ServerWorld world(options, /*with_slow=*/false);
  (void)world.mediator->query(kFastQuery);  // warm

  std::mutex samples_mutex;
  std::vector<double> samples;
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> clients;
  clients.reserve(kConnections);
  Stopwatch wall;
  for (size_t c = 0; c < kConnections; ++c) {
    clients.emplace_back([&world, &samples_mutex, &samples, &errors] {
      try {
        server::Client client = world.connect();
        std::vector<double> mine;
        mine.reserve(kQueriesPerConnection);
        for (int q = 0; q < kQueriesPerConnection; ++q) {
          Stopwatch watch;
          submit_and_wait(client, kFastQuery);
          mine.push_back(watch.seconds() * 1e3);
        }
        std::lock_guard<std::mutex> lock(samples_mutex);
        samples.insert(samples.end(), mine.begin(), mine.end());
      } catch (const std::exception&) {
        errors.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  QpsResult out;
  out.wall_s = wall.seconds();
  out.latency_ms = quantiles(samples);
  out.qps = out.wall_s > 0
                ? static_cast<double>(samples.size()) / out.wall_s
                : 0;
  out.busy = world.srv->backpressure_stats().shed();
  out.errors = errors.load();
  return out;
}

// ------------------------------------------------- 3. slow-source storm -----

struct StormResult {
  Quantiles fast_ms;
  uint64_t fast_partial_pushes = 0;
  uint64_t fast_incomplete = 0;  ///< fast queries that got no COMPLETE
  uint64_t slow_rounds = 0;
  uint64_t shed = 0;
  uint64_t slow_max_in_flight = 0;
};

StormResult run_storm(bool sched_on) {
  Mediator::Options options = base_options();
  options.sched.enabled = sched_on;
  options.sched.per_endpoint_limit = 16;
  options.sched.limits["slow0"] = kSlowLimit;
  options.sched.queue_capacity = 0;
  ServerWorld world(options, /*with_slow=*/true);
  Mediator& mediator = *world.mediator;
  (void)mediator.query(kFastQuery);  // warm the plan cache
  (void)mediator.query(kSlowQuery);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> slow_rounds{0};
  std::vector<std::thread> slow_clients;
  for (size_t t = 0; t < kStormSlowClients; ++t) {
    slow_clients.emplace_back([&world, &stop, &slow_rounds] {
      server::Client client = world.connect();
      while (!stop.load(std::memory_order_relaxed)) {
        // Fire one archive query, wait for its first pushed outcome
        // (PARTIAL when shedding, COMPLETE when the pool absorbed it),
        // then abandon it — a client walking away mid-storm.
        const uint64_t id =
            client.submit_id(kSlowQuery, kInf, /*subscribe=*/true);
        (void)client.wait_event(
            id, {server::FrameType::kPartial, server::FrameType::kComplete},
            60.0);
        (void)client.cancel(id);
        slow_rounds.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::mutex samples_mutex;
  std::vector<double> samples;
  std::atomic<uint64_t> fast_partials{0};
  std::atomic<uint64_t> fast_incomplete{0};
  std::vector<std::thread> fast_clients;
  for (size_t t = 0; t < kStormFastClients; ++t) {
    fast_clients.emplace_back([&world, &samples_mutex, &samples,
                               &fast_partials, &fast_incomplete] {
      server::Client client = world.connect();
      std::vector<double> mine;
      mine.reserve(kStormFastQueries);
      for (int q = 0; q < kStormFastQueries; ++q) {
        Stopwatch watch;
        const uint64_t id =
            client.submit_id(kFastQuery, kInf, /*subscribe=*/true);
        for (;;) {
          auto event = client.wait_event(
              id, {server::FrameType::kPartial, server::FrameType::kComplete},
              60.0);
          if (!event.has_value()) {
            fast_incomplete.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          if (event->type == server::FrameType::kComplete) break;
          fast_partials.fetch_add(1, std::memory_order_relaxed);
        }
        mine.push_back(watch.seconds() * 1e3);
      }
      std::lock_guard<std::mutex> lock(samples_mutex);
      samples.insert(samples.end(), mine.begin(), mine.end());
    });
  }
  for (std::thread& t : fast_clients) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : slow_clients) t.join();

  StormResult out;
  out.fast_ms = quantiles(samples);
  out.fast_partial_pushes = fast_partials.load();
  out.fast_incomplete = fast_incomplete.load();
  out.slow_rounds = slow_rounds.load();
  out.shed = mediator.exec_metrics().shed;
  out.slow_max_in_flight = mediator.sched_stats("slow0").max_in_flight;
  return out;
}

// ----------------------------------------------------------------- report ---

void emit_quantiles(FILE* f, const char* key, const Quantiles& q,
                    const char* tail) {
  std::fprintf(f,
               "    \"%s\": {\"p50\": %.3f, \"p99\": %.3f, \"mean\": %.3f, "
               "\"max\": %.3f, \"samples\": %zu}%s\n",
               key, q.p50, q.p99, q.mean, q.max, q.samples, tail);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("server bench: %zu fast repos, %zu-connection sweep, storm "
              "%zu fast + %zu slow clients (slow0 limit=%zu)\n\n",
              kFastRepos, kConnections, kStormFastClients, kStormSlowClients,
              kSlowLimit);

  const CachedPathResult cached = run_cached_path();
  std::printf("cached hit: in-process p50 %7.1f us  p99 %7.1f us   "
              "server p50 %7.1f us  p99 %7.1f us   added overhead %.2fx "
              "(p99 %.2fx)\n",
              cached.inproc_us.p50, cached.inproc_us.p99,
              cached.server_us.p50, cached.server_us.p99, cached.overhead_p50,
              cached.overhead_p99);

  const QpsResult qps = run_qps();
  std::printf("%zu conns:   %7.0f qps   p50 %6.2f ms  p99 %6.2f ms   "
              "(%zu queries in %.2fs, busy=%llu, errors=%llu)\n",
              kConnections, qps.qps, qps.latency_ms.p50, qps.latency_ms.p99,
              qps.latency_ms.samples, qps.wall_s,
              static_cast<unsigned long long>(qps.busy),
              static_cast<unsigned long long>(qps.errors));

  const StormResult off = run_storm(/*sched_on=*/false);
  const StormResult on = run_storm(/*sched_on=*/true);
  const double improvement =
      on.fast_ms.p99 > 0 ? off.fast_ms.p99 / on.fast_ms.p99 : 0;
  std::printf("storm off:  fast p50 %6.2f ms  p99 %6.2f ms  (slow rounds "
              "%llu, fast incomplete %llu)\nstorm on:   fast p50 %6.2f ms  "
              "p99 %6.2f ms  (slow rounds %llu, fast incomplete %llu, "
              "shed=%llu, slow0 max in-flight=%llu)\n"
              "fast-client p99 ratio (sched off / on): %.2fx\n",
              off.fast_ms.p50, off.fast_ms.p99,
              static_cast<unsigned long long>(off.slow_rounds),
              static_cast<unsigned long long>(off.fast_incomplete),
              on.fast_ms.p50, on.fast_ms.p99,
              static_cast<unsigned long long>(on.slow_rounds),
              static_cast<unsigned long long>(on.fast_incomplete),
              static_cast<unsigned long long>(on.shed),
              static_cast<unsigned long long>(on.slow_max_in_flight),
              improvement);

  const char* path = argc > 1 ? argv[1] : "BENCH_server.json";
  FILE* f = std::fopen(path, "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"server\",\n");
    std::fprintf(f,
                 "  \"config\": {\"fast_repos\": %zu, \"connections\": %zu, "
                 "\"queries_per_connection\": %d, \"exec_workers\": 8, "
                 "\"session_workers\": 8, \"storm_fast_clients\": %zu, "
                 "\"storm_slow_clients\": %zu, \"slow_limit\": %zu},\n",
                 kFastRepos, kConnections, kQueriesPerConnection,
                 kStormFastClients, kStormSlowClients, kSlowLimit);
    std::fprintf(f, "  \"cached_hit_us\": {\n");
    emit_quantiles(f, "inproc", cached.inproc_us, ",");
    emit_quantiles(f, "server", cached.server_us, ",");
    std::fprintf(f,
                 "    \"ratio_p50\": %.3f,\n    \"ratio_p99\": %.3f,\n"
                 "    \"overhead_p50\": %.3f,\n    \"overhead_p99\": %.3f\n"
                 "  },\n",
                 cached.ratio_p50, cached.ratio_p99, cached.overhead_p50,
                 cached.overhead_p99);
    std::fprintf(f, "  \"qps\": {\n");
    emit_quantiles(f, "latency_ms", qps.latency_ms, ",");
    std::fprintf(f,
                 "    \"wall_s\": %.3f,\n    \"qps\": %.1f,\n    \"busy\": "
                 "%llu,\n    \"errors\": %llu\n  },\n",
                 qps.wall_s, qps.qps, static_cast<unsigned long long>(qps.busy),
                 static_cast<unsigned long long>(qps.errors));
    auto emit_storm = [&](const char* key, const StormResult& r,
                          const char* tail) {
      std::fprintf(f, "  \"storm_%s\": {\n", key);
      emit_quantiles(f, "fast_ms", r.fast_ms, ",");
      std::fprintf(f,
                   "    \"fast_partial_pushes\": %llu,\n    "
                   "\"fast_incomplete\": %llu,\n    \"slow_rounds\": "
                   "%llu,\n    \"shed\": %llu,\n    \"slow_max_in_flight\": "
                   "%llu\n  }%s\n",
                   static_cast<unsigned long long>(r.fast_partial_pushes),
                   static_cast<unsigned long long>(r.fast_incomplete),
                   static_cast<unsigned long long>(r.slow_rounds),
                   static_cast<unsigned long long>(r.shed),
                   static_cast<unsigned long long>(r.slow_max_in_flight),
                   tail);
    };
    emit_storm("sched_off", off, ",");
    emit_storm("sched_on", on, ",");
    std::fprintf(f, "  \"storm_fast_p99_improvement\": %.2f\n}\n",
                 improvement);
    std::fclose(f);
    std::printf("wrote %s\n", path);
  }

  const bool sane = qps.errors == 0 && qps.latency_ms.samples ==
                        kConnections * static_cast<size_t>(kQueriesPerConnection) &&
                    cached.overhead_p50 < 2.0 && on.shed > 0 &&
                    on.slow_max_in_flight <= kSlowLimit &&
                    off.fast_incomplete == 0 && on.fast_incomplete == 0;
  if (!sane) std::printf("SANITY FAILURE: see numbers above\n");
  return sane ? 0 : 1;
}
