// Experiment: the concurrent executor's speedup (DESIGN.md §2).
//
// The paper's §4 semantics says the exec calls of a plan "proceed in
// parallel"; the virtual-time runtime only *accounts* for that. This
// bench makes the parallelism real: an 8-source fan-out query where
// every source sits ~5ms (simulated, replayed in wall time) away, run
//
//   * on one compute worker  (workers=1),
//   * on four compute workers (workers=4),
//
// plus the virtual-time baseline (workers=0, no wall waits at all) and a
// multi-client throughput section on the shared pool. The workers only
// run each call's CPU part; the dispatcher's timer thread waits out the
// latencies, so even one worker overlaps the fan-out's waits. The bar:
// at workers=1 the fan-out takes at most half the sum of its calls'
// latencies (running the calls one after another takes all of it).
//
// With a path argument the results are also written as JSON — including
// the per-stage span timings (parse/optimize/execute) read back from an
// obs-enabled run's trace, and the cost of leaving tracing off vs on:
//
//   build/bench/bench_parallel [BENCH_parallel.json]
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

#include "worlds.hpp"

int main(int argc, char** argv) {
  using namespace disco;
  using namespace disco::bench;

  const size_t kSources = 8;
  const size_t kRows = 200;
  const int kRepeats = 5;
  const net::LatencyModel kLatency{0.005, 1e-6, 0};
  const char* kQuery = "select x.name from x in person where x.salary > 500";
  const auto caps = grammar::CapabilitySet{.get = true,
                                           .project = true,
                                           .select = true,
                                           .join = true,
                                           .compose = true};

  auto world_with = [&](size_t workers, bool obs_enabled = false) {
    Mediator::Options options;
    options.exec.workers = workers;
    options.obs.enabled = obs_enabled;
    return std::make_unique<ScaledWorld>(kSources, kRows, caps, kLatency,
                                         /*seed=*/7, options);
  };

  auto time_queries = [&](Mediator& mediator) {
    Stopwatch watch;
    size_t rows = 0;
    for (int i = 0; i < kRepeats; ++i) {
      rows += mediator.query(kQuery).data().size();
    }
    return std::make_pair(watch.seconds() / kRepeats, rows / kRepeats);
  };

  std::printf("parallel executor: %zu-source fan-out, %.0fms per source "
              "(simulated, replayed in wall time), %d repeats\n\n",
              kSources, kLatency.base_s * 1e3, kRepeats);

  // Virtual-time baseline: no wall waits, elapsed time is simulated.
  auto virtual_world = world_with(0);
  auto [virtual_wall, rows] = time_queries(virtual_world->mediator);
  std::printf("%-22s %10.2f ms wall   (simulated elapsed %.2f ms)\n",
              "workers=0 (virtual)", virtual_wall * 1e3,
              virtual_world->mediator.query(kQuery).stats().run.elapsed_s *
                  1e3);

  // Wall-clock on one worker: it runs the calls' CPU parts one at a
  // time while their waits overlap on the timer thread.
  auto serial_world = world_with(1);
  auto [serial_wall, serial_rows] = time_queries(serial_world->mediator);
  // Sum of the calls' latencies per query (latency_scale 1: wall = sim).
  const double latency_sum =
      serial_world->mediator.exec_metrics().sim_latency_s / kRepeats;
  const bool overlapped = serial_wall <= 0.5 * latency_sum;
  std::printf("%-22s %10.2f ms wall   (sum of call latencies %.2f ms) %s\n",
              "workers=1", serial_wall * 1e3, latency_sum * 1e3,
              overlapped ? "(<= half)" : "(above half the sum!)");

  // Wall-clock on four workers: more CPU parts run at once.
  auto parallel_world = world_with(4);
  auto [parallel_wall, parallel_rows] = time_queries(parallel_world->mediator);
  std::printf("%-22s %10.2f ms wall\n", "workers=4", parallel_wall * 1e3);

  const double speedup = serial_wall / parallel_wall;
  std::printf("\nspeedup (workers=4 vs workers=1): %.2fx\n", speedup);
  if (rows != serial_rows || rows != parallel_rows) {
    std::printf("ROW MISMATCH: virtual=%zu serial=%zu parallel=%zu\n", rows,
                serial_rows, parallel_rows);
    return 1;
  }

  // Multi-client throughput: 8 application threads hammer the workers=4
  // mediator; the shared pool bounds how many calls' CPU parts run at
  // once, not how many calls wait.
  const size_t kClients = 8;
  const int kQueriesPerClient = 10;
  parallel_world->mediator.network().reset_stats();
  Stopwatch watch;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kQueriesPerClient; ++i) {
        parallel_world->mediator.query(kQuery);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const double elapsed = watch.seconds();
  const size_t total = kClients * kQueriesPerClient;

  net::TrafficStats traffic = parallel_world->mediator.traffic_stats();
  exec::MetricsSnapshot metrics = parallel_world->mediator.exec_metrics();
  std::printf("\n%zu clients x %d queries on workers=4: %.1f queries/s "
              "(%.2f ms/query)\n",
              kClients, kQueriesPerClient, total / elapsed,
              elapsed / total * 1e3);
  std::printf("federation traffic: calls=%llu rows=%llu failures=%llu\n",
              static_cast<unsigned long long>(traffic.calls),
              static_cast<unsigned long long>(traffic.rows),
              static_cast<unsigned long long>(traffic.failures));
  std::printf("executor metrics:   %s\n", metrics.to_string().c_str());

  // Tracing cost (src/obs/): the same virtual-time workload with obs left
  // off (the default; every instrumentation site is one pointer check)
  // and with obs on. Virtual time means no wall waits dilute the
  // comparison — this is the pure CPU cost of the query pipeline.
  const int kObsRepeats = 200;
  auto time_obs = [&](bool enabled) {
    auto world = world_with(0, enabled);
    world->mediator.query(kQuery);  // warm up (catalog, first plan)
    Stopwatch obs_watch;
    for (int i = 0; i < kObsRepeats; ++i) {
      world->mediator.query(kQuery);
    }
    return obs_watch.seconds() / kObsRepeats;
  };
  const double obs_off_s = time_obs(false);
  const double obs_on_s = time_obs(true);
  // The disabled path is the default path: measure it twice and record
  // the delta. The instrumentation's pointer checks must stay below this
  // noise floor (acceptance: <= 2%).
  const double obs_off_repeat_s = time_obs(false);
  const double obs_overhead_pct = (obs_on_s / obs_off_s - 1.0) * 100.0;
  double disabled_delta_pct =
      (obs_off_repeat_s / obs_off_s - 1.0) * 100.0;
  if (disabled_delta_pct < 0) disabled_delta_pct = -disabled_delta_pct;
  std::printf("\nobs off: %.3f ms/query (repeat %.3f ms, delta %.1f%%), "
              "obs on: %.3f ms/query (tracing overhead %.1f%%)\n",
              obs_off_s * 1e3, obs_off_repeat_s * 1e3, disabled_delta_pct,
              obs_on_s * 1e3, obs_overhead_pct);

  // Per-stage wall time, read back from an obs-enabled run's span tree.
  auto traced_world = world_with(4, /*obs_enabled=*/true);
  traced_world->mediator.query(kQuery);
  double stage_parse_ms = 0, stage_optimize_ms = 0, stage_execute_ms = 0;
  if (auto trace = traced_world->mediator.last_trace()) {
    obs::Span span;
    if (trace->find_span("parse", &span)) {
      stage_parse_ms = span.duration_s() * 1e3;
    }
    if (trace->find_span("optimize", &span)) {
      stage_optimize_ms = span.duration_s() * 1e3;
    }
    if (trace->find_span("execute", &span)) {
      stage_execute_ms = span.duration_s() * 1e3;
    }
  }
  std::printf("stage spans (workers=4, traced): parse %.3f ms, "
              "optimize %.3f ms, execute %.3f ms\n",
              stage_parse_ms, stage_optimize_ms, stage_execute_ms);

  if (argc > 1) {
    FILE* out = std::fopen(argv[1], "w");
    if (out == nullptr) {
      std::printf("cannot write %s\n", argv[1]);
      return 1;
    }
    std::fprintf(
        out,
        "{\n"
        "  \"bench\": \"parallel\",\n"
        "  \"sources\": %zu,\n"
        "  \"latency_ms\": %.3f,\n"
        "  \"virtual_ms\": %.3f,\n"
        "  \"serial_ms\": %.3f,\n"
        "  \"serial_latency_sum_ms\": %.3f,\n"
        "  \"parallel_ms\": %.3f,\n"
        "  \"speedup\": %.3f,\n"
        "  \"throughput_qps\": %.1f,\n"
        "  \"obs\": {\n"
        "    \"off_ms_per_query\": %.4f,\n"
        "    \"off_repeat_ms_per_query\": %.4f,\n"
        "    \"disabled_path_delta_pct\": %.2f,\n"
        "    \"on_ms_per_query\": %.4f,\n"
        "    \"tracing_overhead_pct\": %.2f,\n"
        "    \"stages_ms\": {\"parse\": %.4f, \"optimize\": %.4f, "
        "\"execute\": %.4f}\n"
        "  }\n"
        "}\n",
        kSources, kLatency.base_s * 1e3, virtual_wall * 1e3,
        serial_wall * 1e3, latency_sum * 1e3, parallel_wall * 1e3, speedup,
        total / elapsed,
        obs_off_s * 1e3, obs_off_repeat_s * 1e3, disabled_delta_pct,
        obs_on_s * 1e3, obs_overhead_pct, stage_parse_ms,
        stage_optimize_ms, stage_execute_ms);
    std::fclose(out);
    std::printf("wrote %s\n", argv[1]);
  }
  return overlapped ? 0 : 1;
}
