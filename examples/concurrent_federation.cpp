// A mediator serving many application threads at once, with the
// concurrent executor (ExecOptions::workers > 0) doing real parallel
// source dispatch — §4's "these calls proceed in parallel" in wall time.
//
//   build/examples/concurrent_federation
//
// The federation: six person databases, each behind its own repository
// ~5ms away. Four of them are solid; one is flaky (each call answers
// with probability 0.7 — the dispatcher's retry-with-backoff smooths it
// over); one is hard down (no retry can help, so answers over it are
// partial, carrying a residual query per §4).
#include <atomic>
#include <iostream>
#include <thread>
#include <vector>

#include "core/disco.hpp"

int main() {
  using namespace disco;

  const size_t kSources = 6;
  const size_t kFlaky = 4;  // r4: availability blips, retried away
  const size_t kDown = 5;   // r5: hard down, answers become partial

  Mediator::Options options;
  options.exec.workers = 4;          // wall-clock mode: real thread pool
  options.exec.latency_scale = 0.2;  // replay 5ms sim latency as 1ms wall
  options.exec.retry.max_attempts = 8;
  Mediator mediator(options);

  std::vector<std::unique_ptr<memdb::Database>> dbs;
  auto wrapper = std::make_shared<wrapper::MemDbWrapper>();
  std::string odl = R"(
    interface Person (extent person) {
      attribute Long id;
      attribute String name;
      attribute Short salary; };
  )";
  for (size_t i = 0; i < kSources; ++i) {
    const std::string n = std::to_string(i);
    dbs.push_back(std::make_unique<memdb::Database>("db" + n));
    auto& table = dbs.back()->create_table(
        "person" + n, {{"id", memdb::ColumnType::Int},
                       {"name", memdb::ColumnType::Text},
                       {"salary", memdb::ColumnType::Int}});
    for (int r = 0; r < 50; ++r) {
      table.insert({Value::integer(r), Value::string("p" + n + "_" +
                                                     std::to_string(r)),
                    Value::integer(100 * static_cast<int64_t>(i) + r)});
    }
    wrapper->attach_database("r" + n, dbs.back().get());
    net::Availability availability;  // defaults to always up
    if (i == kFlaky) availability = net::Availability::random(0.7);
    if (i == kDown) availability = net::Availability::always_down();
    mediator.register_repository(
        catalog::Repository{"r" + n, "host" + n, "db", "10.0.0." + n},
        net::LatencyModel{0.005, 1e-5, 0}, availability);
    odl += "extent person" + n + " of Person wrapper w0 repository r" + n +
           ";\n";
  }
  mediator.register_wrapper("w0", std::move(wrapper));
  mediator.execute_odl(odl);

  // ---- many clients, one mediator ----------------------------------------
  const size_t kClients = 6;
  const int kQueriesPerClient = 8;
  const char* query = "select x.name from x in person where x.salary > 120";

  std::atomic<int> complete{0};
  std::atomic<int> partial{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        Answer answer = mediator.query(query);
        (answer.complete() ? complete : partial).fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();

  std::cout << kClients << " clients x " << kQueriesPerClient
            << " queries against " << kSources << " sources (r" << kFlaky
            << " flaky, r" << kDown << " down)\n\n";
  std::cout << "complete answers: " << complete.load()
            << "   partial answers: " << partial.load()
            << "  (every answer over r" << kDown
            << " carries a residual query, per §4)\n\n";

  // One representative partial answer: data now, a query for later.
  Answer sample = mediator.query(query);
  std::cout << "sample answer rows: " << sample.data().size() << "\n";
  for (const std::string& residual : sample.residual_queries()) {
    std::cout << "residual: " << residual << "\n";
  }

  // ---- what the executor saw ---------------------------------------------
  exec::MetricsSnapshot metrics = mediator.exec_metrics();
  net::TrafficStats traffic = mediator.traffic_stats();
  std::cout << "\nexecutor metrics: " << metrics.to_string() << "\n";
  std::cout << "flaky r" << kFlaky << ": "
            << mediator.network().stats("r" + std::to_string(kFlaky)).calls
            << " network calls issued, " << metrics.retries
            << " of all calls were retries after a blip\n";
  std::cout << "federation traffic: calls=" << traffic.calls
            << " rows=" << traffic.rows << " failures=" << traffic.failures
            << "\n";
  std::cout << "plan templates: hits=" << mediator.plan_cache_stats().hits
            << " builds=" << mediator.plan_cache_stats().misses << "\n";
  return 0;
}
