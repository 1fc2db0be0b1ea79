// Tests for the concurrent executor (src/exec/) and the thread safety of
// the layers it touches: ThreadPool, ParallelDispatcher retry/deadline
// behaviour, wall-clock vs virtual-time result equivalence, and
// Mediator::query under many client threads. All of these run under the
// `concurrency` ctest label (and the DISCO_SANITIZE=thread build).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/disco.hpp"
#include "exec/dispatcher.hpp"
#include "exec/metrics.hpp"
#include "exec/thread_pool.hpp"
#include "oql/printer.hpp"

namespace disco {
namespace {

// ------------------------------------------------------------ thread pool ---

TEST(ThreadPoolTest, RunsTasksAndReturnsValues) {
  exec::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  exec::ThreadPool pool(2);
  auto future = pool.submit(
      []() -> int { throw ExecutionError("boom on a worker"); });
  EXPECT_THROW(future.get(), ExecutionError);
}

TEST(ThreadPoolTest, DrainsQueueOnDestruction) {
  std::atomic<int> done{0};
  {
    exec::ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&done] { done.fetch_add(1); });
    }
  }
  EXPECT_EQ(done.load(), 32);
}

// ------------------------------------------------------------- dispatcher ---

// A dispatcher over one simulated endpoint. latency_scale compresses the
// simulated waits so the wall-clock tests stay fast.
struct DispatcherHarness {
  explicit DispatcherHarness(net::Availability availability,
                             exec::ExecOptions options = fast_options(),
                             net::LatencyModel latency = {0.010, 0.0001, 0})
      : network(/*seed=*/7),
        pool(2),
        dispatcher(&pool, &network, options, &metrics) {
    network.add_endpoint({"src", latency, availability});
  }

  static exec::ExecOptions fast_options() {
    exec::ExecOptions options;
    options.workers = 2;
    options.latency_scale = 0.01;  // 10ms simulated -> 0.1ms wall
    return options;
  }

  /// Issues one call to "src" at virtual instant 0 and waits for it to
  /// land.
  exec::DispatchOutcome call(size_t result_rows, double deadline_s) {
    auto landed = std::make_shared<std::promise<exec::DispatchOutcome>>();
    std::future<exec::DispatchOutcome> outcome = landed->get_future();
    dispatcher.call("src", result_rows, /*issue_at=*/0, deadline_s, {},
                    [landed](const exec::DispatchOutcome& out) {
                      landed->set_value(out);
                    });
    return outcome.get();
  }

  net::Network network;
  exec::ThreadPool pool;
  exec::Metrics metrics;
  exec::ParallelDispatcher dispatcher;
};

TEST(DispatcherTest, UpSourceSucceedsOnFirstAttempt) {
  DispatcherHarness h(net::Availability::always_up());
  exec::DispatchOutcome out = h.call(/*result_rows=*/100, /*deadline_s=*/1.0);
  EXPECT_TRUE(out.available);
  EXPECT_FALSE(out.timed_out);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_DOUBLE_EQ(out.latency_s, 0.010 + 100 * 0.0001);

  exec::MetricsSnapshot m = h.metrics.snapshot();
  EXPECT_EQ(m.dispatched, 1u);
  EXPECT_EQ(m.succeeded, 1u);
  EXPECT_EQ(m.retries, 0u);
  EXPECT_EQ(m.rows, 100u);
}

TEST(DispatcherTest, DownSourceExhaustsEveryAttempt) {
  DispatcherHarness h(net::Availability::always_down());
  exec::DispatchOutcome out = h.call(10, /*deadline_s=*/10.0);
  EXPECT_FALSE(out.available);
  EXPECT_FALSE(out.timed_out);
  EXPECT_EQ(out.attempts, h.dispatcher.options().retry.max_attempts);

  exec::MetricsSnapshot m = h.metrics.snapshot();
  EXPECT_EQ(m.failed, 1u);
  EXPECT_EQ(m.timed_out, 0u);
  EXPECT_EQ(m.retries,
            uint64_t{h.dispatcher.options().retry.max_attempts} - 1);
}

TEST(DispatcherTest, SlowReplyHitsTheDeadline) {
  // Simulated latency 0.5s against a 0.1s deadline: §4 classifies the
  // source unavailable and the call reports a timeout.
  DispatcherHarness h(net::Availability::always_up(),
                      DispatcherHarness::fast_options(),
                      net::LatencyModel{0.5, 0, 0});
  exec::DispatchOutcome out = h.call(10, /*deadline_s=*/0.1);
  EXPECT_FALSE(out.available);
  EXPECT_TRUE(out.timed_out);
  // The attempt was made, so the late reply's latency is known.
  EXPECT_DOUBLE_EQ(out.latency_s, 0.5);
  EXPECT_EQ(h.metrics.snapshot().timed_out, 1u);
}

TEST(DispatcherTest, PerCallDeadlineCombinesWithQueryDeadline) {
  exec::ExecOptions options = DispatcherHarness::fast_options();
  options.call_deadline_s = 0.1;  // tighter than the query deadline below
  DispatcherHarness h(net::Availability::always_up(), options,
                      net::LatencyModel{0.5, 0, 0});
  exec::DispatchOutcome out =
      h.call(10, /*deadline_s=*/std::numeric_limits<double>::infinity());
  EXPECT_TRUE(out.timed_out);
}

TEST(DispatcherTest, DeadlineExpiredBeforeFirstAttemptReportsOneAttempt) {
  // A deadline of zero expires before the first network call is issued.
  // The outcome must still report one attempted (aborted) round —
  // attempts=0 would surface in metrics, traces and the outcome listener
  // as "never tried", which reads as a dispatcher bug, not a timeout.
  DispatcherHarness h(net::Availability::always_up());
  exec::DispatchOutcome out = h.call(10, /*deadline_s=*/0.0);
  EXPECT_FALSE(out.available);
  EXPECT_TRUE(out.timed_out);
  EXPECT_GE(out.attempts, 1u);
  EXPECT_EQ(h.metrics.snapshot().timed_out, 1u);
}

TEST(DispatcherTest, RejectsJitterOutsideUnitInterval) {
  // jitter > 1 would make backoff * (1 + jitter * (2*rng - 1)) negative,
  // silently collapsing backoff into a hot retry loop; the constructor
  // rejects it up front.
  net::Network network(/*seed=*/7);
  network.add_endpoint({"src", {}, net::Availability::always_up()});
  exec::ThreadPool pool(1);
  exec::Metrics metrics;

  exec::ExecOptions too_big = DispatcherHarness::fast_options();
  too_big.retry.jitter = 1.5;
  EXPECT_THROW(
      exec::ParallelDispatcher(&pool, &network, too_big, &metrics),
      InternalError);

  exec::ExecOptions negative = DispatcherHarness::fast_options();
  negative.retry.jitter = -0.1;
  EXPECT_THROW(
      exec::ParallelDispatcher(&pool, &network, negative, &metrics),
      InternalError);

  // The boundary values are legal: jitter=0 (no jitter) and jitter=1
  // (full-range jitter, delay still clamped at >= 0).
  exec::ExecOptions zero = DispatcherHarness::fast_options();
  zero.retry.jitter = 0;
  EXPECT_NO_THROW(
      exec::ParallelDispatcher(&pool, &network, zero, &metrics));
  exec::ExecOptions one = DispatcherHarness::fast_options();
  one.retry.jitter = 1.0;
  EXPECT_NO_THROW(
      exec::ParallelDispatcher(&pool, &network, one, &metrics));
}

TEST(DispatcherTest, FullJitterNeverSpinsHot) {
  // With jitter=1.0 the computed delay can reach 0 but never below;
  // a flaky source is still retried to success without a negative-delay
  // hot loop distorting the backoff schedule.
  exec::ExecOptions options = DispatcherHarness::fast_options();
  options.retry.jitter = 1.0;
  options.retry.max_attempts = 10;
  DispatcherHarness h(net::Availability::random(0.5), options);
  size_t succeeded = 0;
  for (int i = 0; i < 16; ++i) {
    exec::DispatchOutcome out = h.call(5, /*deadline_s=*/10.0);
    if (out.available) ++succeeded;
  }
  EXPECT_EQ(succeeded, 16u);
}

TEST(DispatcherTest, RandomBlipsAreRetriedAway) {
  exec::ExecOptions options = DispatcherHarness::fast_options();
  options.retry.max_attempts = 10;
  DispatcherHarness h(net::Availability::random(0.5), options);

  size_t succeeded = 0;
  bool saw_retry = false;
  for (int i = 0; i < 32; ++i) {
    exec::DispatchOutcome out = h.call(5, /*deadline_s=*/10.0);
    if (out.available) ++succeeded;
    if (out.available && out.attempts > 1) saw_retry = true;
  }
  // With p=0.5 and 10 attempts a call practically always lands, and with
  // 32 calls some of them needed more than one attempt.
  EXPECT_EQ(succeeded, 32u);
  EXPECT_TRUE(saw_retry);
  EXPECT_GE(h.metrics.snapshot().retries, 1u);
}

TEST(DispatcherTest, BackoffAttemptSeesTheSourceComeBack) {
  // Each attempt consults the network when it is made, not when the call
  // was issued: a source brought back while the call backs off answers
  // the very next attempt.
  exec::ExecOptions options = DispatcherHarness::fast_options();
  options.latency_scale = 0.1;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_s = 1.0;  // 100 ms wall
  options.retry.max_backoff_s = 1.0;
  options.retry.jitter = 0;
  DispatcherHarness h(net::Availability::always_down(), options);

  auto landed = std::make_shared<std::promise<exec::DispatchOutcome>>();
  std::future<exec::DispatchOutcome> outcome = landed->get_future();
  h.dispatcher.call("src", 5, /*issue_at=*/0, /*deadline_s=*/10.0, {},
                    [landed](const exec::DispatchOutcome& out) {
                      landed->set_value(out);
                    });
  while (h.metrics.snapshot().retries == 0) std::this_thread::yield();
  h.network.set_availability("src", net::Availability::always_up());

  exec::DispatchOutcome out = outcome.get();
  EXPECT_TRUE(out.available);
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_EQ(h.metrics.snapshot().retries, 1u);
  EXPECT_EQ(h.dispatcher.pending(), 0u);
}

// ------------------------------------------- federation (mediator level) ---

/// A federation of `sources` one-row person tables, each behind its own
/// repository, all served by one MiniSQL wrapper — the N-source fan-out
/// world for the parallel-executor tests.
struct Federation {
  explicit Federation(size_t sources, Mediator::Options options = {},
                      net::Availability availability = {}) {
    mediator = std::make_unique<Mediator>(options);
    auto wrapper = std::make_shared<wrapper::MemDbWrapper>();
    std::string odl = R"(
      interface Person (extent person) {
        attribute Long id;
        attribute String name;
        attribute Short salary; };
    )";
    for (size_t i = 0; i < sources; ++i) {
      const std::string n = std::to_string(i);
      dbs.push_back(std::make_unique<memdb::Database>("db" + n));
      auto& table = dbs.back()->create_table(
          "person" + n, {{"id", memdb::ColumnType::Int},
                         {"name", memdb::ColumnType::Text},
                         {"salary", memdb::ColumnType::Int}});
      table.insert({Value::integer(static_cast<int64_t>(i)),
                    Value::string("p" + n),
                    Value::integer(static_cast<int64_t>(10 * i))});
      wrapper->attach_database("r" + n, dbs.back().get());
      mediator->register_repository(
          catalog::Repository{"r" + n, "host" + n, "db", "10.0.0." + n},
          net::LatencyModel{0.005, 0.0001, 0}, availability);
      odl += "extent person" + n + " of Person wrapper w0 repository r" +
             n + ";\n";
    }
    mediator->register_wrapper("w0", std::move(wrapper));
    mediator->execute_odl(odl);
  }

  /// Sorted `to_oql` texts of the answer rows, for order-insensitive
  /// comparison (sources answer in nondeterministic order in wall-clock
  /// mode).
  static std::vector<std::string> row_set(const Answer& answer) {
    std::vector<std::string> rows;
    for (const Value& item : answer.data().items()) {
      rows.push_back(item.to_oql());
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  std::vector<std::unique_ptr<memdb::Database>> dbs;
  std::unique_ptr<Mediator> mediator;
};

Mediator::Options wall_clock_options(size_t workers) {
  Mediator::Options options;
  options.exec.workers = workers;
  options.exec.latency_scale = 0.01;  // 5ms simulated -> 50us wall
  return options;
}

TEST(ParallelExecutionTest, MatchesSequentialRowSet) {
  const size_t kSources = 8;
  const std::string query =
      "select struct(name: x.name, salary: x.salary) from x in person";

  Federation sequential(kSources);  // workers = 0: virtual-time path
  Answer a = sequential.mediator->query(query);
  ASSERT_TRUE(a.complete());
  EXPECT_EQ(sequential.mediator->exec_metrics().dispatched, 0u);

  Federation parallel(kSources, wall_clock_options(4));
  Answer b = parallel.mediator->query(query);
  ASSERT_TRUE(b.complete());

  EXPECT_EQ(Federation::row_set(a), Federation::row_set(b));
  EXPECT_EQ(a.data().items().size(), kSources);

  exec::MetricsSnapshot m = parallel.mediator->exec_metrics();
  EXPECT_EQ(m.dispatched, kSources);
  EXPECT_EQ(m.succeeded, kSources);
  EXPECT_EQ(m.rows, kSources);  // one row per source
}

TEST(ParallelExecutionTest, OneWorkerFanOutOverlapsItsWaits) {
  // The pool sizes CPU work only: with a single worker, an 8-source
  // fan-out still waits out its calls together, in well under two call
  // latencies rather than eight.
  const size_t kSources = 8;
  Mediator::Options options = wall_clock_options(1);
  options.exec.latency_scale = 10;  // 5.1 ms simulated -> 51 ms wall
  Federation federation(kSources, options);

  Answer answer =
      federation.mediator->query("select x.name from x in person");
  ASSERT_TRUE(answer.complete());
  EXPECT_EQ(answer.data().items().size(), kSources);
  const double latency_wall_s = (0.005 + 0.0001) * 10;
  EXPECT_LT(answer.stats().run.elapsed_s, 2 * latency_wall_s);
}

TEST(ParallelExecutionTest, OneWorkerCompletesQueuedAndCoalescedCalls) {
  // One worker, one repository with a single token, and a cache. The
  // second query of each pair blocks that worker until the first one's
  // call lands: on the cached fetch it joined, or in the queue for the
  // token. A landing never needs a worker, so every query completes.
  Mediator::Options options = wall_clock_options(1);
  options.exec.latency_scale = 40;  // 5.1 ms simulated -> 204 ms wall
  options.sched.enabled = true;
  options.sched.per_endpoint_limit = 1;
  options.cache.enabled = true;
  Federation federation(1, options);
  Mediator& mediator = *federation.mediator;

  auto run_pair = [&](const std::string& first, const std::string& second) {
    std::optional<Answer> a, b;
    std::thread lead([&] { a = mediator.query(first); });
    while (mediator.sched_stats("r0").in_flight == 0) {
      std::this_thread::yield();
    }
    std::thread follow([&] { b = mediator.query(second); });
    lead.join();
    follow.join();
    EXPECT_TRUE(a->complete());
    EXPECT_TRUE(b->complete());
    return std::make_pair(*a, *b);
  };

  // The same submit joins the in-flight fetch: a coalesced cache waiter.
  const std::string names = "select x.name from x in person";
  auto [led, joined] = run_pair(names, names);
  EXPECT_EQ(joined.stats().run.cache_coalesced, 1u);
  EXPECT_EQ(Federation::row_set(led), Federation::row_set(joined));

  // Another submit to the same repository: a queued admission.
  run_pair("select x.salary from x in person", "select x.id from x in person");
  sched::EndpointSchedStats r0 = mediator.sched_stats("r0");
  EXPECT_EQ(r0.queued_calls, 1u);
  EXPECT_EQ(r0.max_in_flight, 1u);
  EXPECT_EQ(r0.in_flight, 0u);
}

TEST(ParallelExecutionTest, WallClockStatsReportRetries) {
  // Flaky sources: each call is up with p=0.7, and the dispatcher's
  // retry budget is deep enough that every source practically always
  // answers. The answer stays complete *because of* the retries.
  Mediator::Options options = wall_clock_options(4);
  options.exec.retry.max_attempts = 12;
  Federation flaky(8, options, net::Availability::random(0.7));

  Answer answer = flaky.mediator->query("select x.name from x in person");
  EXPECT_TRUE(answer.complete());
  EXPECT_EQ(answer.data().items().size(), 8u);

  // 3 more queries: 32 dispatches at p=0.7 make a zero-retry run
  // astronomically unlikely.
  for (int i = 0; i < 3; ++i) {
    flaky.mediator->query("select x.name from x in person");
  }
  exec::MetricsSnapshot m = flaky.mediator->exec_metrics();
  EXPECT_EQ(m.dispatched, 32u);
  EXPECT_GE(m.retries, 1u);
  // Per-query RunStats see only their own retries, never more than the
  // mediator-wide total.
  EXPECT_LE(answer.stats().run.retry_attempts, m.retries);
}

TEST(ParallelExecutionTest, ManyClientThreadsShareOneMediator) {
  const size_t kSources = 6;
  const size_t kThreads = 8;
  const size_t kQueriesPerThread = 5;

  Mediator::Options options = wall_clock_options(4);
  Federation federation(kSources, options);

  const std::string query = "select x.name from x in person";
  const std::vector<std::string> expected =
      Federation::row_set(federation.mediator->query(query));
  ASSERT_EQ(expected.size(), kSources);

  std::atomic<size_t> complete{0};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (size_t q = 0; q < kQueriesPerThread; ++q) {
        Answer answer = federation.mediator->query(query);
        if (answer.complete()) complete.fetch_add(1);
        if (Federation::row_set(answer) != expected) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(complete.load(), kThreads * kQueriesPerThread);
  EXPECT_EQ(mismatches.load(), 0u);

  // Every one of the (1 + 40) queries touched every source.
  net::TrafficStats traffic = federation.mediator->traffic_stats();
  EXPECT_EQ(traffic.calls, (1 + kThreads * kQueriesPerThread) * kSources);
  EXPECT_EQ(traffic.failures, 0u);

  // The warm-up query left a plan behind; once the cost history settles,
  // concurrent clients hit it.
  Mediator::PlanCacheStats cache = federation.mediator->plan_cache_stats();
  EXPECT_GE(cache.hits, 1u);
  EXPECT_EQ(cache.hits + cache.misses, 1 + kThreads * kQueriesPerThread);
}

TEST(ParallelExecutionTest, TrafficStatsAggregateAcrossEndpoints) {
  Federation federation(4);
  federation.mediator->query("select x.name from x in person");

  net::TrafficStats total = federation.mediator->traffic_stats();
  EXPECT_EQ(total.calls, 4u);
  EXPECT_EQ(total.rows, 4u);

  net::TrafficStats summed;
  for (int i = 0; i < 4; ++i) {
    summed += federation.mediator->network().stats("r" + std::to_string(i));
  }
  EXPECT_EQ(total.calls, summed.calls);
  EXPECT_EQ(total.rows, summed.rows);
  EXPECT_EQ(total.failures, summed.failures);
  EXPECT_DOUBLE_EQ(total.busy_s, summed.busy_s);
}

// --------------------------------------- shared-state concurrency smoke ---

TEST(ConcurrentStateTest, CostHistoryRecordAndEstimateFromManyThreads) {
  optimizer::CostHistory history;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&history, t] {
      auto remote = algebra::get("e" + std::to_string(t % 4), "x");
      const std::string repo = "r" + std::to_string(t % 4);
      for (int i = 0; i < 200; ++i) {
        history.record(repo, remote, 0.001 * (i % 7), 10 + i % 3);
        (void)history.estimate(repo, remote);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(history.exact_entries(), 4u);
  EXPECT_EQ(history.repository_entries(), 4u);
}

TEST(ConcurrentStateTest, NetworkCallsFromManyThreads) {
  net::Network network(/*seed=*/3);
  for (int i = 0; i < 4; ++i) {
    network.add_endpoint({"s" + std::to_string(i),
                          net::LatencyModel{0.001, 0, 0},
                          net::Availability::always_up()});
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&network, t] {
      const std::string name = "s" + std::to_string(t % 4);
      for (int i = 0; i < 500; ++i) {
        net::CallOutcome out = network.call(name, 2, 0.0);
        ASSERT_TRUE(out.available);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(network.total_stats().calls, 8u * 500u);
  EXPECT_EQ(network.total_stats().rows, 8u * 500u * 2u);
}

}  // namespace
}  // namespace disco
