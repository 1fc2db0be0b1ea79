// Tests for the session subsystem (src/session/): circuit-breaker state
// machine, EWMA health, health-aware planning, asynchronous QueryHandle
// sessions, the admin/query exclusion gate, and the mediator-level
// acceptance scenario — a query against a federation with a dark source
// returns a partial answer without paying the timeout, and the same
// handle completes itself once the source recovers. All of these run
// under the `concurrency` ctest label (and the DISCO_SANITIZE=thread
// build).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/disco.hpp"
#include "fixtures.hpp"
#include "oql/parser.hpp"
#include "session/health.hpp"
#include "session/session.hpp"

namespace disco {
namespace {

using disco::testing::PaperWorld;

// --------------------------------------------------- circuit state machine ---

/// Tracker over a hand-cranked clock: every test advances `now`
/// explicitly, so cooldown behaviour is exact.
struct TrackerHarness {
  explicit TrackerHarness(session::HealthOptions options = enabled()) {
    now = std::make_shared<double>(0.0);
    auto clock_now = now;
    tracker = std::make_unique<session::SourceHealthTracker>(
        options, [clock_now] { return *clock_now; });
  }

  static session::HealthOptions enabled() {
    session::HealthOptions options;
    options.enabled = true;
    options.failure_threshold = 3;
    options.open_cooldown_s = 1.0;
    return options;
  }

  std::shared_ptr<double> now;
  std::unique_ptr<session::SourceHealthTracker> tracker;
};

TEST(CircuitTest, OpensAfterConsecutiveFailures) {
  TrackerHarness h;
  auto& t = *h.tracker;
  EXPECT_EQ(t.state("r0"), session::CircuitState::Closed);
  t.on_outcome("r0", false, 0);
  t.on_outcome("r0", false, 0);
  EXPECT_EQ(t.state("r0"), session::CircuitState::Closed);
  EXPECT_TRUE(t.admit("r0"));  // two failures: still below threshold
  t.on_outcome("r0", false, 0);
  EXPECT_EQ(t.state("r0"), session::CircuitState::Open);

  EXPECT_FALSE(t.admit("r0"));
  EXPECT_FALSE(t.admit("r0"));
  session::SourceHealth health = t.health("r0");
  EXPECT_EQ(health.short_circuits, 2u);
  EXPECT_EQ(health.consecutive_failures, 3u);
  EXPECT_EQ(health.failures, 3u);
  EXPECT_DOUBLE_EQ(t.availability("r0"), 0.0);  // Open pins the signal
}

TEST(CircuitTest, SuccessResetsConsecutiveFailures) {
  TrackerHarness h;
  auto& t = *h.tracker;
  t.on_outcome("r0", false, 0);
  t.on_outcome("r0", false, 0);
  t.on_outcome("r0", true, 0.01);
  t.on_outcome("r0", false, 0);
  t.on_outcome("r0", false, 0);
  EXPECT_EQ(t.state("r0"), session::CircuitState::Closed);
  EXPECT_EQ(t.health("r0").consecutive_failures, 2u);
}

TEST(CircuitTest, CooldownAdmitsOneTrialThenClosesOnSuccess) {
  TrackerHarness h;
  auto& t = *h.tracker;
  for (int i = 0; i < 3; ++i) t.on_outcome("r0", false, 0);
  ASSERT_EQ(t.state("r0"), session::CircuitState::Open);
  uint64_t epoch = t.recovery_epoch();

  *h.now = 0.5;  // cooldown (1s) not yet elapsed
  EXPECT_FALSE(t.admit("r0"));
  *h.now = 1.5;
  EXPECT_TRUE(t.admit("r0"));  // the half-open trial
  EXPECT_EQ(t.state("r0"), session::CircuitState::HalfOpen);
  EXPECT_FALSE(t.admit("r0"));  // trial in flight: everyone else waits

  t.on_outcome("r0", true, 0.02);
  EXPECT_EQ(t.state("r0"), session::CircuitState::Closed);
  EXPECT_TRUE(t.admit("r0"));
  EXPECT_EQ(t.recovery_epoch(), epoch + 1);
}

TEST(CircuitTest, HalfOpenTrialFailureReopens) {
  TrackerHarness h;
  auto& t = *h.tracker;
  for (int i = 0; i < 3; ++i) t.on_outcome("r0", false, 0);
  *h.now = 1.5;
  ASSERT_TRUE(t.admit("r0"));
  t.on_outcome("r0", false, 0);
  EXPECT_EQ(t.state("r0"), session::CircuitState::Open);
  // The cooldown restarted at the failed trial.
  *h.now = 2.0;
  EXPECT_FALSE(t.admit("r0"));
  *h.now = 2.6;
  EXPECT_TRUE(t.admit("r0"));
}

TEST(CircuitTest, EwmaTracksAvailabilityAndLatency) {
  TrackerHarness h;
  auto& t = *h.tracker;
  EXPECT_DOUBLE_EQ(t.availability("never_seen"), 1.0);

  t.on_outcome("r0", true, 0.010);
  session::SourceHealth health = t.health("r0");
  EXPECT_DOUBLE_EQ(health.availability, 1.0);
  EXPECT_DOUBLE_EQ(health.latency_ewma_s, 0.010);  // first sighting seeds

  t.on_outcome("r0", false, 0);
  health = t.health("r0");
  EXPECT_LT(health.availability, 1.0);
  EXPECT_GT(health.availability, 0.0);
  EXPECT_DOUBLE_EQ(health.latency_ewma_s, 0.010);  // failures: no latency

  t.on_outcome("r0", true, 0.030);
  health = t.health("r0");
  // alpha = 0.3: 0.7 * 0.010 + 0.3 * 0.030 = 0.016.
  EXPECT_NEAR(health.latency_ewma_s, 0.016, 1e-12);
  EXPECT_DOUBLE_EQ(t.availability("r0"), health.availability);
}

TEST(CircuitTest, ProbeCandidatesAndTryBeginProbe) {
  TrackerHarness h;
  auto& t = *h.tracker;
  t.on_outcome("r0", true, 0.01);
  EXPECT_TRUE(t.probe_candidates().empty());  // healthy: nothing to probe

  for (int i = 0; i < 3; ++i) t.on_outcome("r0", false, 0);
  std::vector<std::string> candidates = t.probe_candidates();
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], "r0");

  EXPECT_FALSE(t.try_begin_probe("r0"));  // cooldown not elapsed
  EXPECT_EQ(t.health("r0").short_circuits, 0u);  // probes never count
  *h.now = 1.5;
  EXPECT_TRUE(t.try_begin_probe("r0"));
  EXPECT_FALSE(t.try_begin_probe("r0"));  // trial probe in flight
  t.on_outcome("r0", true, 0.01);
  EXPECT_EQ(t.state("r0"), session::CircuitState::Closed);
}

TEST(CircuitTest, TransitionListenerFiresOutsideTheLock) {
  TrackerHarness h;
  auto& t = *h.tracker;
  std::vector<std::string> log;
  std::mutex log_mutex;
  t.set_listener([&](const std::string& repository,
                     session::CircuitState from, session::CircuitState to) {
    std::lock_guard<std::mutex> lock(log_mutex);
    log.push_back(repository + ":" + session::to_string(from) + ">" +
                  session::to_string(to));
    // Re-entering the tracker from the listener must not deadlock.
    (void)t.state(repository);
  });
  for (int i = 0; i < 3; ++i) t.on_outcome("r0", false, 0);
  *h.now = 1.5;
  ASSERT_TRUE(t.admit("r0"));
  t.on_outcome("r0", true, 0.01);

  std::lock_guard<std::mutex> lock(log_mutex);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "r0:closed>open");
  EXPECT_EQ(log[1], "r0:open>half-open");
  EXPECT_EQ(log[2], "r0:half-open>closed");
}

TEST(CircuitTest, ConcurrentOutcomesStaySane) {
  TrackerHarness h;
  auto& t = *h.tracker;
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&t, i] {
      for (int k = 0; k < 200; ++k) {
        t.on_outcome("r" + std::to_string(i % 2), k % 3 != 0,
                     0.001 * (k % 5));
        (void)t.admit("r" + std::to_string(i % 2));
        (void)t.availability("r0");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  session::SourceHealth health = t.health("r0");
  EXPECT_EQ(health.successes + health.failures, 400u);
  EXPECT_EQ(t.tracked(), 2u);
}

// --------------------------------------------------- health-aware planning ---

TEST(HealthAwarePlanningTest, UnhealthySourceRaisesPlanCost) {
  PaperWorld world;
  optimizer::CostHistory history;
  history.record("r0", algebra::get("person0", "x"), 0.05, 1);

  optimizer::Optimizer opt(
      &world.mediator.catalog(),
      [&](const std::string& name) {
        return world.mediator.wrapper_by_name(name);
      },
      &history);
  auto planned = opt.optimize(oql::parse("select x.name from x in person0"));
  ASSERT_NE(planned.plan, nullptr);
  double healthy = opt.cost(planned.plan).net_s;
  ASSERT_GT(healthy, 0.0);

  opt.set_health([](const std::string&) { return 0.0; });  // open circuit
  double dark = opt.cost(planned.plan).net_s;
  EXPECT_NEAR(dark, healthy / 0.05, 1e-9);  // floored 1/availability

  opt.set_health([](const std::string&) { return 0.5; });
  EXPECT_NEAR(opt.cost(planned.plan).net_s, healthy * 2.0, 1e-9);

  opt.set_health({});  // cleared: back to neutral costing
  EXPECT_DOUBLE_EQ(opt.cost(planned.plan).net_s, healthy);
}

// ------------------------------------- virtual-time breaker (deterministic) ---

Mediator::Options breaker_options() {
  Mediator::Options options;  // workers = 0: virtual-time path
  options.health.enabled = true;
  options.health.failure_threshold = 3;
  options.health.open_cooldown_s = 1.0;
  return options;
}

TEST(BreakerVirtualTest, OpenCircuitShortCircuitsWithoutPayingDeadline) {
  // Each failing query advances the virtual clock by the full 5s deadline
  // (runtime.cpp charges blocked calls the deadline), so the cooldown must
  // exceed the 15 simulated seconds the trip phase consumes or query 4
  // would legitimately be admitted as the half-open trial.
  Mediator::Options options = breaker_options();
  options.health.open_cooldown_s = 100.0;
  PaperWorld world(options);
  world.mediator.network().set_availability(
      "r0", net::Availability::always_down());
  const std::string query = "select x.name from x in person";
  const QueryOptions deadline{.deadline_s = 5.0};

  // Three queries trip the breaker; each pays the full designated time
  // (§4: a blocked call means waiting out the deadline).
  for (int i = 0; i < 3; ++i) {
    Answer a = world.mediator.query(query, deadline);
    ASSERT_FALSE(a.complete());
    EXPECT_DOUBLE_EQ(a.stats().run.elapsed_s, 5.0);
    EXPECT_EQ(a.stats().run.short_circuit_calls, 0u);
  }
  ASSERT_EQ(world.mediator.health_tracker().state("r0"),
            session::CircuitState::Open);
  const uint64_t calls_before = world.mediator.network().stats("r0").calls;

  // Open circuit: the partial answer is immediate — the elapsed virtual
  // time is r1's latency, not the 5s deadline, and r0 sees no traffic.
  Answer fast = world.mediator.query(query, deadline);
  ASSERT_FALSE(fast.complete());
  EXPECT_EQ(fast.data(), Value::bag({Value::string("Sam")}));
  EXPECT_EQ(fast.residual_queries().size(), 1u);
  EXPECT_LT(fast.stats().run.elapsed_s, 0.1);
  EXPECT_EQ(fast.stats().run.short_circuit_calls, 1u);
  EXPECT_EQ(fast.stats().run.unavailable_calls, 1u);
  EXPECT_EQ(world.mediator.network().stats("r0").calls, calls_before);
  EXPECT_GE(world.mediator.exec_metrics().short_circuits, 1u);
  EXPECT_EQ(world.mediator.source_health("r0").short_circuits, 1u);
}

TEST(BreakerVirtualTest, CooldownTrialClosesTheCircuitAgain) {
  PaperWorld world(breaker_options());
  auto& net = world.mediator.network();
  net.set_availability("r0", net::Availability::always_down());
  const std::string query = "select x.name from x in person";
  for (int i = 0; i < 3; ++i) {
    (void)world.mediator.query(query, QueryOptions{.deadline_s = 0.1});
  }
  ASSERT_EQ(world.mediator.health_tracker().state("r0"),
            session::CircuitState::Open);

  // Source recovers; after the cooldown the next query is admitted as
  // the half-open trial, succeeds, and closes the circuit.
  net.set_availability("r0", net::Availability::always_up());
  world.mediator.clock().advance(1.5);
  Answer healed = world.mediator.query(query);
  ASSERT_TRUE(healed.complete());
  EXPECT_EQ(world.mediator.health_tracker().state("r0"),
            session::CircuitState::Closed);

  std::vector<std::string> rows;
  for (const Value& item : healed.data().items()) {
    rows.push_back(item.to_oql());
  }
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, (std::vector<std::string>{"\"Mary\"", "\"Sam\""}));
}

TEST(BreakerVirtualTest, DisabledBreakerOnlyObserves) {
  PaperWorld world;  // health.enabled defaults to false
  world.mediator.network().set_availability(
      "r0", net::Availability::always_down());
  const QueryOptions deadline{.deadline_s = 0.5};
  for (int i = 0; i < 5; ++i) {
    Answer a = world.mediator.query("select x.name from x in person",
                                    deadline);
    ASSERT_FALSE(a.complete());
    // Passive mode never short-circuits: every query pays the deadline.
    EXPECT_DOUBLE_EQ(a.stats().run.elapsed_s, 0.5);
    EXPECT_EQ(a.stats().run.short_circuit_calls, 0u);
  }
  // ... but health is still tracked for observability.
  session::SourceHealth health = world.mediator.source_health("r0");
  EXPECT_EQ(health.failures, 5u);
  EXPECT_EQ(health.state, session::CircuitState::Open);
  EXPECT_EQ(health.short_circuits, 0u);
}

// ------------------------------------------- one health feed, both modes ---

TEST(HealthFeedTest, LatencyIncludesSourceComputeInBothModes) {
  // A 10 ms source whose wrapper reports 5 ms of compute: health and the
  // §3.3 cost history both observe 15 ms, whichever mode ran the call.
  for (size_t workers : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE("exec.workers = " + std::to_string(workers));
    Mediator::Options options;
    options.exec.workers = workers;
    options.exec.latency_scale = 0.01;
    Mediator mediator(options);
    memdb::Database db("db");
    db.create_table("person0", {{"id", memdb::ColumnType::Int},
                                {"name", memdb::ColumnType::Text},
                                {"salary", memdb::ColumnType::Int}})
        .insert({Value::integer(1), Value::string("Mary"),
                 Value::integer(200)});
    auto wrapper = std::make_shared<wrapper::MemDbWrapper>();
    wrapper->attach_database("r0", &db);
    wrapper->set_cost_model({.enabled = true,
                             .base_s = 0.005,
                             .per_row_scanned_s = 0,
                             .per_index_probe_s = 0});
    mediator.register_wrapper("w0", std::move(wrapper));
    mediator.register_repository(
        catalog::Repository{"r0", "h", "db", "1.1.1.1"},
        net::LatencyModel{0.010, 0, 0});
    mediator.execute_odl(R"(
      interface Person { attribute Long id; attribute String name;
                         attribute Short salary; };
      extent person0 of Person wrapper w0 repository r0;
    )");
    const std::string query = "select x.name from x in person0";
    ASSERT_TRUE(mediator.query(query).complete());

    EXPECT_NEAR(mediator.source_health("r0").latency_ewma_s, 0.015, 1e-9);
    Mediator::ExplainReport report = mediator.explain_report(query);
    ASSERT_EQ(report.submits.size(), 1u);
    EXPECT_EQ(report.submits[0].learned.observations, 1u);
    EXPECT_NEAR(report.submits[0].learned.time_s, 0.015, 1e-9);
  }
}

TEST(HealthFeedTest, CacheServedAndShedCallsAreNotObserved) {
  const std::string query = "select x.name from x in person";

  // A fully cache-served warm query made no source observation: neither
  // the health tracker nor the cost history hears of it.
  Mediator::Options cached;
  cached.cache.enabled = true;
  PaperWorld world(cached);
  ASSERT_TRUE(world.mediator.query(query).complete());
  const uint64_t successes = world.mediator.source_health("r0").successes;
  ASSERT_GT(successes, 0u);
  Mediator::ExplainReport cold = world.mediator.explain_report(query);
  ASSERT_FALSE(cold.submits.empty());

  Answer warm = world.mediator.query(query);
  ASSERT_TRUE(warm.complete());
  ASSERT_GT(warm.stats().run.exec_calls, 0u);
  ASSERT_EQ(warm.stats().run.cache_hits, warm.stats().run.exec_calls);
  EXPECT_EQ(world.mediator.source_health("r0").successes, successes);
  Mediator::ExplainReport after = world.mediator.explain_report(query);
  ASSERT_EQ(after.submits.size(), cold.submits.size());
  for (size_t i = 0; i < cold.submits.size(); ++i) {
    EXPECT_EQ(after.submits[i].learned.observations,
              cold.submits[i].learned.observations)
        << cold.submits[i].repository;
  }

  // A call shed by the scheduler never reached its source, so it is no
  // health failure: r0's only token is held and its queue holds nobody.
  Mediator::Options sched;
  sched.exec.workers = 4;
  sched.exec.latency_scale = 0.01;
  sched.sched.enabled = true;
  sched.sched.per_endpoint_limit = 1;
  sched.sched.queue_capacity = 0;
  PaperWorld busy(sched);
  sched::QueryScheduler::Admission held = busy.mediator.scheduler()->admit(
      "r0", /*query_id=*/9999, std::numeric_limits<double>::infinity());
  ASSERT_TRUE(held.admitted);
  Answer partial = busy.mediator.query(query);
  EXPECT_FALSE(partial.complete());
  EXPECT_EQ(partial.stats().run.shed_calls, 1u);
  EXPECT_EQ(busy.mediator.source_health("r0").failures, 0u);
  EXPECT_EQ(busy.mediator.source_health("r1").successes, 1u);
}

TEST(HealthFeedTest, TimeoutsTeachTheCostModelInBothModes) {
  // The deadline (0.1 s) is below the cost of fetching the 5000-row
  // customers extent whole (~0.5 s), and every source is up. The cold
  // plan hash-joins, so its whole-extent fetch times out and the join
  // turns residual. That reply's latency and rows are recorded like an
  // answer's, so the resubmitted residual is re-planned as an indexed
  // bind join and completes; were timeouts not recorded, every round
  // would pick the same plan and time out again.
  for (size_t workers : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE("exec.workers = " + std::to_string(workers));
    memdb::Database orders_db("db0");
    memdb::Database customers_db("db1");
    auto& orders = orders_db.create_table(
        "orders",
        {{"cid", memdb::ColumnType::Int}, {"item", memdb::ColumnType::Text}});
    orders.insert({Value::integer(11), Value::string("disk")});
    orders.insert({Value::integer(42), Value::string("tape")});
    orders.insert({Value::integer(11), Value::string("cpu")});
    auto& customers = customers_db.create_table(
        "customers",
        {{"id", memdb::ColumnType::Int}, {"cname", memdb::ColumnType::Text}});
    for (int i = 0; i < 5000; ++i) {
      customers.insert(
          {Value::integer(i), Value::string("c" + std::to_string(i))});
    }
    customers.create_index("customers_id", "id");

    Mediator::Options options;
    options.optimizer.enable_bind_join = true;
    options.exec.workers = workers;
    options.exec.latency_scale = 0.05;
    Mediator mediator(options);
    auto wrapper = std::make_shared<wrapper::MemDbWrapper>();
    wrapper->set_cost_model(wrapper::MemDbWrapper::CostModel{.enabled = true});
    wrapper->attach_database("r0", &orders_db);
    wrapper->attach_database("r1", &customers_db);
    mediator.register_wrapper("w0", std::move(wrapper));
    mediator.register_repository(
        catalog::Repository{"r0", "a", "db", "1.0.0.1"},
        net::LatencyModel{0.005, 0.0001, 0});
    mediator.register_repository(
        catalog::Repository{"r1", "b", "db", "1.0.0.2"},
        net::LatencyModel{0.005, 0.0001, 0});
    mediator.execute_odl(R"(
      interface Order { attribute Short cid; attribute String item; };
      interface Customer { attribute Short id; attribute String cname; };
      extent orders of Order wrapper w0 repository r0;
      extent customers of Customer wrapper w0 repository r1;
    )");

    QueryOptions deadline;
    deadline.deadline_s = 0.1;
    std::string text =
        "select struct(who: c.cname, what: o.item) "
        "from o in orders, c in customers where o.cid = c.id";
    Answer first = mediator.query(text, deadline);
    ASSERT_FALSE(first.complete());
    size_t rounds = 1;
    Answer answer = first;
    while (!answer.complete() && rounds < 4) {
      answer = mediator.query(answer.to_oql(), deadline);
      ++rounds;
    }
    EXPECT_TRUE(answer.complete()) << "still partial after " << rounds
                                   << " rounds";
    EXPECT_EQ(answer.data().size(), 3u);
  }
}

// -------------------------------------------------- sessions (stub runner) ---

QueryStats stub_stats() { return QueryStats{}; }

TEST(SessionTest, CompleteOnFirstRunPreservesShape) {
  session::ResubmissionManager manager(
      [](const std::string&, double) {
        return Answer::complete_answer(Value::integer(42), stub_stats());
      });
  session::QueryHandle handle = manager.submit("sum(select ...)");
  Answer answer = handle.wait();
  EXPECT_TRUE(answer.complete());
  EXPECT_EQ(answer.data(), Value::integer(42));  // scalar, not a bag
  EXPECT_EQ(handle.state(), session::SessionState::Complete);
  EXPECT_EQ(handle.resubmissions(), 0u);

  session::ResubmissionManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.resubmissions, 0u);
}

TEST(SessionTest, ResidualResubmittedUntilCompleteAndMerged) {
  // First run: one row plus a residual. The residual keeps failing until
  // `source_up` flips, then returns its row; the manager merges.
  std::atomic<bool> source_up{false};
  std::atomic<int> residual_runs{0};
  session::SessionOptions options;
  options.retry_interval_s = 0.002;
  session::ResubmissionManager manager(
      [&](const std::string& text, double) {
        if (text.find("residual_part") == std::string::npos) {
          return Answer::partial_answer(
              Value::bag({Value::string("Sam")}),
              {oql::parse("select x.name from x in residual_part")},
              stub_stats());
        }
        ++residual_runs;
        if (!source_up.load()) {
          return Answer::partial_answer(
              Value::bag({}),
              {oql::parse("select x.name from x in residual_part")},
              stub_stats());
        }
        return Answer::complete_answer(Value::bag({Value::string("Mary")}),
                                       stub_stats());
      },
      options);

  session::QueryHandle handle = manager.submit("select ...");
  // The partial result is visible while the residual keeps failing.
  ASSERT_TRUE([&] {
    for (int i = 0; i < 1000; ++i) {
      if (residual_runs.load() >= 2) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }());
  Answer partial = handle.snapshot();
  EXPECT_FALSE(partial.complete());
  EXPECT_EQ(partial.data(), Value::bag({Value::string("Sam")}));
  EXPECT_EQ(partial.residual_queries().size(), 1u);

  source_up = true;
  manager.notify_recovery();
  Answer full = handle.wait();
  EXPECT_TRUE(full.complete());
  EXPECT_EQ(full.data(),
            Value::bag({Value::string("Sam"), Value::string("Mary")}));
  EXPECT_GE(handle.resubmissions(), 2u);
  EXPECT_EQ(manager.pending(), 0u);
}

TEST(SessionTest, SnapshotBeforeFirstRunIsTheWholeQueryResidual) {
  std::mutex gate;
  gate.lock();  // hold the runner hostage so the initial run cannot finish
  session::ResubmissionManager manager([&](const std::string&, double) {
    std::lock_guard<std::mutex> wait(gate);
    return Answer::complete_answer(Value::bag({}), stub_stats());
  });
  session::QueryHandle handle = manager.submit("select x.a from x in e");
  Answer early = handle.snapshot();
  EXPECT_FALSE(early.complete());
  EXPECT_EQ(early.data().size(), 0u);
  ASSERT_EQ(early.residual_queries().size(), 1u);
  EXPECT_EQ(early.residual_queries()[0], "select x.a from x in e");
  gate.unlock();
  EXPECT_TRUE(handle.wait().complete());
}

TEST(SessionTest, RunnerFailureMarksTheSessionFailed) {
  session::ResubmissionManager manager(
      [](const std::string&, double) -> Answer {
        throw ExecutionError("source exploded");
      });
  session::QueryHandle handle = manager.submit("select ...");
  handle.wait_for(5.0);
  EXPECT_EQ(handle.state(), session::SessionState::Failed);
  EXPECT_NE(handle.error().find("source exploded"), std::string::npos);
  EXPECT_THROW(handle.wait(), ExecutionError);
  EXPECT_THROW(handle.snapshot(), ExecutionError);
  EXPECT_EQ(manager.stats().failed, 1u);
}

TEST(SessionTest, MaxResubmissionsGivesUp) {
  session::SessionOptions options;
  options.retry_interval_s = 0.001;
  options.max_resubmissions = 3;
  session::ResubmissionManager manager(
      [&](const std::string&, double) {
        return Answer::partial_answer(
            Value::bag({}), {oql::parse("select x.a from x in e")},
            stub_stats());
      },
      options);
  session::QueryHandle handle = manager.submit("select ...");
  ASSERT_TRUE(handle.wait_for(5.0));
  EXPECT_EQ(handle.state(), session::SessionState::Failed);
  EXPECT_NE(handle.error().find("gave up"), std::string::npos);
  EXPECT_EQ(handle.resubmissions(), 3u);
}

TEST(SessionTest, CancelStopsResubmission) {
  std::atomic<int> runs{0};
  session::SessionOptions options;
  options.retry_interval_s = 0.001;
  session::ResubmissionManager manager(
      [&](const std::string&, double) {
        ++runs;
        return Answer::partial_answer(
            Value::bag({}), {oql::parse("select x.a from x in e")},
            stub_stats());
      },
      options);
  session::QueryHandle handle = manager.submit("select ...");
  while (runs.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  handle.cancel();
  EXPECT_EQ(handle.state(), session::SessionState::Cancelled);
  EXPECT_THROW(handle.wait(), ExecutionError);
  // The worker notices the cancellation and drops the session.
  for (int i = 0; i < 1000 && manager.pending() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(manager.pending(), 0u);
}

TEST(SessionTest, CallbackFiresExactlyOnceWithTheFinalAnswer) {
  std::atomic<bool> up{false};
  session::SessionOptions options;
  options.retry_interval_s = 0.001;
  session::ResubmissionManager manager(
      [&](const std::string&, double) {
        if (!up.load()) {
          return Answer::partial_answer(
              Value::bag({}), {oql::parse("select x.a from x in e")},
              stub_stats());
        }
        return Answer::complete_answer(Value::bag({Value::integer(7)}),
                                       stub_stats());
      },
      options);
  session::QueryHandle handle = manager.submit("select ...");
  std::atomic<int> fired{0};
  Value seen;
  std::mutex seen_mutex;
  handle.on_complete([&](const Answer& answer) {
    std::lock_guard<std::mutex> lock(seen_mutex);
    seen = answer.data();
    ++fired;
  });
  up = true;
  manager.notify_recovery();
  handle.wait();
  for (int i = 0; i < 1000 && fired.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fired.load(), 1);
  {
    std::lock_guard<std::mutex> lock(seen_mutex);
    EXPECT_EQ(seen, Value::bag({Value::integer(7)}));
  }
  // Late registration on a complete session fires inline.
  std::atomic<int> late{0};
  handle.on_complete([&](const Answer&) { ++late; });
  EXPECT_EQ(late.load(), 1);
}

TEST(SessionTest, OnCompleteRegistrationRacesAreExactlyOnce) {
  // Many threads hammer on_complete() while the session completes
  // underneath them: every callback must fire exactly once, whether it
  // was stored before completion or fired inline after. TSan-sensitive.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::atomic<bool> up{false};
  session::SessionOptions options;
  options.retry_interval_s = 0.001;
  session::ResubmissionManager manager(
      [&](const std::string&, double) {
        if (!up.load()) {
          return Answer::partial_answer(
              Value::bag({}), {oql::parse("select x.a from x in e")},
              stub_stats());
        }
        return Answer::complete_answer(Value::bag({Value::integer(1)}),
                                       stub_stats());
      },
      options);
  session::QueryHandle handle = manager.submit("select ...");

  std::atomic<int> fired{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) {
        handle.on_complete([&fired](const Answer& answer) {
          ASSERT_TRUE(answer.complete());
          fired.fetch_add(1);
        });
      }
    });
  }
  go = true;
  up = true;  // completion races with the registrations above
  manager.notify_recovery();
  for (std::thread& t : threads) t.join();
  handle.wait();
  const int expected = kThreads * kPerThread;
  for (int i = 0; i < 2000 && fired.load() < expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fired.load(), expected);
}

TEST(SessionTest, OnProgressFiresPerPartialRunAndInlineForLateSubscribers) {
  std::atomic<bool> up{false};
  std::atomic<int> runs{0};
  session::SessionOptions options;
  options.retry_interval_s = 0.002;
  session::ResubmissionManager manager(
      [&](const std::string&, double) {
        ++runs;
        if (!up.load()) {
          return Answer::partial_answer(
              Value::bag({Value::string("Sam")}),
              {oql::parse("select x.a from x in e")}, stub_stats());
        }
        return Answer::complete_answer(Value::bag({Value::string("Sam")}),
                                       stub_stats());
      },
      options);
  session::QueryHandle handle = manager.submit("select ...");
  while (runs.load() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Late subscriber on a Pending session: fires inline with the current
  // partial snapshot, then again after every further partial run.
  std::atomic<int> progress{0};
  std::atomic<int> incomplete_snapshots{0};
  handle.on_progress([&](const Answer& answer) {
    progress.fetch_add(1);
    if (!answer.complete()) incomplete_snapshots.fetch_add(1);
  });
  EXPECT_GE(progress.load(), 1);  // the inline fire
  const int before = progress.load();
  for (int i = 0; i < 2000 && progress.load() == before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(progress.load(), before);  // a retry run reported progress
  EXPECT_GE(incomplete_snapshots.load(), 1);

  up = true;
  manager.notify_recovery();
  handle.wait();
  // Settled sessions drop progress callbacks; registering now is a no-op.
  const int settled_count = progress.load();
  handle.on_progress([&](const Answer&) { progress.fetch_add(1); });
  EXPECT_EQ(progress.load(), settled_count);
}

TEST(SessionTest, OnSettledFiresForEveryTerminalState) {
  // Complete.
  {
    session::ResubmissionManager manager([](const std::string&, double) {
      return Answer::complete_answer(Value::bag({}), stub_stats());
    });
    session::QueryHandle handle = manager.submit("select ...");
    handle.wait();
    std::atomic<int> fires{0};
    session::SessionState seen{};
    handle.on_settled([&](session::SessionState s) {
      seen = s;
      ++fires;
    });
    EXPECT_EQ(fires.load(), 1);  // inline: already settled
    EXPECT_EQ(seen, session::SessionState::Complete);
  }
  // Failed.
  {
    session::ResubmissionManager manager(
        [](const std::string&, double) -> Answer {
          throw ExecutionError("boom");
        });
    session::QueryHandle handle = manager.submit("select ...");
    std::atomic<int> fires{0};
    std::atomic<session::SessionState> seen{session::SessionState::Pending};
    handle.on_settled([&](session::SessionState s) {
      seen = s;
      ++fires;
    });
    handle.wait_for(5.0);
    for (int i = 0; i < 2000 && fires.load() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(fires.load(), 1);
    EXPECT_EQ(seen.load(), session::SessionState::Failed);
  }
  // Cancelled: fires on the cancelling thread.
  {
    session::SessionOptions options;
    options.retry_interval_s = 0.001;
    session::ResubmissionManager manager(
        [](const std::string&, double) {
          return Answer::partial_answer(
              Value::bag({}), {oql::parse("select x.a from x in e")},
              stub_stats());
        },
        options);
    session::QueryHandle handle = manager.submit("select ...");
    std::atomic<int> fires{0};
    std::atomic<session::SessionState> seen{session::SessionState::Pending};
    handle.on_settled([&](session::SessionState s) {
      seen = s;
      ++fires;
    });
    handle.cancel();
    EXPECT_EQ(fires.load(), 1);
    EXPECT_EQ(seen.load(), session::SessionState::Cancelled);
  }
}

TEST(SessionTest, MultiWorkerManagerOverlapsSubmissions) {
  // With two workers, two submits must be *inside the runner at the same
  // time* — the proof that server submits do not convoy. A barrier in
  // the runner deadlocks unless two runner invocations overlap.
  std::mutex mutex;
  std::condition_variable cv;
  int inside = 0;
  bool both_seen = false;
  session::SessionOptions options;
  options.workers = 2;
  session::ResubmissionManager manager(
      [&](const std::string&, double) {
        std::unique_lock<std::mutex> lock(mutex);
        ++inside;
        cv.notify_all();
        // Wait (bounded) until the other submission is in here too.
        both_seen |= cv.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return inside >= 2; });
        return Answer::complete_answer(Value::bag({}), stub_stats());
      },
      options);
  session::QueryHandle a = manager.submit("select a");
  session::QueryHandle b = manager.submit("select b");
  a.wait();
  b.wait();
  EXPECT_TRUE(both_seen);
  EXPECT_EQ(manager.stats().completed, 2u);
}

// ----------------------------------------------- admin/query concurrency ---

/// Wrapper that signals when a submit is in flight and blocks it until
/// released — makes "a query is running right now" a deterministic state.
class GateWrapper : public wrapper::Wrapper {
 public:
  explicit GateWrapper(std::shared_ptr<wrapper::Wrapper> inner)
      : inner_(std::move(inner)) {}

  grammar::Grammar capabilities() const override {
    return inner_->capabilities();
  }

  wrapper::SubmitResult submit(const catalog::Repository& repository,
                               const algebra::LogicalPtr& expr,
                               const wrapper::BindingMap& bindings) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      entered_ = true;
    }
    entered_cv_.notify_all();
    std::unique_lock<std::mutex> lock(mutex_);
    released_cv_.wait(lock, [this] { return released_; });
    return inner_->submit(repository, expr, bindings);
  }

  std::string kind() const override { return inner_->kind(); }

  void wait_for_entry() {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [this] { return entered_; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    released_cv_.notify_all();
  }

 private:
  std::shared_ptr<wrapper::Wrapper> inner_;
  std::mutex mutex_;
  std::condition_variable entered_cv_;
  std::condition_variable released_cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(AdminGuardTest, MidQueryRegistrationNeitherBlocksNorCorrupts) {
  memdb::Database db("db0");
  auto& table = db.create_table("person0",
                                {{"id", memdb::ColumnType::Int},
                                 {"name", memdb::ColumnType::Text},
                                 {"salary", memdb::ColumnType::Int}});
  table.insert(
      {Value::integer(1), Value::string("Mary"), Value::integer(200)});
  auto& table2 = db.create_table("person1",
                                 {{"id", memdb::ColumnType::Int},
                                  {"name", memdb::ColumnType::Text},
                                  {"salary", memdb::ColumnType::Int}});
  table2.insert(
      {Value::integer(2), Value::string("John"), Value::integer(100)});

  auto memdb_wrapper = std::make_shared<wrapper::MemDbWrapper>();
  memdb_wrapper->attach_database("r0", &db);
  auto gate = std::make_shared<GateWrapper>(std::move(memdb_wrapper));

  Mediator mediator;
  mediator.register_wrapper("w0", gate);
  mediator.register_repository(
      catalog::Repository{"r0", "rodin", "db", "123.45.6.7"},
      net::LatencyModel{0.010, 0.0001, 0});
  mediator.execute_odl(R"(
    interface Person (extent person) {
      attribute Long id;
      attribute String name;
      attribute Short salary; };
    extent person0 of Person wrapper w0 repository r0;
  )");
  const uint64_t epoch_before = mediator.catalog_epoch();

  // Query over the implicit extent `person`: its branch set is fixed at
  // planning time, from the epoch the query pinned.
  std::thread client([&] {
    Answer a = mediator.query("select x.name from x in person");
    EXPECT_TRUE(a.complete());
    // The mid-query registration below must NOT leak into this answer:
    // the query runs against the epoch it started in, where person0 is
    // the only extent of Person.
    EXPECT_EQ(a.data().items().size(), 1u);
  });
  gate->wait_for_entry();  // the query is now provably in flight

  // Registration while the query is blocked inside a source call: it
  // must complete without waiting for the query to finish (the gate is
  // still closed), publish a new epoch, and not corrupt the running
  // query's world.
  mediator.execute_odl(
      "extent person1 of Person wrapper w0 repository r0;");
  EXPECT_EQ(mediator.catalog_epoch(), epoch_before + 1);
  mediator.register_repository(
      catalog::Repository{"r9", "h", "db", "10.0.0.9"});
  mediator.register_wrapper("w9", std::make_shared<wrapper::MemDbWrapper>());
  EXPECT_EQ(mediator.catalog_epoch(), epoch_before + 3);

  gate->release();  // sticky: later submits pass straight through
  client.join();

  // A fresh query sees the new world: both extents of Person.
  Answer after = mediator.query("select x.name from x in person");
  ASSERT_TRUE(after.complete());
  EXPECT_EQ(after.data().items().size(), 2u);

  // Old epochs drain once their queries finish: only the current one
  // stays alive.
  EXPECT_EQ(mediator.live_epochs(), 1u);
  EXPECT_EQ(mediator.retired_epochs(), mediator.catalog_epoch());
}

// ------------------------------------------------------- metrics satellite ---

TEST(MetricsToStringTest, ReportsEveryField) {
  exec::Metrics metrics;
  metrics.on_dispatch();
  metrics.on_success(10, 0.25);
  metrics.on_wall(0.5);
  metrics.on_short_circuit();
  metrics.on_probe();
  std::string text = metrics.snapshot().to_string();
  for (const char* field :
       {"dispatched=1", "succeeded=1", "rows=10", "short_circuits=1",
        "probes=1", "sim_latency_s=0.25", "wall_s=0.5"}) {
    EXPECT_NE(text.find(field), std::string::npos) << field << " missing in "
                                                   << text;
  }
}

// --------------------------------- acceptance: partial now, complete later ---

Mediator::Options resilient_wall_options() {
  Mediator::Options options;
  options.exec.workers = 4;
  options.exec.latency_scale = 0.001;  // 10ms simulated -> 10us wall
  options.exec.call_deadline_s = 0.5;  // fail fast in simulated seconds
  options.health.enabled = true;
  options.health.failure_threshold = 2;
  // The health clock runs at 1/latency_scale x wall speed, so these are
  // big numbers in simulated seconds: the cooldown is ~2s of wall time
  // (long enough that the short-circuit phase below cannot slip a trial
  // call through), the probe sweep runs every ~20ms of wall time.
  options.health.open_cooldown_s = 2000.0;
  options.health.probe_interval_s = 20.0;
  options.health.probe_deadline_s = 1.0;
  // Effectively disable the periodic retry sweep: recovery must flow
  // through the advertised path (background probe closes the circuit,
  // the recovery notification resubmits the residual). A fast sweep
  // would race the prober and win by re-running the residual as the
  // half-open trial itself.
  options.session.retry_interval_s = 5.0;
  return options;
}

TEST(SessionAcceptanceTest, DarkSourceAnswersPartialThenCompletesItself) {
  PaperWorld world(resilient_wall_options());
  auto& net = world.mediator.network();
  net.set_availability("r0", net::Availability::always_down());
  const std::string query =
      "select x.name from x in person where x.salary > 10";
  const QueryOptions deadline{.deadline_s = 2.0};

  // Trip the breaker (2 failures), paying the retry cost only here.
  for (int i = 0; i < 2; ++i) {
    ASSERT_FALSE(world.mediator.query(query, deadline).complete());
  }
  ASSERT_EQ(world.mediator.health_tracker().state("r0"),
            session::CircuitState::Open);

  // Open circuit: a partial answer, instantly — r0 receives no call.
  const uint64_t calls_before = net.stats("r0").calls;
  Answer instant = world.mediator.query(query, deadline);
  ASSERT_FALSE(instant.complete());
  EXPECT_EQ(instant.data(), Value::bag({Value::string("Sam")}));
  EXPECT_GE(instant.stats().run.short_circuit_calls, 1u);
  EXPECT_EQ(net.stats("r0").calls, calls_before);

  // The async session sees the same partial answer and stays pending.
  session::QueryHandle handle = world.mediator.submit(query, deadline);
  ASSERT_FALSE(handle.wait_for(0.05));
  EXPECT_EQ(handle.state(), session::SessionState::Pending);
  Answer partial = handle.snapshot();
  EXPECT_FALSE(partial.complete());

  // The source recovers. The background prober closes the circuit and
  // the recovery notification resubmits the residual: the SAME handle
  // transitions to the complete, correct answer on its own.
  net.set_availability("r0", net::Availability::always_up());
  ASSERT_TRUE(handle.wait_for(30.0));
  Answer full = handle.wait();
  ASSERT_TRUE(full.complete());
  std::vector<std::string> rows;
  for (const Value& item : full.data().items()) {
    rows.push_back(item.to_oql());
  }
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, (std::vector<std::string>{"\"Mary\"", "\"Sam\""}));
  EXPECT_GE(handle.resubmissions(), 1u);
  EXPECT_EQ(world.mediator.health_tracker().state("r0"),
            session::CircuitState::Closed);
  EXPECT_GE(world.mediator.exec_metrics().probes, 1u);
  EXPECT_GE(world.mediator.session_stats().completed, 1u);
}

TEST(SessionAcceptanceTest, VirtualModeSessionsAlsoConverge) {
  // No thread pool, no prober: recovery rides on the half-open trial
  // admitted by the retry sweep itself (cooldown 0 in virtual time,
  // since the virtual clock only moves when queries run).
  Mediator::Options options = breaker_options();
  options.health.open_cooldown_s = 0.0;
  options.session.retry_interval_s = 0.002;
  PaperWorld world(options);
  auto& net = world.mediator.network();
  net.set_availability("r0", net::Availability::always_down());
  const std::string query = "select x.name from x in person";

  session::QueryHandle handle =
      world.mediator.submit(query, QueryOptions{.deadline_s = 0.1});
  ASSERT_FALSE(handle.wait_for(0.05));
  net.set_availability("r0", net::Availability::always_up());
  ASSERT_TRUE(handle.wait_for(30.0));
  Answer full = handle.wait();
  ASSERT_TRUE(full.complete());
  EXPECT_EQ(full.data().size(), 2u);
}

}  // namespace
}  // namespace disco
