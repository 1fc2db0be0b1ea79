// Tests for per-source admission control & fair scheduling (src/sched/):
// the token semaphore (in-flight never exceeds the limit, even under a
// 16-thread storm), the bounded fair queue (round-robin across query
// ids), load shedding (queue full / queueing deadline / drain), and the
// end-to-end §4 story — a shed call becomes a residual that completes
// later through the session layer's resubmission, exactly like any other
// residual. All under the `concurrency` ctest label (TSan build).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/disco.hpp"
#include "sched/scheduler.hpp"

namespace disco {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

sched::SchedOptions unit_options(size_t limit, size_t capacity = 64) {
  sched::SchedOptions options;
  options.enabled = true;
  options.per_endpoint_limit = limit;
  options.queue_capacity = capacity;
  return options;
}

// --------------------------------------------------- scheduler (unit) ---

TEST(QuerySchedulerTest, FastPathAdmitsUpToTheLimit) {
  sched::QueryScheduler scheduler(unit_options(2), /*latency_scale=*/1.0);
  sched::QueryScheduler::Admission a = scheduler.admit("r0", 1, kInf);
  sched::QueryScheduler::Admission b = scheduler.admit("r0", 2, kInf);
  EXPECT_TRUE(a.admitted);
  EXPECT_TRUE(b.admitted);
  EXPECT_EQ(scheduler.endpoint_stats("r0").in_flight, 2u);

  a.permit.release();
  EXPECT_EQ(scheduler.endpoint_stats("r0").in_flight, 1u);
  // release() is idempotent; the RAII destructor will not double-free.
  a.permit.release();
  EXPECT_EQ(scheduler.endpoint_stats("r0").in_flight, 1u);

  sched::EndpointSchedStats stats = scheduler.endpoint_stats("r0");
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.queued_calls, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.max_in_flight, 2u);
}

TEST(QuerySchedulerTest, PermitReleasesOnScopeExit) {
  sched::QueryScheduler scheduler(unit_options(1), 1.0);
  {
    sched::QueryScheduler::Admission a = scheduler.admit("r0", 1, kInf);
    EXPECT_TRUE(a.admitted);
    EXPECT_EQ(scheduler.endpoint_stats("r0").in_flight, 1u);
  }
  EXPECT_EQ(scheduler.endpoint_stats("r0").in_flight, 0u);
}

TEST(QuerySchedulerTest, LimitsAreValidatedAndOverridablePerEndpoint) {
  EXPECT_THROW(sched::QueryScheduler(unit_options(0), 1.0), InternalError);
  EXPECT_THROW(sched::QueryScheduler(unit_options(1), 0.0), InternalError);

  sched::SchedOptions options = unit_options(4);
  options.limits["fragile"] = 1;
  sched::QueryScheduler scheduler(options, 1.0);
  EXPECT_EQ(scheduler.limit("fragile"), 1u);
  EXPECT_EQ(scheduler.limit("sturdy"), 4u);
  EXPECT_EQ(scheduler.endpoint_stats("fragile").limit, 1u);
}

TEST(QuerySchedulerTest, QueueFullShedsImmediately) {
  sched::QueryScheduler scheduler(unit_options(1, /*capacity=*/0), 1.0);
  sched::QueryScheduler::Admission held = scheduler.admit("r0", 1, kInf);
  ASSERT_TRUE(held.admitted);

  // The only token is taken and the queue holds nobody: shed, without
  // blocking.
  sched::QueryScheduler::Admission refused = scheduler.admit("r0", 2, kInf);
  EXPECT_FALSE(refused.admitted);
  EXPECT_EQ(refused.shed_reason,
            sched::QueryScheduler::ShedReason::QueueFull);

  sched::EndpointSchedStats stats = scheduler.endpoint_stats("r0");
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.shed_queue_full, 1u);
  EXPECT_EQ(stats.max_in_flight, 1u);
}

TEST(QuerySchedulerTest, QueueingDeadlineShedsAfterTheWait) {
  // latency_scale=1: simulated seconds are wall seconds. A 50ms queueing
  // deadline against a token that never frees sheds after ~50ms.
  sched::SchedOptions options = unit_options(1);
  options.queue_deadline_s = 0.05;
  sched::QueryScheduler scheduler(options, /*latency_scale=*/1.0);
  sched::QueryScheduler::Admission held = scheduler.admit("r0", 1, kInf);
  ASSERT_TRUE(held.admitted);

  sched::QueryScheduler::Admission waited = scheduler.admit("r0", 2, kInf);
  EXPECT_FALSE(waited.admitted);
  EXPECT_EQ(waited.shed_reason, sched::QueryScheduler::ShedReason::Deadline);
  EXPECT_GE(waited.queued_s, 0.05);
  EXPECT_LT(waited.queued_s, 5.0);  // sanity: it did not hang

  sched::EndpointSchedStats stats = scheduler.endpoint_stats("r0");
  EXPECT_EQ(stats.shed_deadline, 1u);
  EXPECT_EQ(stats.queued_calls, 1u);
  EXPECT_GE(stats.queue_wait_s, 0.05);
}

TEST(QuerySchedulerTest, CallDeadlineCapsTheQueueWaitToo) {
  // No explicit queue deadline, but the *call's* remaining deadline is
  // 50ms: the wait is capped by min(queue_deadline, call deadline).
  sched::QueryScheduler scheduler(unit_options(1), 1.0);
  sched::QueryScheduler::Admission held = scheduler.admit("r0", 1, kInf);
  ASSERT_TRUE(held.admitted);
  sched::QueryScheduler::Admission waited =
      scheduler.admit("r0", 2, /*deadline_s=*/0.05);
  EXPECT_FALSE(waited.admitted);
  EXPECT_EQ(waited.shed_reason, sched::QueryScheduler::ShedReason::Deadline);
}

TEST(QuerySchedulerTest, ReleasedTokenGoesToAQueuedWaiter) {
  sched::QueryScheduler scheduler(unit_options(1), 1.0);
  sched::QueryScheduler::Admission held = scheduler.admit("r0", 1, kInf);
  ASSERT_TRUE(held.admitted);

  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    sched::QueryScheduler::Admission a = scheduler.admit("r0", 2, kInf);
    if (a.admitted) granted.store(true);
  });
  while (scheduler.endpoint_stats("r0").queued == 0) std::this_thread::yield();

  EXPECT_FALSE(granted.load());
  held.permit.release();
  waiter.join();
  EXPECT_TRUE(granted.load());
  sched::EndpointSchedStats stats = scheduler.endpoint_stats("r0");
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.queued_calls, 1u);
  EXPECT_EQ(stats.max_in_flight, 1u);  // token transfer, never 2 at once
}

TEST(QuerySchedulerTest, DequeueIsRoundRobinAcrossQueryIds) {
  // Arrival order A, A, B, A (limit=1, token held). Fair dequeue grants
  // A, B, A, A — query B's single call is served second, not last, no
  // matter how many of A's calls arrived first.
  sched::QueryScheduler scheduler(unit_options(1), 1.0);
  sched::QueryScheduler::Admission held = scheduler.admit("r0", 99, kInf);
  ASSERT_TRUE(held.admitted);

  std::mutex order_mutex;
  std::vector<uint64_t> grant_order;
  std::vector<std::thread> waiters;
  auto spawn = [&](uint64_t query_id) {
    const size_t queued_before = scheduler.endpoint_stats("r0").queued;
    waiters.emplace_back([&, query_id] {
      sched::QueryScheduler::Admission a =
          scheduler.admit("r0", query_id, kInf);
      ASSERT_TRUE(a.admitted);
      {
        std::lock_guard<std::mutex> lock(order_mutex);
        grant_order.push_back(query_id);
      }
      // Implicit release at scope exit hands the token onward.
    });
    // Arrival order must be deterministic: wait until this waiter is
    // actually enqueued before spawning the next.
    while (scheduler.endpoint_stats("r0").queued == queued_before) {
      std::this_thread::yield();
    }
  };
  spawn(1);  // A
  spawn(1);  // A
  spawn(2);  // B
  spawn(1);  // A

  held.permit.release();
  for (std::thread& t : waiters) t.join();

  EXPECT_EQ(grant_order, (std::vector<uint64_t>{1, 2, 1, 1}));
  EXPECT_EQ(scheduler.endpoint_stats("r0").in_flight, 0u);
}

TEST(QuerySchedulerTest, DrainShedsEveryQueuedWaiter) {
  sched::QueryScheduler scheduler(unit_options(1), 1.0);
  sched::QueryScheduler::Admission held = scheduler.admit("r0", 1, kInf);
  ASSERT_TRUE(held.admitted);

  std::atomic<size_t> drained{0};
  std::vector<std::thread> waiters;
  for (uint64_t q = 2; q <= 3; ++q) {
    waiters.emplace_back([&, q] {
      sched::QueryScheduler::Admission a = scheduler.admit("r0", q, kInf);
      if (!a.admitted &&
          a.shed_reason == sched::QueryScheduler::ShedReason::Drained) {
        drained.fetch_add(1);
      }
    });
  }
  while (scheduler.endpoint_stats("r0").queued < 2) std::this_thread::yield();

  scheduler.drain("r0");  // what the circuit-open listener does
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(drained.load(), 2u);

  sched::EndpointSchedStats stats = scheduler.endpoint_stats("r0");
  EXPECT_EQ(stats.shed_drained, 2u);
  EXPECT_EQ(stats.queued, 0u);
  // The held token is untouched (its call was already in flight), and
  // the endpoint keeps serving once it frees.
  held.permit.release();
  EXPECT_TRUE(scheduler.admit("r0", 4, kInf).admitted);
  // Draining an endpoint nobody ever used is a no-op, not an error.
  scheduler.drain("never_seen");
}

TEST(QuerySchedulerTest, RaisingTheLimitGrantsWaitersImmediately) {
  sched::QueryScheduler scheduler(unit_options(1), 1.0);
  sched::QueryScheduler::Admission held = scheduler.admit("r0", 1, kInf);
  ASSERT_TRUE(held.admitted);

  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    sched::QueryScheduler::Admission a = scheduler.admit("r0", 2, kInf);
    if (a.admitted) granted.store(true);
  });
  while (scheduler.endpoint_stats("r0").queued == 0) std::this_thread::yield();

  scheduler.set_limit("r0", 2);  // no release needed
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(scheduler.limit("r0"), 2u);
}

TEST(QuerySchedulerStormTest, InFlightNeverExceedsTheLimitUnderStorm) {
  // 16 threads hammer 2 endpoints with limit=2 each. An independent
  // per-endpoint gauge (maintained by the callers themselves) must never
  // observe more than 2 calls inside the token at once, and with an
  // ample queue nothing is shed.
  const size_t kThreads = 16;
  const size_t kCallsPerThread = 25;
  sched::QueryScheduler scheduler(unit_options(2, /*capacity=*/64),
                                  /*latency_scale=*/1.0);

  struct Gauge {
    std::atomic<size_t> in_flight{0};
    std::atomic<size_t> max_in_flight{0};
  };
  Gauge gauges[2];
  const std::string endpoints[2] = {"r0", "r1"};

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t c = 0; c < kCallsPerThread; ++c) {
        const size_t e = (t + c) % 2;
        sched::QueryScheduler::Admission a =
            scheduler.admit(endpoints[e], /*query_id=*/t + 1, kInf);
        ASSERT_TRUE(a.admitted);
        const size_t now = gauges[e].in_flight.fetch_add(1) + 1;
        size_t seen = gauges[e].max_in_flight.load();
        while (seen < now &&
               !gauges[e].max_in_flight.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        gauges[e].in_flight.fetch_sub(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (size_t e = 0; e < 2; ++e) {
    EXPECT_LE(gauges[e].max_in_flight.load(), 2u) << endpoints[e];
    sched::EndpointSchedStats stats = scheduler.endpoint_stats(endpoints[e]);
    EXPECT_LE(stats.max_in_flight, 2u);
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_EQ(stats.in_flight, 0u);
    EXPECT_EQ(stats.queued, 0u);
    EXPECT_EQ(stats.admitted, kThreads * kCallsPerThread / 2);
  }
}

// ------------------------------------------- federation (mediator level) ---

/// A federation whose extents are spread across a few repositories: with
/// `extents_per_repo` > 1, one query fans several source calls at the
/// same endpoint — the contention the scheduler exists to bound.
struct SchedFederation {
  SchedFederation(size_t repos, size_t extents_per_repo,
                  Mediator::Options options) {
    mediator = std::make_unique<Mediator>(options);
    auto wrapper = std::make_shared<wrapper::MemDbWrapper>();
    std::string odl = R"(
      interface Person (extent person) {
        attribute Long id;
        attribute String name;
        attribute Short salary; };
    )";
    size_t extent = 0;
    for (size_t r = 0; r < repos; ++r) {
      const std::string rn = std::to_string(r);
      dbs.push_back(std::make_unique<memdb::Database>("db" + rn));
      mediator->register_repository(
          catalog::Repository{"r" + rn, "host" + rn, "db", "10.0.0." + rn},
          net::LatencyModel{0.005, 0.0001, 0});
      for (size_t e = 0; e < extents_per_repo; ++e, ++extent) {
        const std::string en = std::to_string(extent);
        auto& table = dbs.back()->create_table(
            "person" + en, {{"id", memdb::ColumnType::Int},
                            {"name", memdb::ColumnType::Text},
                            {"salary", memdb::ColumnType::Int}});
        table.insert({Value::integer(static_cast<int64_t>(extent)),
                      Value::string("p" + en),
                      Value::integer(static_cast<int64_t>(10 * extent))});
        odl += "extent person" + en + " of Person wrapper w0 repository r" +
               rn + ";\n";
      }
      wrapper->attach_database("r" + rn, dbs.back().get());
    }
    mediator->register_wrapper("w0", std::move(wrapper));
    mediator->execute_odl(odl);
  }

  std::vector<std::unique_ptr<memdb::Database>> dbs;
  std::unique_ptr<Mediator> mediator;
};

Mediator::Options sched_options(size_t workers, size_t limit,
                                size_t capacity = 256) {
  Mediator::Options options;
  options.exec.workers = workers;
  options.exec.latency_scale = 0.01;  // 5ms simulated -> 50us wall
  options.sched.enabled = true;
  options.sched.per_endpoint_limit = limit;
  options.sched.queue_capacity = capacity;
  return options;
}

TEST(MediatorSchedTest, DisabledByDefaultAndInVirtualTimeMode) {
  Mediator::Options wall = sched_options(2, 2);
  wall.sched.enabled = false;
  SchedFederation off(1, 1, wall);
  EXPECT_EQ(off.mediator->scheduler(), nullptr);
  EXPECT_EQ(off.mediator->sched_stats().admitted, 0u);

  Mediator::Options virtual_time = sched_options(0, 2);
  SchedFederation virt(1, 1, virtual_time);
  EXPECT_EQ(virt.mediator->scheduler(), nullptr);  // workers == 0
  Answer a = virt.mediator->query("select x.name from x in person");
  EXPECT_TRUE(a.complete());
}

TEST(MediatorSchedTest, DefaultLimitIsFourWhateverTheWorkerCount) {
  // A call waiting for its reply holds no worker, so the per-source limit
  // does not follow exec.workers.
  for (size_t workers : {size_t{1}, size_t{8}}) {
    Mediator::Options options;
    options.exec.workers = workers;
    options.exec.latency_scale = 0.01;
    options.sched.enabled = true;
    SchedFederation federation(1, 1, options);
    ASSERT_TRUE(
        federation.mediator->query("select x.name from x in person")
            .complete());
    EXPECT_EQ(federation.mediator->sched_stats("r0").limit, 4u) << workers;
  }
}

TEST(MediatorSchedTest, AdmitsEveryCallWhenUncontended) {
  SchedFederation federation(2, 2, sched_options(4, 2));
  Answer answer =
      federation.mediator->query("select x.name from x in person");
  ASSERT_TRUE(answer.complete());
  EXPECT_EQ(answer.data().items().size(), 4u);
  EXPECT_EQ(answer.stats().run.shed_calls, 0u);

  sched::SchedStats stats = federation.mediator->sched_stats();
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(federation.mediator->sched_stats("r0").admitted, 2u);
  EXPECT_EQ(federation.mediator->sched_stats("r1").admitted, 2u);
}

TEST(MediatorSchedStormTest, SixteenClientsTwoEndpointsLimitTwo) {
  // The acceptance storm: 16 client threads, 2 endpoints, limit=2. The
  // scheduler's own high-water mark must respect the limit while every
  // query still completes (ample queue, no deadline).
  const size_t kThreads = 16;
  const size_t kQueriesPerThread = 4;
  Mediator::Options options = sched_options(8, 2);
  SchedFederation federation(2, 4, options);  // 8 calls/query, 4 per repo

  std::atomic<size_t> complete{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (size_t q = 0; q < kQueriesPerThread; ++q) {
        Answer answer =
            federation.mediator->query("select x.name from x in person");
        if (answer.complete()) complete.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(complete.load(), kThreads * kQueriesPerThread);

  const size_t total_calls = kThreads * kQueriesPerThread * 8;
  for (const std::string& repo : {std::string("r0"), std::string("r1")}) {
    sched::EndpointSchedStats stats = federation.mediator->sched_stats(repo);
    EXPECT_LE(stats.max_in_flight, 2u) << repo;
    EXPECT_EQ(stats.shed, 0u) << repo;
    EXPECT_EQ(stats.admitted, total_calls / 2) << repo;
    EXPECT_EQ(stats.in_flight, 0u) << repo;
  }
  // With 8 workers funneling into 2 tokens per endpoint, some calls must
  // have queued — and the queue gauges flowed into exec::Metrics.
  exec::MetricsSnapshot m = federation.mediator->exec_metrics();
  EXPECT_EQ(m.shed, 0u);
  EXPECT_EQ(federation.mediator->sched_stats().queued_calls, m.queued);
}

TEST(MediatorSchedTest, ShedCallsCompleteLaterViaResidualResubmission) {
  // The §4 round trip, deterministically: one repository, its only token
  // held by the test, queue capacity 0 — every source call of the
  // submitted query sheds into a residual, so the first pass yields a
  // partial answer with zero rows. Releasing the token lets the session
  // worker's resubmission complete the same handle, exactly like any
  // other residual.
  Mediator::Options options = sched_options(4, /*limit=*/1, /*capacity=*/0);
  SchedFederation federation(1, 4, options);
  Mediator& mediator = *federation.mediator;

  sched::QueryScheduler::Admission held =
      mediator.scheduler()->admit("r0", /*query_id=*/9999, kInf);
  ASSERT_TRUE(held.admitted);

  session::QueryHandle handle =
      mediator.submit("select x.name from x in person");
  // The first execution pass must shed all 4 calls (the token is ours).
  while (mediator.exec_metrics().shed < 4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(handle.complete());
  Answer partial = handle.snapshot();
  EXPECT_FALSE(partial.complete());
  EXPECT_TRUE(partial.data().items().empty());

  // Free the endpoint: the periodic resubmission sweep re-runs the
  // residuals and the handle completes itself.
  held.permit.release();
  Answer full = handle.wait();
  EXPECT_TRUE(full.complete());
  EXPECT_EQ(full.data().items().size(), 4u);
  EXPECT_GE(mediator.session_stats().resubmissions, 1u);
  EXPECT_GE(mediator.sched_stats("r0").shed_queue_full, 4u);
  EXPECT_EQ(mediator.exec_metrics().shed,
            mediator.sched_stats("r0").shed);
}

TEST(MediatorSchedTest, ShedCallsAreCountedInRunStats) {
  // Synchronous flavor of the round trip: query() (not submit) against a
  // fully-occupied endpoint returns a partial answer whose RunStats
  // report the shed calls; a plain retry once the token frees completes.
  Mediator::Options options = sched_options(4, 1, /*capacity=*/0);
  SchedFederation federation(1, 4, options);
  Mediator& mediator = *federation.mediator;

  sched::QueryScheduler::Admission held =
      mediator.scheduler()->admit("r0", 9999, kInf);
  ASSERT_TRUE(held.admitted);
  Answer partial = mediator.query("select x.name from x in person");
  EXPECT_FALSE(partial.complete());
  EXPECT_EQ(partial.stats().run.shed_calls, 4u);
  EXPECT_EQ(partial.stats().run.unavailable_calls, 4u);
  EXPECT_EQ(partial.residuals().size(), 4u);

  // With capacity 0 and limit 1, even an idle endpoint admits only one
  // of the query's 4 concurrent calls per pass (that IS the shedding
  // contract). Raise the limit at run time so the retry admits them all.
  held.permit.release();
  mediator.scheduler()->set_limit("r0", 4);
  Answer complete = mediator.query("select x.name from x in person");
  EXPECT_TRUE(complete.complete());
  EXPECT_EQ(complete.stats().run.shed_calls, 0u);
  EXPECT_EQ(complete.data().items().size(), 4u);
}

}  // namespace
}  // namespace disco
