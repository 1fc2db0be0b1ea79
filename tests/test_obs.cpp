// The query tracing & observability layer (src/obs/): span trees,
// Chrome-trace JSON, the counter/histogram registry, the mediator's
// explain surface, and the explain-vs-execution differential property.
//
// The thread-storm cases run under the `concurrency` ctest label (TSan
// build included); everything here also carries the `obs` label.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/disco.hpp"
#include "fixtures.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "obs/tracer.hpp"
#include "oql/parser.hpp"
#include "sources/csv/csv_source.hpp"
#include "sources/kvstore/kv_store.hpp"

namespace disco {
namespace {

using testing::PaperWorld;

Mediator::Options traced_options() {
  Mediator::Options options;
  options.obs.enabled = true;
  return options;
}

// ------------------------------------------------------------- trace core ---

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("a\nb\tc\r"), "a\\nb\\tc\\r");
  EXPECT_EQ(obs::json_escape(std::string("x\x01y", 3)), "x\\u0001y");
}

TEST(TraceTest, SpanTreeParentsTagsAndLookup) {
  obs::Trace trace("select 1");
  const uint64_t root = trace.begin(0, "query", "mediator");
  const uint64_t child = trace.begin(root, "optimize", "optimizer");
  trace.tag(child, "plans", uint64_t{4});
  trace.tag(child, "net_s", 0.25);
  trace.tag(child, "text", "hello");
  const uint64_t point = trace.instant(child, "candidate", "optimizer");
  trace.end(child);
  trace.end(root);

  std::vector<obs::Span> spans = trace.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[2].parent, child);
  EXPECT_EQ(spans[2].id, point);
  EXPECT_TRUE(spans[2].instant);
  EXPECT_EQ(spans[1].tag("plans"), "4");
  EXPECT_EQ(spans[1].tag("net_s"), "0.25");
  EXPECT_EQ(spans[1].tag("text"), "hello");
  EXPECT_FALSE(spans[1].has_tag("missing"));
  EXPECT_EQ(spans[1].tag("missing"), "");
  EXPECT_GE(spans[1].duration_s(), 0.0);

  obs::Span found;
  ASSERT_TRUE(trace.find_span("optimize", &found));
  EXPECT_EQ(found.id, child);
  EXPECT_FALSE(trace.find_span("nope", nullptr));
  EXPECT_EQ(trace.spans_named("candidate").size(), 1u);
}

TEST(TraceTest, EndIsIdempotentAndIgnoresBadIds) {
  obs::Trace trace("q");
  const uint64_t id = trace.begin(0, "a", "c");
  trace.end(id);
  const double first_end = trace.spans()[0].end_s;
  trace.end(id);           // double close: ignored
  trace.end(0);            // null id: ignored
  trace.end(999);          // unknown id: ignored
  trace.tag(999, "k", "v");  // unknown id: ignored
  EXPECT_EQ(trace.spans()[0].end_s, first_end);
  EXPECT_EQ(trace.spans().size(), 1u);
}

TEST(ScopedSpanTest, RaiiMoveAndIdempotentFinish) {
  obs::Trace trace("q");
  obs::ObsContext root{&trace, 0};
  {
    obs::ScopedSpan a(root, "outer", "test");
    ASSERT_TRUE(static_cast<bool>(a));
    a.tag("k", "v");
    obs::ScopedSpan b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(static_cast<bool>(b));
    b.finish();
    b.finish();  // idempotent
  }
  std::vector<obs::Span> spans = trace.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GE(spans[0].end_s, 0.0);
  EXPECT_EQ(spans[0].tag("k"), "v");

  // A disabled context records nothing and costs one branch.
  obs::ScopedSpan off(obs::ObsContext{}, "ghost", "test");
  EXPECT_FALSE(static_cast<bool>(off));
  off.tag("ignored", uint64_t{1});
  EXPECT_EQ(trace.spans().size(), 1u);
}

// Minimal structural validator for Chrome trace JSON: every B has an E,
// instants are "i" with scope "t", and timestamps are non-decreasing in
// emission order (chrome://tracing requirement).
struct ChromeTraceShape {
  size_t begins = 0;
  size_t ends = 0;
  size_t instants = 0;
  bool monotone = true;
};

ChromeTraceShape chrome_shape(const std::string& json) {
  ChromeTraceShape shape;
  double last_ts = -1;
  size_t at = 0;
  while ((at = json.find("\"ph\":\"", at)) != std::string::npos) {
    const char phase = json[at + 6];
    if (phase == 'B') ++shape.begins;
    if (phase == 'E') ++shape.ends;
    if (phase == 'i') ++shape.instants;
    const size_t ts_at = json.find("\"ts\":", at);
    if (ts_at != std::string::npos) {
      const double ts = std::strtod(json.c_str() + ts_at + 5, nullptr);
      if (ts < last_ts) shape.monotone = false;
      last_ts = ts;
    }
    ++at;
  }
  return shape;
}

TEST(TraceTest, ChromeJsonIsPairedAndMonotone) {
  obs::Trace trace("select \"q\"");
  const uint64_t root = trace.begin(0, "query", "mediator");
  const uint64_t child = trace.begin(root, "exec", "exec");
  trace.tag(child, "repository", "r0");
  trace.instant(child, "retry", "exec");
  trace.end(child);
  trace.end(root);

  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("select \\\"q\\\""), std::string::npos);  // escaped
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);       // instant scope
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);

  const ChromeTraceShape shape = chrome_shape(json);
  EXPECT_EQ(shape.begins, 2u);
  EXPECT_EQ(shape.ends, 2u);
  EXPECT_EQ(shape.instants, 1u);
  EXPECT_TRUE(shape.monotone);
}

TEST(TraceTest, CompactJsonNestsChildren) {
  obs::Trace trace("q");
  const uint64_t root = trace.begin(0, "query", "mediator");
  const uint64_t child = trace.begin(root, "execute", "mediator");
  trace.begin(child, "exec", "exec");
  const std::string json = trace.to_compact_json();
  // query > execute > exec, in nesting order.
  const size_t q = json.find("\"name\":\"query\"");
  const size_t e = json.find("\"name\":\"execute\"");
  const size_t x = json.find("\"name\":\"exec\"");
  ASSERT_NE(q, std::string::npos);
  ASSERT_NE(e, std::string::npos);
  ASSERT_NE(x, std::string::npos);
  EXPECT_LT(q, e);
  EXPECT_LT(e, x);
  EXPECT_NE(json.find("\"children\":["), std::string::npos);
}

TEST(TraceTest, SpanEndedOnAnotherThreadIsAnAsyncPair) {
  // A wall-clock exec span begins on a pool worker and ends on the
  // dispatcher's timer thread, so it can overlap spans begun after it on
  // the worker's lane. B/E pairs must nest per lane; such a span is
  // written as an async b/e pair that carries its id.
  obs::Trace trace("q");
  const uint64_t crossing = trace.begin(0, "exec", "exec");
  const uint64_t local = trace.begin(0, "exec", "exec");
  std::thread lander([&] { trace.end(crossing); });
  lander.join();
  trace.end(local);

  const std::string json = trace.to_json();
  const ChromeTraceShape shape = chrome_shape(json);
  EXPECT_EQ(shape.begins, 1u);
  EXPECT_EQ(shape.ends, 1u);
  EXPECT_TRUE(shape.monotone);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  size_t ids = 0;
  const std::string id = "\"id\":" + std::to_string(crossing);
  for (size_t at = json.find(id); at != std::string::npos;
       at = json.find(id, at + 1)) {
    ++ids;
  }
  EXPECT_EQ(ids, 2u);
  EXPECT_EQ(json.find("\"id\":" + std::to_string(local)), std::string::npos);
}

TEST(TraceTest, ThreadsGetDenseLaneIndices) {
  obs::Trace trace("q");
  trace.begin(0, "main", "test");
  std::thread other([&] { trace.begin(0, "worker", "test"); });
  other.join();
  std::vector<obs::Span> spans = trace.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].tid, 1u);
  EXPECT_EQ(spans[1].tid, 2u);
}

// --------------------------------------------------- registry instruments ---

TEST(RegistryTest, CounterAndHistogramBasics) {
  obs::Registry registry;
  obs::Counter& c = registry.counter("test.count");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(&registry.counter("test.count"), &c);  // get-or-create

  obs::Histogram& h = registry.histogram("test.seconds");
  h.observe(0.001);
  h.observe(0.010);
  h.observe(0.100);
  obs::Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_NEAR(s.sum, 0.111, 1e-3);
  EXPECT_NEAR(s.min, 0.001, 1e-4);
  EXPECT_NEAR(s.max, 0.100, 1e-3);
  EXPECT_NEAR(s.mean(), 0.037, 1e-3);
  // Quantiles are bucket upper bounds: ordered and bracketing.
  EXPECT_LE(s.quantile(0.0), s.quantile(0.5));
  EXPECT_LE(s.quantile(0.5), s.quantile(1.0));
  EXPECT_GE(s.quantile(1.0), 0.100);

  // Bucket bounds grow monotonically (log scale).
  for (size_t i = 1; i < obs::Histogram::kBuckets; ++i) {
    EXPECT_LT(obs::Histogram::bucket_bound(i - 1),
              obs::Histogram::bucket_bound(i));
  }

  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST(RegistryTest, SnapshotRendersNamesAndValues) {
  obs::Registry registry;
  registry.counter("a.count").add(7);
  registry.histogram("b.seconds").observe(0.5);
  obs::RegistrySnapshot snap = registry.snapshot();
  EXPECT_TRUE(snap.has("a.count"));
  EXPECT_TRUE(snap.has("b.seconds"));
  EXPECT_FALSE(snap.has("c.missing"));
  EXPECT_EQ(snap.counter("a.count"), 7u);
  EXPECT_EQ(snap.counter("c.missing"), 0u);
  EXPECT_NE(snap.to_string().find("a.count"), std::string::npos);
  EXPECT_NE(snap.to_json().find("\"b.seconds\""), std::string::npos);
}

// ------------------------------------------------------ mediator tracing ---

TEST(MediatorObs, DisabledByDefault) {
  PaperWorld world;
  EXPECT_EQ(world.mediator.tracer(), nullptr);
  Answer a = world.mediator.query("select x.name from x in person");
  ASSERT_TRUE(a.complete());
  EXPECT_EQ(a.stats().trace, nullptr);
  EXPECT_EQ(world.mediator.last_trace(), nullptr);
}

TEST(MediatorObs, QueryTraceTreeForThreeSourceJoin) {
  PaperWorld world(traced_options());
  // Third source so the join plan dispatches three execs.
  memdb::Database db2("db2");
  auto& p2 = db2.create_table("person2", {{"id", memdb::ColumnType::Int},
                                          {"name", memdb::ColumnType::Text},
                                          {"salary", memdb::ColumnType::Int}});
  p2.insert({Value::integer(1), Value::string("Ana"), Value::integer(90)});
  world.wrapper0->attach_database("r2", &db2);
  world.mediator.register_repository(
      catalog::Repository{"r2", "h2", "db", "123.45.6.9"},
      net::LatencyModel{0.015, 0.0001, 0});
  world.mediator.execute_odl(
      "extent person2 of Person wrapper w0 repository r2;");

  Answer a = world.mediator.query(
      "select struct(a: x.name, b: y.name, c: z.name) from x in person0, "
      "y in person1, z in person2 where x.id = y.id and y.id = z.id");
  ASSERT_TRUE(a.complete());
  std::shared_ptr<const obs::Trace> trace = world.mediator.last_trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(a.stats().trace, trace);

  obs::Span root;
  ASSERT_TRUE(trace->find_span("query", &root));
  EXPECT_EQ(root.parent, 0u);
  EXPECT_EQ(root.tag("outcome"), "complete");
  EXPECT_GE(root.end_s, 0.0);

  // The pipeline stages hang off the root.
  for (const char* stage : {"parse", "optimize", "execute"}) {
    obs::Span span;
    ASSERT_TRUE(trace->find_span(stage, &span)) << stage;
    EXPECT_EQ(span.parent, root.id) << stage;
    EXPECT_GE(span.end_s, span.start_s) << stage;
  }

  // One exec span per source, under the execute span, repository-tagged.
  obs::Span execute;
  ASSERT_TRUE(trace->find_span("execute", &execute));
  std::vector<obs::Span> execs = trace->spans_named("exec");
  ASSERT_EQ(execs.size(), 3u);
  std::vector<std::string> repos;
  for (const obs::Span& e : execs) {
    EXPECT_EQ(e.parent, execute.id);
    EXPECT_EQ(e.tag("outcome"), "ok");
    repos.push_back(e.tag("repository"));
  }
  std::sort(repos.begin(), repos.end());
  EXPECT_EQ(repos, (std::vector<std::string>{"r0", "r1", "r2"}));

  // The whole thing renders as loadable Chrome trace JSON.
  const ChromeTraceShape shape = chrome_shape(trace->to_json());
  EXPECT_EQ(shape.begins, shape.ends);
  EXPECT_TRUE(shape.monotone);
  EXPECT_GE(shape.begins, 6u);  // query, parse, optimize, execute, 3x exec
}

TEST(MediatorObs, ExecSpanCarriesCallDetail) {
  PaperWorld world(traced_options());
  world.mediator.query("select x.name from x in person0");
  std::shared_ptr<const obs::Trace> trace = world.mediator.last_trace();
  ASSERT_NE(trace, nullptr);
  std::vector<obs::Span> execs = trace->spans_named("exec");
  ASSERT_EQ(execs.size(), 1u);
  const obs::Span& e = execs[0];
  EXPECT_EQ(e.category, "exec");
  EXPECT_EQ(e.tag("repository"), "r0");
  EXPECT_EQ(e.tag("wrapper"), "w0");
  EXPECT_NE(e.tag("remote").find("person0"), std::string::npos);
  EXPECT_EQ(e.tag("attempts"), "1");
  EXPECT_EQ(e.tag("rows"), "1");
  EXPECT_TRUE(e.has_tag("sim_latency_s"));
  EXPECT_EQ(e.tag("outcome"), "ok");
}

TEST(MediatorObs, PartialAnswerTraceAndCounters) {
  auto registry = std::make_unique<obs::Registry>();
  Mediator::Options options = traced_options();
  options.obs.registry = registry.get();  // test-local sink, not the global
  PaperWorld world(options);
  world.mediator.network().set_availability("r1",
                                            net::Availability::always_down());
  Answer a = world.mediator.query("select x.name from x in person");
  ASSERT_FALSE(a.complete());

  std::shared_ptr<const obs::Trace> trace = world.mediator.last_trace();
  ASSERT_NE(trace, nullptr);
  obs::Span root;
  ASSERT_TRUE(trace->find_span("query", &root));
  EXPECT_EQ(root.tag("outcome"), "partial");
  EXPECT_EQ(root.tag("residuals"), "1");

  // The failed branch's exec span says why.
  bool saw_unavailable = false;
  for (const obs::Span& e : trace->spans_named("exec")) {
    if (e.tag("repository") == "r1") {
      EXPECT_EQ(e.tag("outcome"), "unavailable");
      saw_unavailable = true;
    }
  }
  EXPECT_TRUE(saw_unavailable);

  obs::Span residuals;
  ASSERT_TRUE(trace->find_span("residuals", &residuals));
  EXPECT_EQ(residuals.tag("count"), "1");

  obs::RegistrySnapshot snap = registry->snapshot();
  EXPECT_EQ(snap.counter("mediator.queries"), 1u);
  EXPECT_EQ(snap.counter("mediator.queries.partial"), 1u);
  EXPECT_EQ(snap.counters.count("stage.execute.seconds"), 0u);  // histogram
  ASSERT_EQ(snap.histograms.count("stage.execute.seconds"), 1u);
  EXPECT_EQ(snap.histograms.at("stage.execute.seconds").count, 1u);
}

TEST(MediatorObs, ExplainIsStableAcrossPlanCacheHits) {
  Mediator::Options options = traced_options();
  PaperWorld world(options);
  const std::string q = "select x.name from x in person where x.salary > 10";

  // explain() never executes and never touches the cache or the counters.
  const std::string before = world.mediator.explain(q);
  EXPECT_EQ(world.mediator.explain(q), before);
  EXPECT_EQ(world.mediator.plan_cache_stats().misses, 0u);

  // The first execution builds the query's template; the second binds
  // it, priced with what the first one recorded (§3.3).
  Answer first = world.mediator.query(q);
  ASSERT_TRUE(first.complete());
  Answer again = world.mediator.query(q);
  ASSERT_TRUE(again.complete());
  EXPECT_EQ(first.data(), again.data());
  EXPECT_EQ(world.mediator.plan_cache_stats().misses, 1u);
  EXPECT_EQ(world.mediator.plan_cache_stats().hits, 1u);

  // The template hit keeps its optimize span, tagged as a hit.
  std::shared_ptr<const obs::Trace> trace = world.mediator.last_trace();
  ASSERT_NE(trace, nullptr);
  obs::Span optimize;
  ASSERT_TRUE(trace->find_span("optimize", &optimize));
  EXPECT_EQ(optimize.tag("template"), "hit");

  // Two consecutive explains still agree with each other (the learned
  // costs moved, so the text may differ from `before`, but it is stable).
  const std::string after = world.mediator.explain(q);
  EXPECT_EQ(world.mediator.explain(q), after);
}

TEST(MediatorObs, TracerRingBufferRetention) {
  Mediator::Options options = traced_options();
  options.obs.keep_traces = 2;
  PaperWorld world(options);
  world.mediator.query("select x.name from x in person0");
  world.mediator.query("select x.id from x in person0");
  world.mediator.query("select x.salary from x in person0");
  obs::Tracer* tracer = world.mediator.tracer();
  ASSERT_NE(tracer, nullptr);
  EXPECT_EQ(tracer->finished(), 3u);
  std::vector<std::shared_ptr<const obs::Trace>> recent = tracer->recent();
  ASSERT_EQ(recent.size(), 2u);  // oldest evicted
  EXPECT_EQ(recent[0]->query(), "select x.id from x in person0");
  EXPECT_EQ(recent[1]->query(), "select x.salary from x in person0");
  EXPECT_EQ(world.mediator.last_trace(), recent[1]);
}

TEST(MediatorObs, RetryInstantsInWallClockMode) {
  Mediator::Options options = traced_options();
  options.exec.workers = 1;
  options.exec.latency_scale = 0.01;  // compress waits
  options.exec.retry.max_attempts = 2;
  options.exec.retry.initial_backoff_s = 0.001;
  PaperWorld world(options);
  world.mediator.network().set_availability("r0",
                                            net::Availability::always_down());
  Answer a = world.mediator.query("select x.name from x in person0");
  ASSERT_FALSE(a.complete());
  std::shared_ptr<const obs::Trace> trace = world.mediator.last_trace();
  ASSERT_NE(trace, nullptr);

  std::vector<obs::Span> retries = trace->spans_named("retry");
  ASSERT_EQ(retries.size(), 1u);  // 2 attempts = 1 retry
  EXPECT_TRUE(retries[0].instant);
  EXPECT_EQ(retries[0].tag("attempt"), "1");
  EXPECT_TRUE(retries[0].has_tag("backoff_s"));

  std::vector<obs::Span> execs = trace->spans_named("exec");
  ASSERT_EQ(execs.size(), 1u);
  EXPECT_EQ(execs[0].tag("attempts"), "2");
  EXPECT_EQ(execs[0].tag("outcome"), "unavailable");
  // The retry instant nests under its exec span.
  EXPECT_EQ(retries[0].parent, execs[0].id);
}

TEST(MediatorObs, SessionResubmissionsAreTagged) {
  Mediator::Options options = traced_options();
  options.obs.keep_traces = 64;
  options.session.retry_interval_s = 0.01;
  PaperWorld world(options);
  world.mediator.network().set_availability("r1",
                                            net::Availability::always_down());
  session::QueryHandle handle =
      world.mediator.submit("select x.name from x in person");
  // Let the manager resubmit at least once while r1 is still dark, so a
  // retained trace carries a resubmission index > 0.
  for (int i = 0; i < 1000; ++i) {
    if (world.mediator.session_stats().resubmissions >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(world.mediator.session_stats().resubmissions, 1u);
  world.mediator.network().set_availability("r1",
                                            net::Availability::always_up());
  Answer full = handle.wait();
  ASSERT_TRUE(full.complete());

  // Some retained trace carries the session identity; at least one is a
  // resubmission (resubmission >= 1).
  bool saw_session = false;
  bool saw_resubmission = false;
  for (const auto& trace : world.mediator.tracer()->recent()) {
    obs::Span root;
    if (!trace->find_span("query", &root)) continue;
    if (!root.has_tag("session.id")) continue;
    saw_session = true;
    EXPECT_EQ(root.tag("session.id"), std::to_string(handle.id()));
    if (root.tag("session.resubmission") != "0") saw_resubmission = true;
  }
  EXPECT_TRUE(saw_session);
  EXPECT_TRUE(saw_resubmission);
}

TEST(MediatorObs, ObsSnapshotUnifiesSubsystems) {
  auto registry = std::make_unique<obs::Registry>();
  Mediator::Options options = traced_options();
  options.obs.registry = registry.get();
  PaperWorld world(options);
  world.mediator.query("select x.name from x in person");
  session::QueryHandle handle =
      world.mediator.submit("select x.salary from x in person");
  handle.wait();

  obs::RegistrySnapshot snap = world.mediator.obs_snapshot();
  EXPECT_GE(snap.counter("mediator.queries"), 2u);
  EXPECT_EQ(snap.counter("session.submitted"), 1u);
  EXPECT_EQ(snap.counter("session.completed"), 1u);
  EXPECT_GE(snap.counter("health.tracked_sources"), 2u);
  // Virtual-time mode: the parallel dispatcher never ran.
  EXPECT_EQ(snap.counter("exec.dispatched"), 0u);
  ASSERT_TRUE(snap.has("stage.execute.seconds"));
  EXPECT_GE(snap.histograms.at("stage.execute.seconds").count, 2u);
}

// ------------------------------------------------------ concurrency storm ---

TEST(MediatorObsConcurrency, CountersConsistentUnderThreadStorm) {
  auto registry = std::make_unique<obs::Registry>();
  Mediator::Options options = traced_options();
  options.obs.registry = registry.get();
  options.obs.keep_traces = 8;
  options.exec.workers = 2;
  options.exec.latency_scale = 0.001;  // keep wall time tiny
  PaperWorld world(options);

  constexpr size_t kThreads = 8;
  constexpr int kQueriesPerThread = 5;
  std::atomic<size_t> rows{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        rows += world.mediator.query("select x.name from x in person")
                    .data()
                    .size();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  constexpr uint64_t kTotal = kThreads * kQueriesPerThread;
  EXPECT_EQ(rows.load(), kTotal * 2);  // Mary + Sam per query

  obs::RegistrySnapshot snap = world.mediator.obs_snapshot();
  EXPECT_EQ(snap.counter("mediator.queries"), kTotal);
  EXPECT_EQ(snap.counter("mediator.queries.partial"), 0u);
  ASSERT_TRUE(snap.has("stage.execute.seconds"));
  EXPECT_EQ(snap.histograms.at("stage.execute.seconds").count, kTotal);

  // The torn-read fix: a snapshot never splits one event's fields.
  exec::MetricsSnapshot m = world.mediator.exec_metrics();
  EXPECT_EQ(m.dispatched, kTotal * 2);  // two sources per query
  EXPECT_EQ(m.succeeded + m.failed, m.dispatched);
  EXPECT_EQ(m.rows, kTotal * 2);
  EXPECT_EQ(snap.counter("exec.dispatched"), m.dispatched);

  // Every retained trace closed its spans (B/E counts pair up even with
  // exec spans recorded from pool threads).
  for (const auto& trace : world.mediator.tracer()->recent()) {
    const ChromeTraceShape shape = chrome_shape(trace->to_json());
    EXPECT_EQ(shape.begins, shape.ends);
    EXPECT_TRUE(shape.monotone);
  }
}

TEST(MediatorObsConcurrency, SnapshotsWhileWritersRun) {
  // Readers hammer snapshot()/to_json() while writers update: TSan-clean
  // and every observed snapshot internally consistent.
  exec::Metrics metrics;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      metrics.on_dispatch();
      metrics.on_success(3, 0.001);
    }
  });
  for (int i = 0; i < 200; ++i) {
    exec::MetricsSnapshot s = metrics.snapshot();
    EXPECT_LE(s.succeeded, s.dispatched);
    EXPECT_EQ(s.rows, s.succeeded * 3);
  }
  stop = true;
  writer.join();

  obs::Registry registry;
  std::atomic<bool> stop2{false};
  std::thread counter_writer([&] {
    while (!stop2.load(std::memory_order_relaxed)) {
      registry.counter("storm.count").add();
      registry.histogram("storm.seconds").observe(0.002);
    }
  });
  for (int i = 0; i < 200; ++i) {
    obs::RegistrySnapshot s = registry.snapshot();
    if (s.has("storm.seconds")) {
      const obs::Histogram::Snapshot& h = s.histograms.at("storm.seconds");
      uint64_t bucketed = 0;
      for (uint64_t b : h.buckets) bucketed += b;
      EXPECT_EQ(bucketed, h.count);
    }
  }
  stop2 = true;
  counter_writer.join();
}

// ----------------------------------------- explain report & differential ---

TEST(ExplainReport, SubmitsDecisionsAndCandidates) {
  PaperWorld world;
  Mediator::ExplainReport report = world.mediator.explain_report(
      "select x.name from x in person where x.salary > 100");
  EXPECT_FALSE(report.local_mode);
  EXPECT_FALSE(report.plan.empty());
  ASSERT_EQ(report.submits.size(), 2u);
  EXPECT_EQ(report.submits[0].repository, "r0");
  EXPECT_EQ(report.submits[1].repository, "r1");
  // MemDbWrapper is full-strength: the select pushed down.
  for (const auto& submit : report.submits) {
    EXPECT_NE(submit.remote.find("select("), std::string::npos)
        << submit.remote;
    EXPECT_EQ(submit.learned.basis, optimizer::CostHistory::Basis::Default);
    EXPECT_FALSE(submit.bind_join);
  }
  // Decisions recorded, accepted, naming R1 per branch.
  ASSERT_FALSE(report.decisions.empty());
  bool saw_r1_accept = false;
  for (const auto& d : report.decisions) {
    if (d.rule == "R1 select-pushdown" && d.accepted) saw_r1_accept = true;
  }
  EXPECT_TRUE(saw_r1_accept);
  // Exactly one candidate is marked chosen per branch set.
  size_t chosen = 0;
  for (const auto& c : report.candidates) chosen += c.chosen ? 1 : 0;
  EXPECT_GE(report.candidates.size(), 2u);
  EXPECT_GE(chosen, 1u);

  // The printable form keeps the legacy lines and adds the new ones.
  const std::string text = report.to_string();
  EXPECT_EQ(text, world.mediator.explain(
                      "select x.name from x in person where x.salary > 100"));
  for (const char* needle :
       {"expanded: ", "plan: ", "plans considered: ", "estimated: net ",
        "submit r0 [w0]", "-- learned: ", "decision R1 select-pushdown",
        "candidate (chosen)"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(ExplainReport, RejectedPushdownsAreRecorded) {
  // A get-only wrapper refuses R1; the decision log shows the rejection
  // and the shipped expression stays a bare get.
  Mediator mediator;
  memdb::Database db("db");
  auto& t = db.create_table("person0", {{"id", memdb::ColumnType::Int},
                                        {"name", memdb::ColumnType::Text},
                                        {"salary", memdb::ColumnType::Int}});
  t.insert({Value::integer(1), Value::string("Mary"), Value::integer(200)});
  auto w = std::make_shared<wrapper::MemDbWrapper>(
      grammar::CapabilitySet{.get = true});
  w->attach_database("r0", &db);
  mediator.register_wrapper("w0", std::move(w));
  mediator.register_repository(catalog::Repository{"r0", "h", "db", "1.1.1.1"});
  mediator.execute_odl(R"(
    interface Person (extent person) {
      attribute Long id;
      attribute String name;
      attribute Short salary; };
    extent person0 of Person wrapper w0 repository r0;
  )");

  Mediator::ExplainReport report = mediator.explain_report(
      "select x.name from x in person0 where x.salary > 10");
  ASSERT_EQ(report.submits.size(), 1u);
  EXPECT_EQ(report.submits[0].remote, "get(person0, x)");
  bool saw_rejection = false;
  for (const auto& d : report.decisions) {
    if (!d.accepted) saw_rejection = true;
  }
  EXPECT_TRUE(saw_rejection);
  EXPECT_NE(report.to_string().find("reject "), std::string::npos);
}

// A heterogeneous federation — memdb (full capabilities), CSV (get only),
// key-value (get + equality select) — for the explain-vs-execution
// differential: what explain() *claims* will be shipped must be exactly
// what the runtime *actually* dispatches.
struct HeterogeneousWorld {
  HeterogeneousWorld() : mediator(make_options()) {
    // memdb: full-strength SQL-ish source.
    auto& t = db.create_table("person0", {{"id", memdb::ColumnType::Int},
                                          {"name", memdb::ColumnType::Text},
                                          {"salary", memdb::ColumnType::Int}});
    for (int i = 0; i < 20; ++i) {
      t.insert({Value::integer(i), Value::string("m" + std::to_string(i)),
                Value::integer(i * 10)});
    }
    auto wm = std::make_shared<wrapper::MemDbWrapper>();
    wm->attach_database("r0", &db);
    mediator.register_wrapper("wm", std::move(wm));
    mediator.register_repository(catalog::Repository{"r0", "h0", "db", "1"},
                                 net::LatencyModel{0.002, 1e-5, 0});

    // CSV: the can't-push-anything source.
    std::string text = "id,name,salary\n";
    for (int i = 0; i < 20; ++i) {
      text += std::to_string(100 + i) + ",c" + std::to_string(i) + "," +
              std::to_string(i * 7) + "\n";
    }
    auto wc = std::make_shared<wrapper::CsvWrapper>();
    wc->attach_table("r1", csv::parse_csv("person1", text));
    mediator.register_wrapper("wc", std::move(wc));
    mediator.register_repository(catalog::Repository{"r1", "h1", "csv", "2"},
                                 net::LatencyModel{0.004, 1e-5, 0});

    // Key-value: equality pushes, ranges stay home.
    kvstore::KvCollection& c = kv.create_collection("person2", "id");
    for (int i = 0; i < 20; ++i) {
      c.put(Value::strct({{"id", Value::integer(200 + i)},
                          {"name", Value::string("k" + std::to_string(i))},
                          {"salary", Value::integer(i * 13)}}));
    }
    auto wk = std::make_shared<wrapper::KvWrapper>();
    wk->attach_store("r2", &kv);
    mediator.register_wrapper("wk", std::move(wk));
    mediator.register_repository(catalog::Repository{"r2", "h2", "kv", "3"},
                                 net::LatencyModel{0.001, 1e-5, 0});

    mediator.execute_odl(R"(
      interface Person (extent person) {
        attribute Long id;
        attribute String name;
        attribute Short salary; };
      extent person0 of Person wrapper wm repository r0;
      extent person1 of Person wrapper wc repository r1;
      extent person2 of Person wrapper wk repository r2;
    )");
  }

  static Mediator::Options make_options() {
    Mediator::Options options;
    options.obs.enabled = true;  // exec spans are the dispatch record
    return options;
  }

  memdb::Database db{"db0"};
  kvstore::KvStore kv{"kv0"};
  Mediator mediator;
};

std::string differential_query(SplitMix64& rng) {
  const std::string extent =
      rng.next_below(2) == 0
          ? "person"
          : "person" + std::to_string(rng.next_below(3));
  switch (rng.next_below(5)) {
    case 0:
      return "select x.name from x in " + extent;
    case 1:  // range: pushes to memdb only
      return "select x.name from x in " + extent + " where x.salary > " +
             std::to_string(rng.next_in(0, 250));
    case 2:  // equality: pushes to memdb and kv, never csv
      return "select x.name from x in " + extent + " where x.id = " +
             std::to_string(rng.next_in(0, 220));
    case 3:  // projection
      return "select struct(n: x.name, s: x.salary) from x in " + extent +
             " where x.salary >= " + std::to_string(rng.next_in(0, 150));
    default:  // conjunction with equality on the kv key
      return "select x.salary from x in " + extent + " where x.id = " +
             std::to_string(rng.next_in(0, 220)) + " and x.salary < " +
             std::to_string(rng.next_in(50, 200));
  }
}

TEST(ExplainDifferential, ClaimedPushdownsMatchDispatchedSubmits) {
  // 50 seeded random queries: for each, explain_report()'s claimed
  // (repository, shipped expression) multiset must equal the multiset the
  // runtime actually dispatched (read back from the trace's exec spans).
  HeterogeneousWorld world;
  SplitMix64 rng(0xd15c0);
  for (int i = 0; i < 50; ++i) {
    const std::string query = differential_query(rng);
    Mediator::ExplainReport report = world.mediator.explain_report(query);

    std::multiset<std::pair<std::string, std::string>> claimed;
    for (const auto& submit : report.submits) {
      claimed.emplace(submit.repository, submit.remote);
    }

    Answer answer = world.mediator.query(query);
    ASSERT_TRUE(answer.complete()) << query;
    std::shared_ptr<const obs::Trace> trace = world.mediator.last_trace();
    ASSERT_NE(trace, nullptr);
    std::multiset<std::pair<std::string, std::string>> dispatched;
    for (const obs::Span& e : trace->spans_named("exec")) {
      dispatched.emplace(e.tag("repository"), e.tag("remote"));
    }

    EXPECT_EQ(claimed, dispatched) << "query " << i << ": " << query;
    EXPECT_FALSE(claimed.empty()) << query;
  }
}

TEST(ExplainDifferential, WeakSourcesNeverReceiveOperators) {
  // Structural guarantee across the same 50 queries: nothing but a bare
  // get ever ships to the CSV source, and no ordering comparison ever
  // ships to the kv source.
  HeterogeneousWorld world;
  SplitMix64 rng(0xd15c0);
  for (int i = 0; i < 50; ++i) {
    Mediator::ExplainReport report =
        world.mediator.explain_report(differential_query(rng));
    for (const auto& submit : report.submits) {
      if (submit.repository == "r1") {
        EXPECT_EQ(submit.remote, "get(person1, x)") << submit.remote;
      }
      if (submit.repository == "r2") {
        EXPECT_EQ(submit.remote.find("<"), std::string::npos)
            << submit.remote;
        EXPECT_EQ(submit.remote.find(">"), std::string::npos)
            << submit.remote;
      }
    }
  }
}

}  // namespace
}  // namespace disco
