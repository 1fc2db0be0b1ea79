// Tests for the post-prototype extensions: plan caching with catalog
// invalidation (§3.3 last paragraph), `drop extent` (§2.1), and the bind
// join (§6.2 future work).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "fixtures.hpp"
#include "oql/parser.hpp"

namespace disco {
namespace {

using disco::testing::PaperWorld;

// ------------------------------------------------------------ drop extent ---

TEST(DropExtent, OdlStatementRemovesTheSource) {
  PaperWorld world;
  EXPECT_EQ(world.mediator.query("select x.name from x in person")
                .data()
                .size(),
            2u);
  world.mediator.execute_odl("drop extent person1;");
  Answer a = world.mediator.query("select x.name from x in person");
  EXPECT_EQ(a.data(), Value::bag({Value::string("Mary")}));
  EXPECT_THROW(world.mediator.query("select x from x in person1"),
               CatalogError);
  EXPECT_THROW(world.mediator.execute_odl("drop extent person1;"),
               CatalogError);
}

// -------------------------------------------------------------- plan cache ---

TEST(PlanCache, TemplatesAreAlwaysOn) {
  // Default options: the first query of a shape builds its template, the
  // next binds it.
  PaperWorld world;
  world.mediator.query("select x.name from x in person");
  world.mediator.query("select x.name from x in person");
  EXPECT_EQ(world.mediator.plan_cache_stats().hits, 1u);
  EXPECT_EQ(world.mediator.plan_cache_stats().misses, 1u);
}

class PlanCacheTest : public ::testing::Test {
 protected:
  PlanCacheTest() {
    memdb::Database* db = &db_;
    auto& t = db->create_table("person0",
                               {{"name", memdb::ColumnType::Text},
                                {"salary", memdb::ColumnType::Int}});
    t.insert({Value::string("Mary"), Value::integer(200)});
    mediator_ = std::make_unique<Mediator>();
    auto w = std::make_shared<wrapper::MemDbWrapper>();
    w->attach_database("r0", db);
    mediator_->register_wrapper("w0", std::move(w));
    mediator_->register_repository(
        catalog::Repository{"r0", "h", "db", "1.1.1.1"});
    mediator_->execute_odl(R"(
      interface Person (extent person) {
        attribute String name;
        attribute Short salary; };
      extent person0 of Person wrapper w0 repository r0;
    )");
  }
  memdb::Database db_{"db"};
  std::unique_ptr<Mediator> mediator_;
};

TEST_F(PlanCacheTest, RepeatedTextHitsTheCache) {
  const std::string query = "select x.name from x in person";
  // The first query builds the template; the cost observations it records
  // do not retire it, since every later query prices it afresh.
  Answer a = mediator_->query(query);
  Answer b = mediator_->query(query);
  Answer c = mediator_->query(query);
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(b.data(), c.data());
  EXPECT_EQ(mediator_->plan_cache_stats().misses, 1u);
  EXPECT_EQ(mediator_->plan_cache_stats().hits, 2u);
}

TEST_F(PlanCacheTest, CatalogChangeInvalidates) {
  // §3.3: "the mediator must monitor updates to extents, and modify or
  // recompute plans that are affected".
  const std::string query = "select x.name from x in person";
  EXPECT_EQ(mediator_->query(query).data().size(), 1u);
  EXPECT_EQ(mediator_->query(query).data().size(), 1u);
  const uint64_t hits_before = mediator_->plan_cache_stats().hits;

  // Add a second source: the cached plan would silently miss it.
  db_.create_table("person1", {{"name", memdb::ColumnType::Text},
                               {"salary", memdb::ColumnType::Int}})
      .insert({Value::string("Sam"), Value::integer(50)});
  auto* w = dynamic_cast<wrapper::MemDbWrapper*>(
      mediator_->wrapper_by_name("w0"));
  w->attach_database("r1", &db_);
  mediator_->register_repository(
      catalog::Repository{"r1", "h2", "db", "1.1.1.2"});
  mediator_->execute_odl(
      "extent person1 of Person wrapper w0 repository r1;");

  // The query's sources changed, so its key did: a new template.
  const uint64_t misses_before = mediator_->plan_cache_stats().misses;
  Answer after = mediator_->query(query);
  EXPECT_EQ(after.data().size(), 2u);  // recomputed, sees the new source
  EXPECT_EQ(mediator_->plan_cache_stats().hits, hits_before);
  EXPECT_EQ(mediator_->plan_cache_stats().misses, misses_before + 1);
}

TEST_F(PlanCacheTest, DifferentTextsMissSeparately) {
  mediator_->query("select x.name from x in person");
  mediator_->query("select x.salary from x in person");
  EXPECT_EQ(mediator_->plan_cache_stats().misses, 2u);
}

// --------------------------------------------------------------- bind join ---

class BindJoinTest : public ::testing::Test {
 protected:
  BindJoinTest() {
    // Small build side (3 relevant orders), large probe side (5000
    // customers) in a *different* repository.
    auto& orders = db0_.create_table("orders",
                                     {{"cid", memdb::ColumnType::Int},
                                      {"item", memdb::ColumnType::Text}});
    orders.insert({Value::integer(11), Value::string("disk")});
    orders.insert({Value::integer(42), Value::string("tape")});
    orders.insert({Value::integer(11), Value::string("cpu")});
    auto& customers = db1_.create_table(
        "customers", {{"id", memdb::ColumnType::Int},
                      {"cname", memdb::ColumnType::Text}});
    for (int i = 0; i < 5000; ++i) {
      customers.insert({Value::integer(i),
                        Value::string("c" + std::to_string(i))});
    }
    Mediator::Options options;
    options.optimizer.enable_bind_join = true;
    mediator_ = std::make_unique<Mediator>(options);
    auto w = std::make_shared<wrapper::MemDbWrapper>();
    wrapper_ = w.get();
    w->attach_database("r0", &db0_);
    w->attach_database("r1", &db1_);
    mediator_->register_wrapper("w0", std::move(w));
    mediator_->register_repository(
        catalog::Repository{"r0", "a", "db", "1.0.0.1"},
        net::LatencyModel{0.005, 0.0001, 0});
    mediator_->register_repository(
        catalog::Repository{"r1", "b", "db", "1.0.0.2"},
        net::LatencyModel{0.005, 0.0001, 0});
    mediator_->execute_odl(R"(
      interface Order { attribute Short cid; attribute String item; };
      interface Customer { attribute Short id; attribute String cname; };
      extent orders of Order wrapper w0 repository r0;
      extent customers of Customer wrapper w0 repository r1;
    )");
    // Teach the history that customers is big, so the cost model can see
    // the bind join's advantage.
    mediator_->query("select c.cname from c in customers");
  }
  const std::string join_query_ =
      "select struct(who: c.cname, what: o.item) "
      "from o in orders, c in customers where o.cid = c.id";

  memdb::Database db0_{"db0"};
  memdb::Database db1_{"db1"};
  std::unique_ptr<Mediator> mediator_;
  wrapper::MemDbWrapper* wrapper_ = nullptr;
};

TEST_F(BindJoinTest, PlanUsesBindJoin) {
  std::string plan = mediator_->explain(join_query_);
  EXPECT_NE(plan.find("bindjoin"), std::string::npos) << plan;
}

TEST_F(BindJoinTest, ResultMatchesHashJoinSemantics) {
  Answer a = mediator_->query(join_query_);
  ASSERT_TRUE(a.complete());
  ASSERT_EQ(a.data().size(), 3u);
  // The probe fetch moved only the bound keys, not 5000 customers.
  EXPECT_LT(a.stats().run.rows_fetched, 100u);
  // The shipped MiniSQL carries the key disjunction.
  EXPECT_NE(wrapper_->last_sql().find("c.id = 11 OR"), std::string::npos)
      << wrapper_->last_sql();
}

TEST_F(BindJoinTest, AgreesWithRegularPlan) {
  Answer bind = mediator_->query(join_query_);
  Mediator::Options plain_options;
  // Fresh mediator without bind join over the same databases.
  Mediator plain(plain_options);
  auto w = std::make_shared<wrapper::MemDbWrapper>();
  w->attach_database("r0", &db0_);
  w->attach_database("r1", &db1_);
  plain.register_wrapper("w0", std::move(w));
  plain.register_repository(catalog::Repository{"r0", "a", "db", "1.0.0.1"});
  plain.register_repository(catalog::Repository{"r1", "b", "db", "1.0.0.2"});
  plain.execute_odl(R"(
    interface Order { attribute Short cid; attribute String item; };
    interface Customer { attribute Short id; attribute String cname; };
    extent orders of Order wrapper w0 repository r0;
    extent customers of Customer wrapper w0 repository r1;
  )");
  Answer regular = plain.query(join_query_);
  EXPECT_EQ(bind.data(), regular.data());
}

TEST_F(BindJoinTest, EmptyBuildSideShortCircuits) {
  Answer a = mediator_->query(
      "select struct(who: c.cname, what: o.item) from o in orders, "
      "c in customers where o.cid = c.id and o.item = \"nothing\"");
  ASSERT_TRUE(a.complete());
  EXPECT_EQ(a.data().size(), 0u);
}

TEST_F(BindJoinTest, ProbeOutageMakesJoinResidual) {
  mediator_->network().set_availability("r1",
                                        net::Availability::always_down());
  Answer a = mediator_->query(join_query_);
  ASSERT_FALSE(a.complete());
  // The residual is the plain logical join, resubmittable as usual.
  mediator_->network().set_availability("r1",
                                        net::Availability::always_up());
  Answer b = mediator_->query(a.to_oql());
  ASSERT_TRUE(b.complete());
  EXPECT_EQ(b.data().size(), 3u);
}

TEST_F(BindJoinTest, BuildOutageMakesJoinResidual) {
  mediator_->network().set_availability("r0",
                                        net::Availability::always_down());
  Answer a = mediator_->query(join_query_);
  ASSERT_FALSE(a.complete());
  EXPECT_EQ(a.data().size(), 0u);
}

// ------------------------------------------------------ cost closed loop ---

// The §3.3 loop closed over an *indexed* source: the cost history first
// observes that fetching the probe extent whole is expensive, flips the
// plan to a bind join, then observes that one key-bound probe against the
// ordered index is near-constant and locks the choice in with an Exact
// probe-shape estimate. Same answers at every step.
class CostLoopTest : public ::testing::Test {
 protected:
  CostLoopTest() {
    auto& orders = db0_.create_table("orders",
                                     {{"cid", memdb::ColumnType::Int},
                                      {"item", memdb::ColumnType::Text}});
    orders.insert({Value::integer(11), Value::string("disk")});
    orders.insert({Value::integer(42), Value::string("tape")});
    orders.insert({Value::integer(11), Value::string("cpu")});
    auto& customers = db1_.create_table(
        "customers", {{"id", memdb::ColumnType::Int},
                      {"cname", memdb::ColumnType::Text}});
    for (int i = 0; i < 5000; ++i) {
      customers.insert({Value::integer(i),
                        Value::string("c" + std::to_string(i))});
    }
    customers.create_index("customers_id", "id");

    Mediator::Options options;
    options.optimizer.enable_bind_join = true;
    mediator_ = std::make_unique<Mediator>(options);
    auto w = std::make_shared<wrapper::MemDbWrapper>();
    wrapper_ = w.get();
    // Report source compute so the history can tell an indexed probe
    // from a scan even when both return the same rows.
    w->set_cost_model(wrapper::MemDbWrapper::CostModel{.enabled = true});
    w->attach_database("r0", &db0_);
    w->attach_database("r1", &db1_);
    mediator_->register_wrapper("w0", std::move(w));
    mediator_->register_repository(
        catalog::Repository{"r0", "a", "db", "1.0.0.1"},
        net::LatencyModel{0.005, 0.0001, 0});
    mediator_->register_repository(
        catalog::Repository{"r1", "b", "db", "1.0.0.2"},
        net::LatencyModel{0.005, 0.0001, 0});
    mediator_->execute_odl(R"(
      interface Order { attribute Short cid; attribute String item; };
      interface Customer { attribute Short id; attribute String cname; };
      extent orders of Order wrapper w0 repository r0;
      extent customers of Customer wrapper w0 repository r1;
    )");
    // NOTE: no warm-up query — the loop must discover everything itself.
  }

  bool chosen_uses_bind_join(const Mediator::ExplainReport& report) const {
    for (const auto& candidate : report.candidates) {
      if (candidate.chosen && candidate.bind_join) return true;
    }
    return false;
  }

  const std::string join_query_ =
      "select struct(who: c.cname, what: o.item) "
      "from o in orders, c in customers where o.cid = c.id";

  memdb::Database db0_{"db0"};
  memdb::Database db1_{"db1"};
  std::unique_ptr<Mediator> mediator_;
  wrapper::MemDbWrapper* wrapper_ = nullptr;
};

TEST_F(CostLoopTest, HistoryFlipsPlanToIndexDrivenBindJoin) {
  // Cold: no observations, the default estimates make the probe side
  // look tiny, and a bind join must be *strictly* cheaper to win.
  EXPECT_FALSE(chosen_uses_bind_join(mediator_->explain_report(join_query_)));

  // First execution fetches the probe extent whole; the history now
  // knows r1's customers cost ~half a simulated second to move.
  Answer first = mediator_->query(join_query_);
  ASSERT_TRUE(first.complete());
  ASSERT_EQ(first.data().size(), 3u);

  // The loop closes: re-optimizing the same text flips to the bind join.
  EXPECT_TRUE(chosen_uses_bind_join(mediator_->explain_report(join_query_)));

  // The flipped plan answers identically — and its probe went through
  // the ordered index, not a scan of 5000 rows.
  uint64_t probes_before = wrapper_->stats().index_probes;
  Answer second = mediator_->query(join_query_);
  ASSERT_TRUE(second.complete());
  EXPECT_EQ(first.data(), second.data());
  EXPECT_GT(wrapper_->stats().index_probes, probes_before);

  // Once a bind join has run, the probe call is recorded under the
  // plan's canonical probe shape: the estimate for one bound probe is
  // now Exact and near-constant, so the choice is locked in.
  Mediator::ExplainReport report = mediator_->explain_report(join_query_);
  EXPECT_TRUE(chosen_uses_bind_join(report));
  bool saw_probe_submit = false;
  for (const auto& submit : report.submits) {
    if (!submit.bind_join) continue;
    saw_probe_submit = true;
    EXPECT_EQ(submit.learned.basis, optimizer::CostHistory::Basis::Exact);
    EXPECT_LT(submit.learned.time_s, 0.05);
    EXPECT_LT(submit.learned.rows, 100.0);
  }
  EXPECT_TRUE(saw_probe_submit);
}

TEST_F(CostLoopTest, MemdbGaugesSurfaceInObsSnapshot) {
  mediator_->query(join_query_);
  mediator_->query(join_query_);
  obs::RegistrySnapshot snap = mediator_->obs_snapshot();
  EXPECT_GT(snap.counter("memdb.rows_scanned"), 0u);
  EXPECT_GT(snap.counter("memdb.rows_returned"), 0u);
  // The second run bind-joins through the ordered index.
  EXPECT_GT(snap.counter("memdb.index_probes"), 0u);
  EXPECT_GT(snap.counter("memdb.index_hits"), 0u);
}

TEST_F(BindJoinTest, LargeKeySetFallsBackToFullFetch) {
  // Make every customer relevant: 5000 distinct keys exceed the cap, so
  // the probe side is fetched whole — still correct.
  auto& orders = db0_.table("orders");
  for (int i = 0; i < 3000; ++i) {
    orders.insert({Value::integer(i), Value::string("bulk")});
  }
  ASSERT_NE(mediator_->explain(join_query_).find("bindjoin"),
            std::string::npos);
  Answer a = mediator_->query(join_query_);
  ASSERT_TRUE(a.complete());
  // 3003 orders, each cid matching exactly one of the 5000 customers.
  EXPECT_EQ(a.data().size(), 3003u);
  // The probe shipped no keys, so §3.3 learns what the base remote it
  // did ship costs, not what one key-bound probe costs: otherwise every
  // later bind join here is priced as a whole-extent fetch.
  const optimizer::CostHistory& history = mediator_->cost_history();
  const optimizer::CostHistory::Basis probe_basis =
      history
          .estimate("r1", algebra::filter(algebra::get("customers", "c"),
                                          oql::parse("c.id = c.id")))
          .basis;
  EXPECT_NE(probe_basis, optimizer::CostHistory::Basis::Exact);
  EXPECT_NE(probe_basis, optimizer::CostHistory::Basis::Close);
  EXPECT_EQ(history.estimate("r1", algebra::get("customers", "c")).basis,
            optimizer::CostHistory::Basis::Exact);
}

}  // namespace
}  // namespace disco
