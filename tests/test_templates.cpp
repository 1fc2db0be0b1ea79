// Plan templates (optimizer/plan_template.hpp): a query that binds the
// template of its shape must plan exactly as a fresh optimize of it would,
// catalog updates that leave a query's sources alone must not cost it a
// rebuild, and those that change them must be seen.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>

#include "algebra/to_oql.hpp"
#include "common/rng.hpp"
#include "fixtures.hpp"
#include "optimizer/plan_template.hpp"
#include "oql/parser.hpp"
#include "physical/runtime.hpp"

namespace disco {
namespace {

using testing::MixedWorld;
using testing::PaperWorld;

std::string num(int64_t v) { return std::to_string(v); }

/// One query shape; each call draws its literals afresh.
using Shape = std::function<std::string(SplitMix64&)>;

std::vector<Shape> mixed_world_shapes() {
  auto below = [](SplitMix64& r, int64_t n) { return r.next_in(0, n - 1); };
  return {
      [=](SplitMix64& r) {
        return "select x.name from x in emp where x.salary > " +
               num(below(r, 400));
      },
      // Int and Double literals of one shape must not share a template.
      [=](SplitMix64& r) {
        return "select x.name from x in emp where x.salary > " +
               num(below(r, 400)) + ".5";
      },
      [=](SplitMix64& r) {
        return "select x.name from x in emp where x.salary > -" +
               num(below(r, 50));
      },
      // Equal literals against different ones.
      [=](SplitMix64& r) {
        const int64_t a = below(r, 4);
        const int64_t b = r.next_below(2) == 0 ? a : below(r, 40);
        return "select x.name from x in emp where x.dept = " + num(a) +
               " and x.id = " + num(b);
      },
      [=](SplitMix64& r) {
        return "select x.id from x in emp where x.name = \"e" +
               num(below(r, 40)) + "\"";
      },
      [=](SplitMix64& r) {
        return r.next_below(2) == 0
                   ? std::string("select x.id from x in emp where x.name = nil")
                   : "select x.id from x in emp where x.name = \"e" +
                         num(below(r, 40)) + "\"";
      },
      [=](SplitMix64& r) {
        return "select a.owner from a in acct where a.id = " +
               num(below(r, 40));
      },
      [=](SplitMix64& r) {
        return "select s.city from s in sites where s.id = " +
               num(below(r, 4));
      },
      // A literal in the projection.
      [=](SplitMix64& r) {
        return "select struct(n: x.name, k: " + num(below(r, 9)) +
               ") from x in emp where x.id = " + num(below(r, 40));
      },
      // Join merge (R3) at one source; a bind join across two.
      [=](SplitMix64& r) {
        return "select struct(n: e.name, d: d.dname) from e in emp, d in "
               "dept where e.dept = d.id and e.salary > " +
               num(below(r, 400));
      },
      [=](SplitMix64& r) {
        return "select struct(n: e.name, c: s.city) from e in emp, s in "
               "sites where e.dept = s.id and e.salary < " +
               num(below(r, 400));
      },
      // Fan-out over two wrappers, and a view; both partial while `rg`
      // is down.
      [=](SplitMix64& r) {
        return "select x.name from x in emps where x.salary > " +
               num(below(r, 400));
      },
      [=](SplitMix64& r) {
        return "select b.name from b in everyone where b.id = " +
               num(100 + below(r, 40));
      },
  };
}

/// The answer a fresh plan yields, run without recording costs.
std::string fresh_answer(Mediator& mediator, const fedcat::SnapshotPtr& snap,
                         const optimizer::Optimizer::Result& planned) {
  physical::ExecContext context;
  context.catalog = &snap->catalog;
  context.network = &mediator.network();
  context.clock = &mediator.clock();
  context.wrapper_by_name = [snap](const std::string& name) {
    return snap->wrapper_by_name(name);
  };
  physical::RunResult run = physical::Runtime(context).run(planned.plan);
  if (run.complete()) {
    return Answer::complete_answer(std::move(run.data), {}).to_oql();
  }
  std::vector<oql::ExprPtr> residuals;
  for (const algebra::LogicalPtr& residual : run.residuals) {
    residuals.push_back(algebra::reconstruct(residual));
  }
  return Answer::partial_answer(std::move(run.data), std::move(residuals), {})
      .to_oql();
}

TEST(PlanTemplateTest, ReplayedShapesPlanAsAFreshOptimize) {
  Mediator::Options options;
  options.obs.enabled = true;
  options.optimizer.enable_bind_join = true;
  MixedWorld world(options);
  world.mediator.execute_odl("define everyone as union(emp, staff);");
  world.mediator.network().set_availability(
      "rg", net::Availability::always_down());

  const std::vector<Shape> shapes = mixed_world_shapes();
  SplitMix64 rng(7);
  size_t partial = 0;
  for (int round = 0; round < 12; ++round) {
    for (const Shape& shape : shapes) {
      const std::string text = shape(rng);
      SCOPED_TRACE(text);
      const fedcat::SnapshotPtr snap = world.mediator.catalog_snapshot();
      const optimizer::Optimizer fresh_optimizer(
          &snap->catalog,
          [snap](const std::string& name) {
            return snap->wrapper_by_name(name);
          },
          &world.mediator.cost_history(), options.optimizer);
      const optimizer::Optimizer::Result fresh =
          fresh_optimizer.optimize(oql::parse(text));
      const std::string expected = fresh_answer(world.mediator, snap, fresh);

      Answer answer = world.mediator.query(text);
      obs::Span optimize;
      ASSERT_TRUE(world.mediator.last_trace()->find_span("optimize", &optimize));
      EXPECT_EQ(optimize.tag("plan"), physical::to_physical_string(fresh.plan));
      EXPECT_EQ(answer.stats().plans_considered, fresh.plans_considered);
      EXPECT_EQ(answer.stats().estimated.net_s, fresh.estimated.net_s);
      EXPECT_EQ(answer.stats().estimated.cpu_s, fresh.estimated.cpu_s);
      EXPECT_EQ(answer.stats().estimated.rows, fresh.estimated.rows);
      EXPECT_EQ(answer.to_oql(), expected);
      if (!answer.complete()) ++partial;
    }
  }
  EXPECT_GT(partial, 0u);
  // Every shape but the partial answers' resubmissions keeps one
  // template; the Int, Double and nil forms of a shape keep their own.
  const Mediator::PlanCacheStats stats = world.mediator.plan_cache_stats();
  EXPECT_GT(stats.hits, stats.misses * 4);
}

TEST(PlanTemplateTest, ProgrammaticNegativeLiteralsBindTheirOwnTemplate) {
  PaperWorld world;
  auto query = [](int64_t salary) {
    return oql::select(
        false, oql::parse("x.name"),
        {oql::Binding{"x", oql::ident("person")}},
        oql::binary(oql::BinaryOp::Gt, oql::parse("x.salary"),
                    oql::literal(Value::integer(salary))));
  };
  EXPECT_EQ(world.mediator.query(query(100)).data().size(), 1u);
  EXPECT_EQ(world.mediator.query(query(-100)).data().size(), 2u);
  EXPECT_EQ(world.mediator.query(query(-7)).data().size(), 2u);
  EXPECT_EQ(world.mediator.query(query(70)).data().size(), 1u);
  // A negative literal masks as "-?", so its signature is its own.
  EXPECT_EQ(world.mediator.plan_cache_stats().misses, 2u);
  EXPECT_EQ(world.mediator.plan_cache_stats().hits, 2u);
}

/// PaperWorld plus a Thing interface and an empty person2 table at r2.
struct ChurnWorld : PaperWorld {
  explicit ChurnWorld(Mediator::Options options = {}) : PaperWorld(options) {
    person2 = &db2.create_table("person2",
                                {{"id", memdb::ColumnType::Int},
                                 {"name", memdb::ColumnType::Text},
                                 {"salary", memdb::ColumnType::Int}});
    db2.create_table("thing0", {{"id", memdb::ColumnType::Int}});
    wrapper0->attach_database("r2", &db2);
    mediator.register_repository(
        catalog::Repository{"r2", "h2", "db", "123.45.6.9"},
        net::LatencyModel{0.010, 0.0001, 0});
    mediator.execute_odl("interface Thing { attribute Long id; };");
  }
  memdb::Database db2{"db2"};
  memdb::Table* person2 = nullptr;
};

TEST(PlanTemplateTest, SurvivesAddingAndDroppingAnUnrelatedExtent) {
  ChurnWorld world;
  const std::string query =
      "select x.name from x in person where x.salary > ";
  EXPECT_EQ(world.mediator.query(query + "10").data().size(), 2u);
  const Mediator::PlanCacheStats before = world.mediator.plan_cache_stats();
  world.mediator.execute_odl(
      "extent thing0 of Thing wrapper w0 repository r2;");
  world.mediator.execute_odl("drop extent thing0;");
  EXPECT_EQ(world.mediator.query(query + "100").data().size(), 1u);
  const Mediator::PlanCacheStats after = world.mediator.plan_cache_stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.invalidations, 0u);
}

TEST(PlanTemplateTest, AnExtentOfTheQueriedTypeIsSeen) {
  ChurnWorld world;
  world.person2->insert(
      {Value::integer(3), Value::string("Ann"), Value::integer(300)});
  const std::string query =
      "select x.name from x in person where x.salary > ";
  EXPECT_EQ(world.mediator.query(query + "10").data().size(), 2u);
  world.mediator.execute_odl(
      "extent person2 of Person wrapper w0 repository r2;");
  EXPECT_EQ(world.mediator.query(query + "20").data().size(), 3u);
  world.mediator.execute_odl("drop extent person2;");
  // Back to the first sources: the first template serves again.
  EXPECT_EQ(world.mediator.query(query + "30").data().size(), 2u);
  const Mediator::PlanCacheStats stats = world.mediator.plan_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(PlanTemplateTest, AnInterfaceDefinitionClearsTheTable) {
  PaperWorld world;
  world.mediator.query("select x.name from x in person where x.id = 1");
  world.mediator.execute_odl("interface Other { attribute Long id; };");
  EXPECT_EQ(world.mediator.plan_cache_stats().invalidations, 1u);
  world.mediator.query("select x.name from x in person where x.id = 2");
  EXPECT_EQ(world.mediator.plan_cache_stats().misses, 2u);
  EXPECT_EQ(world.mediator.plan_cache_stats().hits, 0u);
}

TEST(PlanTemplateTest, QueriesPlannedByValueGetNoKey) {
  PaperWorld world;
  const catalog::Catalog& catalog = world.mediator.catalog();
  for (const char* text :
       {"select x from x in bag(1, 2, 3) where x > 1",
        "union(bag(1), select x.id from x in person0 where x.id = 1)",
        "count(select x from x in person where x.salary > 1)",
        "select x.name from x in metaextent where x.name = \"person0\""}) {
    SCOPED_TRACE(text);
    EXPECT_TRUE(optimizer::shape_of(oql::parse(text), catalog, true)
                    .key.empty());
  }
  const optimizer::QueryShape shape = optimizer::shape_of(
      oql::parse("select struct(n: x.name, k: 1) from x in person0 where "
                 "x.id = 1 and x.salary > 1"),
      catalog, true);
  EXPECT_FALSE(shape.key.empty());
  EXPECT_EQ(shape.slots.size(), 3u);
}

TEST(PlanTemplateConcurrencyTest, LiteralVaryingClientsBesideCatalogChurn) {
  Mediator::Options options;
  options.exec.workers = 2;
  options.exec.latency_scale = 0.01;
  ChurnWorld world(options);
  constexpr int kClients = 8;
  constexpr int kQueries = 40;
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::thread admin([&] {
    // person2 is empty: with it or without it, every answer is the same,
    // but the queried sources and so the template key move under the
    // clients.
    bool add = true;
    while (!stop.load()) {
      world.mediator.execute_odl(
          add ? "extent person2 of Person wrapper w0 repository r2;"
              : "drop extent person2;");
      add = !add;
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SplitMix64 rng(static_cast<uint64_t>(c) + 1);
      for (int q = 0; q < kQueries; ++q) {
        const int64_t salary = rng.next_in(0, 250);
        Answer answer = world.mediator.query(
            "select x.name from x in person where x.salary > " + num(salary));
        const size_t expected =
            (salary < 50 ? 1u : 0u) + (salary < 200 ? 1u : 0u);
        if (!answer.complete() || answer.data().size() != expected) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  stop.store(true);
  admin.join();
  EXPECT_EQ(wrong.load(), 0);
  const Mediator::PlanCacheStats stats = world.mediator.plan_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kClients * kQueries));
  EXPECT_GT(stats.hits, 0u);
}

}  // namespace
}  // namespace disco
