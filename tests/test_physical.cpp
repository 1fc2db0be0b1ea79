#include <gtest/gtest.h>

#include "algebra/to_oql.hpp"
#include "common/error.hpp"
#include "fixtures.hpp"
#include "oql/parser.hpp"
#include "oql/printer.hpp"
#include "physical/plan.hpp"
#include "physical/runtime.hpp"

namespace disco::physical {
namespace {

using algebra::get;
using algebra::submit;
using oql::parse;

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() = default;

  ExecContext context(double deadline_s =
                          std::numeric_limits<double>::infinity()) {
    ExecContext ctx;
    ctx.catalog = &world_.mediator.catalog();
    ctx.network = &world_.mediator.network();
    ctx.clock = &world_.mediator.clock();
    ctx.wrapper_by_name = [this](const std::string& name) {
      return world_.mediator.wrapper_by_name(name);
    };
    ctx.deadline_s = deadline_s;
    return ctx;
  }

  PhysicalPtr exec_get(const std::string& repo, const std::string& extent,
                       const std::string& var) {
    auto logical = submit(repo, get(extent, var));
    return make_exec(repo, "w0", logical->child, logical);
  }

  disco::testing::PaperWorld world_;
};

TEST_F(RuntimeTest, ExecFetchesEnvRows) {
  Runtime runtime(context());
  RunResult result = runtime.run(exec_get("r0", "person0", "x"));
  EXPECT_TRUE(result.complete());
  ASSERT_EQ(result.data.size(), 1u);
  EXPECT_EQ(result.data.items()[0].field("x").field("name"),
            Value::string("Mary"));
  EXPECT_EQ(result.stats.exec_calls, 1u);
  EXPECT_EQ(result.stats.rows_fetched, 1u);
}

TEST_F(RuntimeTest, ClockAdvancesByLatency) {
  Runtime runtime(context());
  double before = world_.mediator.clock().now();
  RunResult result = runtime.run(exec_get("r0", "person0", "x"));
  EXPECT_GT(result.stats.elapsed_s, 0.0);
  EXPECT_DOUBLE_EQ(world_.mediator.clock().now(),
                   before + result.stats.elapsed_s);
}

TEST_F(RuntimeTest, ParallelExecsTakeMaxLatency) {
  // r0 base 10ms, r1 base 20ms; a union over both costs ~max, not sum.
  auto plan = make_union(
      {exec_get("r0", "person0", "x"), exec_get("r1", "person1", "x")},
      algebra::union_of({submit("r0", get("person0", "x")),
                         submit("r1", get("person1", "x"))}));
  Runtime runtime(context());
  RunResult result = runtime.run(plan);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.data.size(), 2u);
  EXPECT_NEAR(result.stats.elapsed_s, 0.020, 0.005);
}

TEST_F(RuntimeTest, FilterAndProjectOperateOnEnvs) {
  auto base = exec_get("r0", "person0", "x");
  auto filter_logical =
      algebra::filter(base->logical, parse("x.salary > 1000"));
  auto plan = make_filter(base, parse("x.salary > 1000"), filter_logical);
  Runtime runtime(context());
  RunResult result = runtime.run(plan);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.data.size(), 0u);

  auto proj_logical = algebra::project(base->logical, parse("x.name"),
                                       false);
  auto proj = make_project(exec_get("r0", "person0", "x"), parse("x.name"),
                           false, proj_logical);
  Runtime runtime2(context());
  RunResult r2 = runtime2.run(proj);
  EXPECT_EQ(r2.data, Value::bag({Value::string("Mary")}));
}

TEST_F(RuntimeTest, DistinctProject) {
  auto base = exec_get("r0", "person0", "x");
  auto logical = algebra::project(base->logical, parse("x.salary > 0"),
                                  true);
  auto plan = make_project(base, parse("x.salary > 0"), true, logical);
  Runtime runtime(context());
  RunResult result = runtime.run(plan);
  EXPECT_EQ(result.data.size(), 1u);
}

TEST_F(RuntimeTest, HashJoinMatchesNestedLoop) {
  auto left_logical = submit("r0", get("person0", "x"));
  auto right_logical = submit("r1", get("person1", "y"));
  auto join_logical = algebra::join(left_logical, right_logical,
                                    parse("x.salary > y.salary"));
  auto nl = make_nl_join(exec_get("r0", "person0", "x"),
                         exec_get("r1", "person1", "y"),
                         parse("x.salary > y.salary"), join_logical);
  Runtime runtime(context());
  RunResult result = runtime.run(nl);
  EXPECT_EQ(result.data.size(), 1u);  // Mary(200) > Sam(50)
  const Value& env = result.data.items()[0];
  EXPECT_EQ(env.field("x").field("name"), Value::string("Mary"));
  EXPECT_EQ(env.field("y").field("name"), Value::string("Sam"));
}

TEST_F(RuntimeTest, HashJoinMatchesNestedLoopOnDuplicateKeys) {
  // Duplicate keys on both sides: every equal-key pair comes out.
  world_.db0.table("person0").insert(
      {Value::integer(1), Value::string("Mary2"), Value::integer(300)});
  world_.db1.table("person1").insert(
      {Value::integer(1), Value::string("Ann"), Value::integer(70)});
  world_.db1.table("person1").insert(
      {Value::integer(1), Value::string("Bob"), Value::integer(80)});
  auto join_logical =
      algebra::join(submit("r0", get("person0", "x")),
                    submit("r1", get("person1", "y")), parse("x.id = y.id"));
  auto hash = make_hash_join(exec_get("r0", "person0", "x"),
                             exec_get("r1", "person1", "y"),
                             *EquiKey::of(parse("x.id")),
                             *EquiKey::of(parse("y.id")), nullptr,
                             join_logical);
  auto nl = make_nl_join(exec_get("r0", "person0", "x"),
                         exec_get("r1", "person1", "y"),
                         parse("x.id = y.id"), join_logical);
  Runtime r1(context());
  RunResult hash_result = r1.run(hash);
  Runtime r2(context());
  RunResult nl_result = r2.run(nl);
  EXPECT_EQ(hash_result.data, nl_result.data);
  // Mary and Mary2 each with Ann and Bob.
  EXPECT_EQ(hash_result.data.size(), 4u);
}

TEST_F(RuntimeTest, UnavailableSourceBecomesResidual) {
  world_.mediator.network().set_availability(
      "r0", net::Availability::always_down());
  Runtime runtime(context());
  RunResult result = runtime.run(exec_get("r0", "person0", "x"));
  EXPECT_FALSE(result.complete());
  ASSERT_EQ(result.residuals.size(), 1u);
  EXPECT_EQ(oql::to_oql(algebra::reconstruct(result.residuals[0])),
            "select struct(x: x) from x in person0");
  EXPECT_EQ(result.stats.unavailable_calls, 1u);
}

TEST_F(RuntimeTest, DeadlineClassifiesSlowSourceUnavailable) {
  // r1 base latency 20ms; a 15ms deadline cuts it off.
  auto plan = make_union(
      {exec_get("r0", "person0", "x"), exec_get("r1", "person1", "x")},
      algebra::union_of({submit("r0", get("person0", "x")),
                         submit("r1", get("person1", "x"))}));
  Runtime runtime(context(/*deadline_s=*/0.015));
  RunResult result = runtime.run(plan);
  EXPECT_FALSE(result.complete());
  EXPECT_EQ(result.data.size(), 1u);       // Mary arrived
  EXPECT_EQ(result.residuals.size(), 1u);  // person1 did not
  // We waited out the full deadline (§4's designated time).
  EXPECT_DOUBLE_EQ(result.stats.elapsed_s, 0.015);
}

TEST_F(RuntimeTest, ResidualPropagatesThroughFilterAndProject) {
  world_.mediator.network().set_availability(
      "r0", net::Availability::always_down());
  auto base = exec_get("r0", "person0", "x");
  auto filtered_logical =
      algebra::filter(base->logical, parse("x.salary > 10"));
  auto projected_logical =
      algebra::project(filtered_logical, parse("x.name"), false);
  auto plan = make_project(
      make_filter(base, parse("x.salary > 10"), filtered_logical),
      parse("x.name"), false, projected_logical);
  Runtime runtime(context());
  RunResult result = runtime.run(plan);
  ASSERT_EQ(result.residuals.size(), 1u);
  EXPECT_EQ(oql::to_oql(algebra::reconstruct(result.residuals[0])),
            "select x.name from x in person0 where x.salary > 10");
}

TEST_F(RuntimeTest, JoinWithResidualInputTurnsWhollyResidual) {
  world_.mediator.network().set_availability(
      "r1", net::Availability::always_down());
  auto left_logical = submit("r0", get("person0", "x"));
  auto right_logical = submit("r1", get("person1", "y"));
  auto join_logical =
      algebra::join(left_logical, right_logical, parse("x.id = y.id"));
  auto plan = make_nl_join(exec_get("r0", "person0", "x"),
                           exec_get("r1", "person1", "y"),
                           parse("x.id = y.id"), join_logical);
  Runtime runtime(context());
  RunResult result = runtime.run(plan);
  EXPECT_EQ(result.data.size(), 0u);
  ASSERT_EQ(result.residuals.size(), 1u);
  EXPECT_EQ(oql::to_oql(algebra::reconstruct(result.residuals[0])),
            "select struct(x: x, y: y) from x in person0, y in person1 "
            "where x.id = y.id");
}

TEST_F(RuntimeTest, CostHistoryRecordingHookFires) {
  ExecContext ctx = context();
  int recorded = 0;
  ctx.record_exec = [&recorded](const SourceCall& call) {
    ++recorded;
    EXPECT_EQ(call.repository, "r0");
    ASSERT_NE(call.cost_key, nullptr);
    EXPECT_EQ(call.cost_key->text, "get(person0, x)");
    EXPECT_EQ(call.outcome, SourceCall::Outcome::Ok);
    EXPECT_GT(call.latency_s, 0.0);
    EXPECT_EQ(call.rows(), 1u);
  };
  Runtime runtime(ctx);
  runtime.run(exec_get("r0", "person0", "x"));
  EXPECT_EQ(recorded, 1);
}

TEST_F(RuntimeTest, PhysicalStringMatchesPaperNotation) {
  auto exec0 = exec_get("r0", "person0", "x");
  auto proj_logical =
      algebra::project(exec0->logical, parse("x.name"), false);
  auto plan = make_union(
      {make_project(exec0, parse("x.name"), false, proj_logical)},
      proj_logical);
  EXPECT_EQ(to_physical_string(plan),
            "mkproj(x.name, exec(field(r0), get(person0, x)))");
}

TEST_F(RuntimeTest, ConstPlanNeedsNoNetwork) {
  auto logical = algebra::constant(Value::bag({Value::integer(7)}));
  Runtime runtime(context());
  RunResult result = runtime.run(make_const(logical->data, logical));
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.data, Value::bag({Value::integer(7)}));
  EXPECT_EQ(result.stats.exec_calls, 0u);
  EXPECT_EQ(result.stats.elapsed_s, 0.0);
}

}  // namespace
}  // namespace disco::physical
