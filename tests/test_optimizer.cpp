#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "fixtures.hpp"
#include "optimizer/optimizer.hpp"
#include "oql/parser.hpp"
#include "oql/printer.hpp"

namespace disco::optimizer {
namespace {

using oql::parse;

// ---------------------------------------------------------- cost history ---

TEST(CostHistoryTest, DefaultIsZeroTimeOneRow) {
  // §3.3: "a default time cost of 0 and a data cost of 1 is used."
  CostHistory history;
  auto remote = algebra::get("person0", "x");
  CostHistory::Estimate est = history.estimate("r0", remote);
  EXPECT_EQ(est.basis, CostHistory::Basis::Default);
  EXPECT_EQ(est.time_s, 0.0);
  EXPECT_EQ(est.rows, 1.0);
}

TEST(CostHistoryTest, ExactMatchAfterRecording) {
  CostHistory history;
  auto remote = algebra::filter(algebra::get("e", "x"), parse("x.a > 10"));
  history.record("r0", remote, 0.5, 100);
  CostHistory::Estimate est = history.estimate("r0", remote);
  EXPECT_EQ(est.basis, CostHistory::Basis::Exact);
  EXPECT_DOUBLE_EQ(est.time_s, 0.5);
  EXPECT_DOUBLE_EQ(est.rows, 100.0);
}

TEST(CostHistoryTest, SmoothingCombinesObservations) {
  CostHistory history(/*alpha=*/0.5);
  auto remote = algebra::get("e", "x");
  history.record("r0", remote, 1.0, 10);
  history.record("r0", remote, 0.0, 30);
  CostHistory::Estimate est = history.estimate("r0", remote);
  EXPECT_DOUBLE_EQ(est.time_s, 0.5);   // 0.5*0 + 0.5*1
  EXPECT_DOUBLE_EQ(est.rows, 20.0);    // 0.5*30 + 0.5*10
  EXPECT_EQ(est.observations, 2u);
}

TEST(CostHistoryTest, CloseMatchWhenConstantsDiffer) {
  // §3.3: "a selection logical operator whose comparison operators match
  // but whose constants do not match."
  CostHistory history;
  auto seen = algebra::filter(algebra::get("e", "x"), parse("x.a > 10"));
  auto close = algebra::filter(algebra::get("e", "x"), parse("x.a > 999"));
  history.record("r0", seen, 0.7, 50);
  CostHistory::Estimate est = history.estimate("r0", close);
  EXPECT_EQ(est.basis, CostHistory::Basis::Close);
  EXPECT_DOUBLE_EQ(est.time_s, 0.7);
}

TEST(CostHistoryTest, DifferentOperatorIsNotClose) {
  CostHistory history;
  auto seen = algebra::filter(algebra::get("e", "x"), parse("x.a > 10"));
  auto other = algebra::filter(algebra::get("e", "x"), parse("x.a < 10"));
  history.record("r0", seen, 0.7, 50);
  // Not close — but the repository average still informs the estimate.
  CostHistory::Estimate est = history.estimate("r0", other);
  EXPECT_EQ(est.basis, CostHistory::Basis::Repository);
  EXPECT_DOUBLE_EQ(est.time_s, 0.7);
}

TEST(CostHistoryTest, RepositoryAverageBlocksOscillation) {
  // After the pushed plan has run once, the never-run alternative must
  // not estimate cheaper just because it was never observed.
  CostHistory history;
  auto pushed = algebra::project(algebra::get("e", "x"), parse("x.a"),
                                 false);
  history.record("r0", pushed, 0.010, 5);
  auto raw = algebra::get("e", "x");
  CostHistory::Estimate est = history.estimate("r0", raw);
  EXPECT_EQ(est.basis, CostHistory::Basis::Repository);
  EXPECT_DOUBLE_EQ(est.time_s, 0.010);
}

TEST(CostHistoryTest, PerRepositoryKeys) {
  CostHistory history;
  auto remote = algebra::get("e", "x");
  history.record("r0", remote, 0.7, 50);
  EXPECT_EQ(history.estimate("r1", remote).basis,
            CostHistory::Basis::Default);
}

TEST(CostHistoryTest, ExactKeysPerRepositoryAreBounded) {
  // One literal-varying selection per call, as a client with fresh
  // constants ships: every text is new, every signature the same.
  CostHistory history;
  auto key = [](size_t i) {
    return algebra::CostKey{"select(x.a = " + std::to_string(i) + ")",
                            "select(x.a = ?)"};
  };
  constexpr size_t kTexts = 100'000;
  for (size_t i = 0; i < kTexts; ++i) {
    history.record("r0", key(i), 0.001 * static_cast<double>(i % 7), 3);
  }
  ASSERT_LE(history.exact_entries(), CostHistory::kMaxExactKeys);
  EXPECT_GT(history.exact_entries(),
            CostHistory::kMaxExactKeys - CostHistory::kEvictBatch);
  EXPECT_EQ(history.estimate("r0", key(kTexts - 1)).basis,
            CostHistory::Basis::Exact);
  EXPECT_EQ(history.estimate("r0", key(0)).basis,
            CostHistory::Basis::Close);

  // Recording refreshes a key: the one re-recorded just before the next
  // eviction outlives the keys recorded between it and that eviction.
  const size_t kept = history.exact_entries();
  history.record("r0", key(kTexts - kept), 0.5, 3);  // the oldest left
  for (size_t i = 0; i < CostHistory::kMaxExactKeys - kept + 1; ++i) {
    history.record("r0", key(kTexts + i), 0.5, 3);
  }
  EXPECT_EQ(history.estimate("r0", key(kTexts - kept)).basis,
            CostHistory::Basis::Exact);
  EXPECT_EQ(history.estimate("r0", key(kTexts - kept + 1)).basis,
            CostHistory::Basis::Close);
  // Other repositories keep their own budget.
  history.record("r1", key(0), 0.5, 3);
  EXPECT_EQ(history.estimate("r1", key(0)).basis, CostHistory::Basis::Exact);
}

// -------------------------------------------------------------- planning ---

class OptimizerTest : public ::testing::Test {
 protected:
  Optimizer make(OptimizerOptions options = {}) {
    return Optimizer(
        &world_.mediator.catalog(),
        [this](const std::string& name) {
          return world_.mediator.wrapper_by_name(name);
        },
        &world_.mediator.cost_history(), options);
  }
  std::string plan_text(const std::string& query,
                        OptimizerOptions options = {}) {
    Optimizer opt = make(options);
    Optimizer::Result result = opt.optimize(parse(query));
    internal_check(result.plan != nullptr, "expected plan mode");
    return physical::to_physical_string(result.plan);
  }

  disco::testing::PaperWorld world_;
};

TEST_F(OptimizerTest, PaperTranslationExample) {
  // §3.2: select x.name from x in person distributes over both extents,
  // and with the 0/1 default cost the projection is pushed to the
  // sources.
  EXPECT_EQ(plan_text("select x.name from x in person"),
            "mkunion(exec(field(r0), project(x.name, get(person0, x))), "
            "exec(field(r1), project(x.name, get(person1, x))))");
}

TEST_F(OptimizerTest, ExplicitExtentSingleBranch) {
  EXPECT_EQ(plan_text("select x.name from x in person0"),
            "exec(field(r0), project(x.name, get(person0, x)))");
}

TEST_F(OptimizerTest, SelectPushdown) {
  EXPECT_EQ(
      plan_text("select x.name from x in person0 where x.salary > 10"),
      "exec(field(r0), project(x.name, select(x.salary > 10, "
      "get(person0, x))))");
}

TEST_F(OptimizerTest, WeakWrapperKeepsWorkAtMediator) {
  // Re-register person0 behind a get-only wrapper.
  auto weak = std::make_shared<wrapper::MemDbWrapper>(
      grammar::CapabilitySet{.get = true});
  weak->attach_database("r0", &world_.db0);
  world_.mediator.register_wrapper("weak", std::move(weak));
  world_.mediator.execute_odl(
      "extent personw of Person wrapper weak repository r0 "
      "map ((person0=personw));");
  EXPECT_EQ(
      plan_text("select x.name from x in personw where x.salary > 10"),
      "mkproj(x.name, mkfilter(x.salary > 10, "
      "exec(field(r0), get(personw, x))))");
}

TEST_F(OptimizerTest, NonPushablePredicateStaysAtMediator) {
  // Arithmetic predicates are outside every source language here.
  EXPECT_EQ(
      plan_text("select x.name from x in person0 where x.salary + 1 > 10"),
      "mkproj(x.name, mkfilter(x.salary + 1 > 10, "
      "exec(field(r0), get(person0, x))))");
}

TEST_F(OptimizerTest, ComputedProjectionStaysAtMediator) {
  EXPECT_EQ(plan_text("select x.salary * 2 from x in person0"),
            "mkproj(x.salary * 2, exec(field(r0), get(person0, x)))");
}

TEST_F(OptimizerTest, DistinctBlocksProjectPushdown) {
  EXPECT_EQ(plan_text("select distinct x.name from x in person0"),
            "mkproj(distinct x.name, exec(field(r0), get(person0, x)))");
}

TEST_F(OptimizerTest, CrossSourceJoinAtMediator) {
  std::string text = plan_text(
      "select struct(a: x.name, b: y.name) from x in person0, "
      "y in person1 where x.id = y.id");
  // Sources differ (r0, r1): the join must run at the mediator, as a
  // hash join on the equi key.
  EXPECT_NE(text.find("hashjoin(x.id = y.id"), std::string::npos) << text;
  EXPECT_NE(text.find("exec(field(r0)"), std::string::npos);
  EXPECT_NE(text.find("exec(field(r1)"), std::string::npos);
}

TEST_F(OptimizerTest, SameRepositoryJoinPushesDown) {
  // §3.2's employee/manager example: both relations in r0.
  auto& emp = world_.db0.create_table(
      "employee0",
      {{"name", memdb::ColumnType::Text}, {"dept", memdb::ColumnType::Int}});
  emp.insert({Value::string("e1"), Value::integer(1)});
  auto& mgr = world_.db0.create_table(
      "manager0",
      {{"name", memdb::ColumnType::Text}, {"dept", memdb::ColumnType::Int}});
  mgr.insert({Value::string("m1"), Value::integer(1)});
  world_.mediator.execute_odl(R"(
    interface Employee { attribute String name; attribute Short dept; };
    interface Manager { attribute String name; attribute Short dept; };
    extent employee0 of Employee wrapper w0 repository r0;
    extent manager0 of Manager wrapper w0 repository r0;
  )");
  std::string text = plan_text(
      "select struct(e: x.name, m: y.name) from x in employee0, "
      "y in manager0 where x.dept = y.dept");
  // The whole branch collapses into one submit: the join (and here even
  // the projection) executes at the source.
  EXPECT_NE(text.find("join(get(employee0, x), get(manager0, y), "
                      "x.dept = y.dept)"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("hashjoin"), std::string::npos) << text;
}

TEST_F(OptimizerTest, JoinMergeDisabledByOption) {
  auto& emp = world_.db0.create_table(
      "employee1", {{"dept", memdb::ColumnType::Int}});
  emp.insert({Value::integer(1)});
  auto& mgr = world_.db0.create_table(
      "manager1", {{"dept", memdb::ColumnType::Int}});
  mgr.insert({Value::integer(1)});
  world_.mediator.execute_odl(R"(
    interface E1 { attribute Short dept; };
    interface M1 { attribute Short dept; };
    extent employee1 of E1 wrapper w0 repository r0;
    extent manager1 of M1 wrapper w0 repository r0;
  )");
  OptimizerOptions options;
  options.enable_join_merge = false;
  std::string text = plan_text(
      "select struct(a: x.dept, b: y.dept) from x in employee1, "
      "y in manager1 where x.dept = y.dept",
      options);
  EXPECT_EQ(text.find("join(get("), std::string::npos) << text;
  EXPECT_NE(text.find("hashjoin"), std::string::npos) << text;
}

TEST_F(OptimizerTest, ConsidersMultipleAlternatives) {
  Optimizer opt = make();
  auto result = opt.optimize(
      parse("select x.name from x in person0 where x.salary > 10"));
  EXPECT_GE(result.plans_considered, 2u);
}

TEST_F(OptimizerTest, LearnedCostCanReversePushdown) {
  // Teach the history that the pushed expression is pathologically slow
  // on r0 (e.g. the source has no index and the wrapper translation is
  // bad); the optimizer should then prefer fetching raw rows.
  auto pushed = algebra::project(
      algebra::filter(algebra::get("person0", "x"), parse("x.salary > 10")),
      parse("x.name"), false);
  auto filtered = algebra::filter(algebra::get("person0", "x"),
                                  parse("x.salary > 10"));
  auto raw = algebra::get("person0", "x");
  for (int i = 0; i < 3; ++i) {
    world_.mediator.cost_history().record("r0", pushed, 10.0, 1);
    world_.mediator.cost_history().record("r0", filtered, 10.0, 1);
    world_.mediator.cost_history().record("r0", raw, 0.001, 1);
  }
  std::string text =
      plan_text("select x.name from x in person0 where x.salary > 10");
  EXPECT_EQ(text,
            "mkproj(x.name, mkfilter(x.salary > 10, "
            "exec(field(r0), get(person0, x))))");
}

TEST_F(OptimizerTest, ViewExpansionBeforePlanning) {
  world_.mediator.execute_odl(
      "define rich as select x.name from x in person where x.salary > 100;");
  std::string text = plan_text("rich");
  EXPECT_NE(text.find("select(x.salary > 100"), std::string::npos) << text;
}

TEST_F(OptimizerTest, ClosureDistributesOverSubtypeExtents) {
  world_.mediator.execute_odl(R"(
    interface Student : Person { };
  )");
  auto& s0 = world_.db1.create_table("student0",
                                     {{"id", memdb::ColumnType::Int},
                                      {"name", memdb::ColumnType::Text},
                                      {"salary", memdb::ColumnType::Int}});
  s0.insert({Value::integer(3), Value::string("Stu"), Value::integer(10)});
  world_.mediator.execute_odl(
      "extent student0 of Student wrapper w0 repository r1;");
  Optimizer opt = make();
  auto result = opt.optimize(parse("select x.name from x in person*"));
  ASSERT_NE(result.plan, nullptr);
  std::string text = physical::to_physical_string(result.plan);
  EXPECT_NE(text.find("person0"), std::string::npos);
  EXPECT_NE(text.find("person1"), std::string::npos);
  EXPECT_NE(text.find("student0"), std::string::npos);
}

TEST_F(OptimizerTest, NestedSubqueryRegistersAux) {
  Optimizer opt = make();
  auto result = opt.optimize(parse(
      "select struct(name: x.name, total: sum(select z.salary from z in "
      "person where z.name = x.name)) from x in person0"));
  ASSERT_NE(result.plan, nullptr);
  ASSERT_EQ(result.aux.size(), 1u);
  EXPECT_EQ(result.aux[0].first, "person");
}

TEST_F(OptimizerTest, LocalModeForNonSelectTopLevel) {
  Optimizer opt = make();
  auto result = opt.optimize(parse("sum(select x.salary from x in person)"));
  EXPECT_EQ(result.plan, nullptr);
  ASSERT_NE(result.local, nullptr);
  ASSERT_EQ(result.aux.size(), 1u);
  EXPECT_EQ(result.aux[0].first, "person");
}

TEST_F(OptimizerTest, ConstantDomainPlans) {
  Optimizer opt = make();
  auto result = opt.optimize(
      parse("select x * 2 from x in bag(1, 2, 3) where x > 1"));
  ASSERT_NE(result.plan, nullptr);
  EXPECT_EQ(result.plans_considered, 1u);
}

TEST_F(OptimizerTest, UnknownNameFails) {
  Optimizer opt = make();
  EXPECT_THROW(opt.optimize(parse("select x from x in nowhere")),
               CatalogError);
  EXPECT_THROW(opt.optimize(parse("select x.a from x in person0 "
                                  "where x.a = unknown_thing")),
               CatalogError);
}

TEST_F(OptimizerTest, BranchExplosionGuard) {
  OptimizerOptions options;
  options.max_branches = 3;
  Optimizer opt = make(options);
  // 2 x 2 = 4 branches > 3.
  EXPECT_THROW(opt.optimize(parse(
                   "select struct(a: x.name, b: y.name) "
                   "from x in person, y in person")),
               ExecutionError);
}

TEST_F(OptimizerTest, CostModelPrefersPushdownUnderDefaults) {
  // §3.3: with the 0/1 default "the optimizer will choose plans where the
  // maximum amount of computation is done at the data source".
  Optimizer opt = make();
  auto pushed_result = opt.optimize(
      parse("select x.name from x in person0 where x.salary > 10"));
  std::string text = physical::to_physical_string(pushed_result.plan);
  EXPECT_EQ(text.find("mkfilter"), std::string::npos) << text;
  EXPECT_EQ(text.find("mkproj"), std::string::npos) << text;
}

TEST_F(OptimizerTest, JoinOrderAvoidsCrossProducts) {
  // `from x in a, y in b, z in c where x.id = z.id and y.id = z.id`: a
  // naive left-deep order joins a and b with no predicate (cross
  // product); the connectivity reorder chains a-c then c-b.
  auto add = [&](const char* table, const char* repo) {
    auto& t = (repo == std::string("r0") ? world_.db0 : world_.db1)
                  .create_table(table, {{"id", memdb::ColumnType::Int}});
    t.insert({Value::integer(1)});
    world_.mediator.execute_odl(
        std::string("interface T_") + table + " { attribute Short id; };\n"
        "extent " + table + " of T_" + table + " wrapper w0 repository " +
        repo + ";");
  };
  add("ja", "r0");
  add("jb", "r0");
  add("jc", "r1");
  std::string text = plan_text(
      "select struct(a: x.id, b: y.id, c: z.id) from x in ja, y in jb, "
      "z in jc where x.id = z.id and y.id = z.id");
  // Every mediator join carries an equi key (hashjoin), no predicate-less
  // nljoin cross product appears.
  EXPECT_EQ(text.find("nljoin"), std::string::npos) << text;
}

TEST_F(OptimizerTest, MetaextentQueriesPlan) {
  Optimizer opt = make();
  auto result = opt.optimize(parse(
      "select x.name from x in metaextent where x.interface = \"Person\""));
  ASSERT_NE(result.plan, nullptr);
  // metaextent is mediator meta-data: a const leaf, no exec at all.
  std::string text = physical::to_physical_string(result.plan);
  EXPECT_EQ(text.find("exec("), std::string::npos) << text;
}

// ------------------------------------------------- candidate enumeration ---

// One query of each pushdown shape over the mixed world (fixtures.hpp),
// whose cost history holds a fixed sequence of observations, so every
// variant's cost is known. Pins how many distinct {R1, R2, R3} variants
// each branch yields, their order, flags and costs, which one wins (a tie
// keeps the earlier variant) and the plan's estimate.
class EnumerationTest : public ::testing::Test {
 protected:
  EnumerationTest() {
    // The fixed observations, in order.
    using algebra::filter;
    using algebra::get;
    using algebra::join;
    using algebra::project;
    CostHistory& h = world_.mediator.cost_history();
    h.record("rm", get("emp", "x"), 0.050, 400);
    h.record("rm", filter(get("emp", "x"), parse("x.salary > 100")), 0.030,
             40);
    // The pushed projection is slower than shipping the selection.
    h.record("rm",
             project(filter(get("emp", "x"), parse("x.salary > 100")),
                     parse("x.name"), false),
             0.035, 40);
    // A join that matches nothing: merged with or without the projection
    // costs the same, a tie.
    auto merged = join(filter(get("emp", "e"), parse("e.salary > 50")),
                       get("dept", "d"), parse("e.dept = d.id"));
    h.record("rm", merged, 0.020, 0);
    h.record("rm",
             project(merged, parse("struct(n: e.name, d: d.dname)"), false),
             0.020, 0);
    h.record("rk", get("acct", "a"), 0.010, 1000);
    h.record("rk", filter(get("acct", "a"), parse("a.id = 3")), 0.002, 1);
    h.record("rc", get("sites", "s"), 0.008, 200);
    h.record("rg", get("staff", "x"), 0.006, 50);
  }

  disco::testing::MixedWorld world_;
};

// Rewrite flags of a pinned candidate.
constexpr unsigned kR1 = 1, kR2 = 2, kR3 = 4;

struct PinnedCandidate {
  const char* logical;
  unsigned flags;
  double total;
  bool chosen;
};

struct PinnedQuery {
  const char* query;
  size_t plans_considered;
  const char* plan;
  Cost estimated;
  std::vector<PinnedCandidate> candidates;
  /// explain() without its pruning line, whose grammar counters count
  /// consultations rather than decide anything.
  const char* explain;
};

// Queries: a memdb leaf with a pushable predicate and projection (a later
// variant wins), a KV equality, the get-only CSV, two joinable extents in
// one repository (R3; two variants tie and the earlier wins), a
// distinct, a grammar that refuses R1, and a two-branch union.
const PinnedQuery kPinned[] = {
    {"select x.name from x in emp where x.salary > 100",
     3,
     "mkproj(x.name, exec(field(rm), select(x.salary > 100, "
     "get(emp, x))))",
     {0.029999999999999999, 7.9999999999999993e-05, 40},
     {
         {"submit(rm, project(x.name, select(x.salary > 100, "
          "get(emp, x))))",
          kR1 | kR2 | kR3, 0.035000000000000003, false},
         {"project(x.name, submit(rm, select(x.salary > 100, "
          "get(emp, x))))",
          kR1 | kR3, 0.030079999999999999, true},
         {"project(x.name, select(x.salary > 100, submit(rm, "
          "get(emp, x))))",
          kR2 | kR3, 0.051200000000000002, false},
     },
     R"(expanded: select x.name from x in emp where x.salary > 100
plan: mkproj(x.name, exec(field(rm), select(x.salary > 100, get(emp, x))))
plans considered: 3
estimated: net 0.030000s, cpu 0.000080s, rows 40.000000
submit rm [wm]: select(x.salary > 100, get(emp, x)) -- learned: time 0.030000s, rows 40.000000 (exact, 1 obs)
decision R1 select-pushdown @ rm/wm: accept select(x.salary > 100, get(emp, x))
candidate: R1 R2 R3, net 0.035000s, rows 40.000000, submit(rm, project(x.name, select(x.salary > 100, get(emp, x))))
candidate (chosen): R1 R3, net 0.030000s, rows 40.000000, project(x.name, submit(rm, select(x.salary > 100, get(emp, x))))
candidate: R2 R3, net 0.050000s, rows 200.000000, project(x.name, select(x.salary > 100, submit(rm, get(emp, x))))
)"},
    {"select a.owner from a in acct where a.id = 7",
     2,
     "mkproj(a.owner, exec(field(rk), select(a.id = 7, "
     "get(acct, a))))",
     {0.002, 1.9999999999999999e-06, 1},
     {
         {"project(a.owner, submit(rk, select(a.id = 7, get(acct, "
          "a))))",
          kR1 | kR2 | kR3, 0.0020019999999999999, true},
         {"project(a.owner, select(a.id = 7, submit(rk, get(acct, "
          "a))))",
          kR2 | kR3, 0.013000000000000001, false},
     },
     R"(expanded: select a.owner from a in acct where a.id = 7
plan: mkproj(a.owner, exec(field(rk), select(a.id = 7, get(acct, a))))
plans considered: 2
estimated: net 0.002000s, cpu 0.000002s, rows 1.000000
submit rk [wk]: select(a.id = 7, get(acct, a)) -- learned: time 0.002000s, rows 1.000000 (close, 1 obs)
decision R1 select-pushdown @ rk/wk: accept select(a.id = 7, get(acct, a))
decision R2 project-pushdown @ rk/wk: reject project(a.owner, select(a.id = 7, get(acct, a)))
candidate (chosen): R1 R2 R3, net 0.002000s, rows 1.000000, project(a.owner, submit(rk, select(a.id = 7, get(acct, a))))
candidate: R2 R3, net 0.010000s, rows 500.000000, project(a.owner, select(a.id = 7, submit(rk, get(acct, a))))
)"},
    {"select s.city from s in sites where s.id = 2",
     1,
     "mkproj(s.city, mkfilter(s.id = 2, exec(field(rc), "
     "get(sites, s))))",
     {0.0080000000000000002, 0.00059999999999999995, 100},
     {
         {"project(s.city, select(s.id = 2, submit(rc, get(sites, "
          "s))))",
          kR1 | kR2 | kR3, 0.0086, true},
     },
     R"(expanded: select s.city from s in sites where s.id = 2
plan: mkproj(s.city, mkfilter(s.id = 2, exec(field(rc), get(sites, s))))
plans considered: 1
estimated: net 0.008000s, cpu 0.000600s, rows 100.000000
submit rc [wc]: get(sites, s) -- learned: time 0.008000s, rows 200.000000 (exact, 1 obs)
decision R1 select-pushdown @ rc/wc: reject select(s.id = 2, get(sites, s))
candidate (chosen): R1 R2 R3, net 0.008000s, rows 100.000000, project(s.city, select(s.id = 2, submit(rc, get(sites, s))))
)"},
    {"select struct(n: e.name, d: d.dname) from e in emp, d in "
      "dept where e.dept = d.id and e.salary > 50",
     4,
     "exec(field(rm), project(struct(n: e.name, d: d.dname), "
     "join(select(e.salary > 50, get(emp, e)), get(dept, d), "
     "e.dept = d.id)))",
     {0.02, 0, 0},
     {
         {"submit(rm, project(struct(n: e.name, d: d.dname), "
          "join(select(e.salary > 50, get(emp, e)), get(dept, d), "
          "e.dept = d.id)))",
          kR1 | kR2 | kR3, 0.02, true},
         {"project(struct(n: e.name, d: d.dname), join(submit(rm, "
          "select(e.salary > 50, get(emp, e))), submit(rm, get(dept, "
          "d)), e.dept = d.id))",
          kR1 | kR2, 0.025033125, false},
         {"project(struct(n: e.name, d: d.dname), submit(rm, "
          "join(select(e.salary > 50, get(emp, e)), get(dept, d), "
          "e.dept = d.id)))",
          kR1 | kR3, 0.02, false},
         {"project(struct(n: e.name, d: d.dname), "
          "join(select(e.salary > 50, submit(rm, get(emp, e))), "
          "submit(rm, get(dept, d)), e.dept = d.id))",
          kR2 | kR3, 0.024801562500000002, false},
     },
     R"(expanded: select struct(n: e.name, d: d.dname) from e in emp, d in dept where e.dept = d.id and e.salary > 50
plan: exec(field(rm), project(struct(n: e.name, d: d.dname), join(select(e.salary > 50, get(emp, e)), get(dept, d), e.dept = d.id)))
plans considered: 4
estimated: net 0.020000s, cpu 0.000000s, rows 0.000000
submit rm [wm]: project(struct(n: e.name, d: d.dname), join(select(e.salary > 50, get(emp, e)), get(dept, d), e.dept = d.id)) -- learned: time 0.020000s, rows 0.000000 (exact, 1 obs)
decision R1 select-pushdown @ rm/wm: accept select(e.salary > 50, get(emp, e))
decision R3 join-merge @ rm/wm: accept join(select(e.salary > 50, get(emp, e)), get(dept, d), e.dept = d.id)
decision R2 project-pushdown @ rm/wm: accept project(struct(n: e.name, d: d.dname), join(select(e.salary > 50, get(emp, e)), get(dept, d), e.dept = d.id))
candidate (chosen): R1 R2 R3, net 0.020000s, rows 0.000000, submit(rm, project(struct(n: e.name, d: d.dname), join(select(e.salary > 50, get(emp, e)), get(dept, d), e.dept = d.id)))
candidate: R1 R2, net 0.024375s, rows 264.062500, project(struct(n: e.name, d: d.dname), join(submit(rm, select(e.salary > 50, get(emp, e))), submit(rm, get(dept, d)), e.dept = d.id))
candidate: R1 R3, net 0.020000s, rows 0.000000, project(struct(n: e.name, d: d.dname), submit(rm, join(select(e.salary > 50, get(emp, e)), get(dept, d), e.dept = d.id)))
candidate: R2 R3, net 0.024375s, rows 132.031250, project(struct(n: e.name, d: d.dname), join(select(e.salary > 50, submit(rm, get(emp, e))), submit(rm, get(dept, d)), e.dept = d.id))
)"},
    {"select distinct x.dept from x in emp where x.salary > 10",
     2,
     "mkproj(distinct x.dept, exec(field(rm), select(x.salary > "
     "10, get(emp, x))))",
     {0.029999999999999999, 7.9999999999999993e-05, 40},
     {
         {"project(distinct x.dept, submit(rm, select(x.salary > 10, "
          "get(emp, x))))",
          kR1 | kR2 | kR3, 0.030079999999999999, true},
         {"project(distinct x.dept, select(x.salary > 10, submit(rm, "
          "get(emp, x))))",
          kR2 | kR3, 0.051200000000000002, false},
     },
     R"(expanded: select distinct x.dept from x in emp where x.salary > 10
plan: mkproj(distinct x.dept, exec(field(rm), select(x.salary > 10, get(emp, x))))
plans considered: 2
estimated: net 0.030000s, cpu 0.000080s, rows 40.000000
submit rm [wm]: select(x.salary > 10, get(emp, x)) -- learned: time 0.030000s, rows 40.000000 (close, 1 obs)
decision R1 select-pushdown @ rm/wm: accept select(x.salary > 10, get(emp, x))
candidate (chosen): R1 R2 R3, net 0.030000s, rows 40.000000, project(distinct x.dept, submit(rm, select(x.salary > 10, get(emp, x))))
candidate: R2 R3, net 0.050000s, rows 200.000000, project(distinct x.dept, select(x.salary > 10, submit(rm, get(emp, x))))
)"},
    {"select x.name from x in staff where x.salary > 100",
     1,
     "mkproj(x.name, mkfilter(x.salary > 100, exec(field(rg), "
     "get(staff, x))))",
     {0.0060000000000000001, 0.00014999999999999999, 25},
     {
         {"project(x.name, select(x.salary > 100, submit(rg, "
          "get(staff, x))))",
          kR1 | kR2 | kR3, 0.0061500000000000001, true},
     },
     R"(expanded: select x.name from x in staff where x.salary > 100
plan: mkproj(x.name, mkfilter(x.salary > 100, exec(field(rg), get(staff, x))))
plans considered: 1
estimated: net 0.006000s, cpu 0.000150s, rows 25.000000
submit rg [wg]: get(staff, x) -- learned: time 0.006000s, rows 50.000000 (exact, 1 obs)
decision R1 select-pushdown @ rg/wg: reject select(x.salary > 100, get(staff, x))
candidate (chosen): R1 R2 R3, net 0.006000s, rows 25.000000, project(x.name, select(x.salary > 100, submit(rg, get(staff, x))))
)"},
    {"select x.name from x in emps where x.salary > 100",
     4,
     "mkunion(mkproj(x.name, exec(field(rm), select(x.salary > "
     "100, get(emp, x)))), mkproj(x.name, mkfilter(x.salary > "
     "100, exec(field(rg), get(staff, x)))))",
     {0.029999999999999999, 0.00022999999999999998, 65},
     {
         {"submit(rm, project(x.name, select(x.salary > 100, "
          "get(emp, x))))",
          kR1 | kR2 | kR3, 0.035000000000000003, false},
         {"project(x.name, submit(rm, select(x.salary > 100, "
          "get(emp, x))))",
          kR1 | kR3, 0.030079999999999999, true},
         {"project(x.name, select(x.salary > 100, submit(rm, "
          "get(emp, x))))",
          kR2 | kR3, 0.051200000000000002, false},
         {"project(x.name, select(x.salary > 100, submit(rg, "
          "get(staff, x))))",
          kR1 | kR2 | kR3, 0.0061500000000000001, true},
     },
     R"(expanded: select x.name from x in emps where x.salary > 100
plan: mkunion(mkproj(x.name, exec(field(rm), select(x.salary > 100, get(emp, x)))), mkproj(x.name, mkfilter(x.salary > 100, exec(field(rg), get(staff, x)))))
plans considered: 4
estimated: net 0.030000s, cpu 0.000230s, rows 65.000000
submit rm [wm]: select(x.salary > 100, get(emp, x)) -- learned: time 0.030000s, rows 40.000000 (exact, 1 obs)
submit rg [wg]: get(staff, x) -- learned: time 0.006000s, rows 50.000000 (exact, 1 obs)
decision R1 select-pushdown @ rm/wm: accept select(x.salary > 100, get(emp, x))
decision R1 select-pushdown @ rg/wg: reject select(x.salary > 100, get(staff, x))
candidate: R1 R2 R3, net 0.035000s, rows 40.000000, submit(rm, project(x.name, select(x.salary > 100, get(emp, x))))
candidate (chosen): R1 R3, net 0.030000s, rows 40.000000, project(x.name, submit(rm, select(x.salary > 100, get(emp, x))))
candidate: R2 R3, net 0.050000s, rows 200.000000, project(x.name, select(x.salary > 100, submit(rm, get(emp, x))))
candidate (chosen): R1 R2 R3, net 0.006000s, rows 25.000000, project(x.name, select(x.salary > 100, submit(rg, get(staff, x))))
)"},
};

std::string without_pruning_line(const std::string& explain) {
  std::string out;
  for (const std::string& line : split(explain, '\n')) {
    if (line.empty() || line.starts_with("pruning:")) continue;
    out += line + "\n";
  }
  return out;
}

TEST_F(EnumerationTest, VariantsCostsTiesAndExplainArePinned) {
  for (const PinnedQuery& pinned : kPinned) {
    SCOPED_TRACE(pinned.query);
    Mediator::ExplainReport report =
        world_.mediator.explain_report(pinned.query);
    EXPECT_EQ(report.plans_considered, pinned.plans_considered);
    EXPECT_EQ(report.plan, pinned.plan);
    EXPECT_DOUBLE_EQ(report.estimated.net_s, pinned.estimated.net_s);
    EXPECT_DOUBLE_EQ(report.estimated.cpu_s, pinned.estimated.cpu_s);
    EXPECT_DOUBLE_EQ(report.estimated.rows, pinned.estimated.rows);
    ASSERT_EQ(report.candidates.size(), pinned.candidates.size());
    for (size_t i = 0; i < pinned.candidates.size(); ++i) {
      const PlanCandidate& got = report.candidates[i];
      const PinnedCandidate& want = pinned.candidates[i];
      EXPECT_EQ(got.logical, want.logical) << i;
      EXPECT_EQ(got.push_select, (want.flags & kR1) != 0) << i;
      EXPECT_EQ(got.push_project, (want.flags & kR2) != 0) << i;
      EXPECT_EQ(got.merge_joins, (want.flags & kR3) != 0) << i;
      EXPECT_FALSE(got.bind_join) << i;
      EXPECT_DOUBLE_EQ(got.cost.total(), want.total) << i;
      EXPECT_EQ(got.chosen, want.chosen) << i;
    }
    EXPECT_EQ(without_pruning_line(report.to_string()), pinned.explain);
  }
}

}  // namespace
}  // namespace disco::optimizer
