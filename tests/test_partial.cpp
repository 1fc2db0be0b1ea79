// §4 partial-evaluation semantics, end to end: unavailable sources turn
// answers into queries; resubmitting the answer when sources return
// yields the full answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fixtures.hpp"
#include "oql/parser.hpp"

namespace disco {
namespace {

using disco::testing::PaperWorld;

TEST(PartialEval, PaperSection13Example) {
  // §1.3: r0 does not respond; the answer embeds a query over person0 and
  // the data bag("Sam").
  PaperWorld world;
  world.mediator.network().set_availability(
      "r0", net::Availability::always_down());
  Answer a = world.mediator.query(
      "select x.name from x in person where x.salary > 10");
  ASSERT_FALSE(a.complete());
  EXPECT_EQ(a.data(), Value::bag({Value::string("Sam")}));
  ASSERT_EQ(a.residual_queries().size(), 1u);
  EXPECT_EQ(a.residual_queries()[0],
            "select x.name from x in person0 where x.salary > 10");
  EXPECT_EQ(a.to_oql(),
            "union((select x.name from x in person0 where x.salary > 10), "
            "bag(\"Sam\"))");
}

TEST(PartialEval, ResubmissionCompletesTheAnswer) {
  // §1.3: "when r0 becomes available, this partial answer could be
  // submitted as a new query ... and the answer Bag("Mary", "Sam") would
  // be returned."
  PaperWorld world;
  world.mediator.network().set_availability(
      "r0", net::Availability::always_down());
  Answer partial = world.mediator.query(
      "select x.name from x in person where x.salary > 10");
  ASSERT_FALSE(partial.complete());

  world.mediator.network().set_availability(
      "r0", net::Availability::always_up());
  Answer full = world.mediator.query(partial.to_oql());
  ASSERT_TRUE(full.complete());
  EXPECT_EQ(full.data(),
            Value::bag({Value::string("Mary"), Value::string("Sam")}));
}

TEST(PartialEval, AllSourcesDownYieldsPureQuery) {
  PaperWorld world;
  world.mediator.network().set_availability(
      "r0", net::Availability::always_down());
  world.mediator.network().set_availability(
      "r1", net::Availability::always_down());
  Answer a = world.mediator.query("select x.name from x in person");
  ASSERT_FALSE(a.complete());
  EXPECT_EQ(a.data().size(), 0u);
  EXPECT_EQ(a.residual_queries().size(), 2u);
  // No data part: the answer is the union of the two residual queries.
  EXPECT_EQ(a.to_oql(),
            "union((select x.name from x in person0), "
            "(select x.name from x in person1))");
}

TEST(PartialEval, ChainedPartialRecovery) {
  // Sources come back one at a time; each resubmission narrows the
  // residual until the answer is complete.
  PaperWorld world;
  auto& net = world.mediator.network();
  net.set_availability("r0", net::Availability::always_down());
  net.set_availability("r1", net::Availability::always_down());
  Answer a0 = world.mediator.query(
      "select x.name from x in person where x.salary > 10");
  EXPECT_EQ(a0.residual_queries().size(), 2u);

  net.set_availability("r1", net::Availability::always_up());
  Answer a1 = world.mediator.query(a0.to_oql());
  ASSERT_FALSE(a1.complete());
  EXPECT_EQ(a1.residual_queries().size(), 1u);
  EXPECT_EQ(a1.data(), Value::bag({Value::string("Sam")}));

  net.set_availability("r0", net::Availability::always_up());
  Answer a2 = world.mediator.query(a1.to_oql());
  ASSERT_TRUE(a2.complete());
  EXPECT_EQ(a2.data(),
            Value::bag({Value::string("Mary"), Value::string("Sam")}));
}

TEST(PartialEval, DeadlineTurnsSlowSourceIntoResidual) {
  PaperWorld world;
  // r1 has 20ms base latency; 15ms deadline.
  Answer a = world.mediator.query("select x.name from x in person",
                                  QueryOptions{.deadline_s = 0.015});
  ASSERT_FALSE(a.complete());
  EXPECT_EQ(a.data(), Value::bag({Value::string("Mary")}));
  EXPECT_EQ(a.residual_queries()[0],
            "select x.name from x in person1");
  // With a roomier deadline the same query completes.
  Answer b = world.mediator.query("select x.name from x in person",
                                  QueryOptions{.deadline_s = 0.5});
  EXPECT_TRUE(b.complete());
}

TEST(PartialEval, JoinBranchTurnsWhollyResidual) {
  PaperWorld world;
  world.mediator.network().set_availability(
      "r1", net::Availability::always_down());
  Answer a = world.mediator.query(
      "select struct(a: x.name, b: y.name) from x in person0, "
      "y in person1 where x.id = y.id");
  ASSERT_FALSE(a.complete());
  EXPECT_EQ(a.data().size(), 0u);
  EXPECT_EQ(a.residual_queries()[0],
            "select struct(a: x.name, b: y.name) from x in person0, "
            "y in person1 where x.id = y.id");
}

TEST(PartialEval, PartialAnswerOfPartialAnswerStillConverges) {
  // A resubmitted partial answer that *again* hits a down source remains
  // a well-formed query (closure under partial evaluation).
  PaperWorld world;
  auto& net = world.mediator.network();
  net.set_availability("r0", net::Availability::always_down());
  Answer a0 = world.mediator.query("select x.name from x in person");
  Answer a1 = world.mediator.query(a0.to_oql());  // r0 still down
  ASSERT_FALSE(a1.complete());
  EXPECT_EQ(a1.data(), Value::bag({Value::string("Sam")}));

  net.set_availability("r0", net::Availability::always_up());
  Answer a2 = world.mediator.query(a1.to_oql());
  ASSERT_TRUE(a2.complete());
  EXPECT_EQ(a2.data(),
            Value::bag({Value::string("Mary"), Value::string("Sam")}));
}

TEST(PartialEval, UnavailableAuxMakesWholeQueryResidual) {
  // Nested-subquery extents are all-or-nothing (documented in
  // mediator.cpp): if their fetch fails, the residual is the whole query.
  PaperWorld world;
  world.mediator.network().set_availability(
      "r1", net::Availability::always_down());
  Answer a = world.mediator.query(
      "select struct(n: x.name, t: sum(select z.salary from z in person "
      "where z.id = x.id)) from x in person0");
  ASSERT_FALSE(a.complete());
  EXPECT_EQ(a.data().size(), 0u);
  ASSERT_EQ(a.residual_queries().size(), 1u);
  // The residual is the original (view-expanded) query; resubmission
  // succeeds once r1 returns.
  world.mediator.network().set_availability(
      "r1", net::Availability::always_up());
  Answer b = world.mediator.query(a.to_oql());
  ASSERT_TRUE(b.complete());
  ASSERT_EQ(b.data().size(), 1u);
  EXPECT_EQ(b.data().items()[0].field("t"), Value::integer(200));
}

TEST(PartialEval, PushedDownPlansProduceTheSamePartialAnswers) {
  // Pushdown must not change partial-evaluation semantics: a filter that
  // was pushed into the submit comes back out in the residual query.
  PaperWorld world;
  world.mediator.network().set_availability(
      "r0", net::Availability::always_down());
  Answer a = world.mediator.query(
      "select x.name from x in person where x.salary > 10");
  ASSERT_FALSE(a.complete());
  // The residual keeps the predicate even though it had been pushed.
  EXPECT_NE(a.residual_queries()[0].find("x.salary > 10"),
            std::string::npos);
}

TEST(PartialEval, FlakySourcesWithSeededRandomness) {
  PaperWorld world;
  world.mediator.network().set_availability(
      "r0", net::Availability::random(0.5));
  int complete = 0;
  int partial = 0;
  for (int i = 0; i < 40; ++i) {
    Answer a = world.mediator.query("select x.name from x in person");
    if (a.complete()) {
      EXPECT_EQ(a.data().size(), 2u);
      ++complete;
    } else {
      EXPECT_EQ(a.data(), Value::bag({Value::string("Sam")}));
      ++partial;
    }
  }
  EXPECT_GT(complete, 5);
  EXPECT_GT(partial, 5);
}

TEST(PartialEval, PeriodicOutageFollowsTheClock) {
  // r0 up for 1s then down for 1s; queries cost ~10ms, so whether the
  // query lands in the outage window depends on accumulated virtual time.
  PaperWorld world;
  world.mediator.network().set_availability(
      "r0", net::Availability::periodic(1.0, 1.0));
  Answer up = world.mediator.query("select x.name from x in person0");
  EXPECT_TRUE(up.complete());
  // Push the clock into the outage window.
  world.mediator.clock().advance(1.2);
  Answer down = world.mediator.query("select x.name from x in person0");
  EXPECT_FALSE(down.complete());
}

TEST(PartialEval, RoundTripEqualsNeverFailedAnswerAcrossQueryShapes) {
  // Differential form of the §4 promise (test_differential.cpp style):
  // for a spread of query shapes, the partial Answer::to_oql() fed back
  // verbatim after the source recovers must equal, as a multiset, the
  // answer of a federation that never failed.
  const std::vector<std::string> queries = {
      "select x.name from x in person",
      "select x.name from x in person where x.salary > 10",
      "select struct(n: x.name, s: x.salary) from x in person "
      "where x.salary >= 50",
      "select distinct x.name from x in person where x.id >= 1",
      "select struct(a: x.name, b: y.name) from x in person0, "
      "y in person1 where x.id < y.id",
  };
  auto sorted_rows = [](const Answer& answer) {
    std::vector<std::string> rows;
    for (const Value& item : answer.data().items()) {
      rows.push_back(item.to_oql());
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  for (const std::string& query : queries) {
    PaperWorld healthy;
    Answer expected = healthy.mediator.query(query);
    ASSERT_TRUE(expected.complete()) << query;

    PaperWorld flaky;
    flaky.mediator.network().set_availability(
        "r0", net::Availability::always_down());
    Answer partial = flaky.mediator.query(query);
    ASSERT_FALSE(partial.complete()) << query;

    flaky.mediator.network().set_availability(
        "r0", net::Availability::always_up());
    Answer recovered = flaky.mediator.query(partial.to_oql());
    ASSERT_TRUE(recovered.complete()) << query;
    EXPECT_EQ(sorted_rows(recovered), sorted_rows(expected)) << query;
  }
}

// -- union-merge edge cases -------------------------------------------------
//
// The §4 answer is union(residuals, data); these pin the degenerate
// merges of the runtime's union, in the shapes the differential harness
// generates.

TEST(PartialEval, EmptyPartialWithNonEmptyResidualMerges) {
  // The available source contributes zero rows (Sam's salary is 50),
  // so the partial is pure residual over the down source.
  PaperWorld world;
  world.mediator.network().set_availability(
      "r0", net::Availability::always_down());
  Answer a = world.mediator.query(
      "select x.name from x in person where x.salary > 100");
  ASSERT_FALSE(a.complete());
  EXPECT_EQ(a.data().size(), 0u);
  ASSERT_EQ(a.residual_queries().size(), 1u);

  world.mediator.network().set_availability(
      "r0", net::Availability::always_up());
  Answer b = world.mediator.query(a.to_oql());
  ASSERT_TRUE(b.complete());
  EXPECT_EQ(b.data(), Value::bag({Value::string("Mary")}));
}

TEST(PartialEval, DuplicateRowsAcrossResubmissionsKeepMultiplicity) {
  // r1 holds a second "Mary": the recovered residual's rows duplicate a
  // row already in the partial's data bag, and bag union must keep both
  // ("the union of two bags is a bag", §1.3) — a set-style merge would
  // silently drop one.
  PaperWorld world;
  world.db1.table("person1").insert(
      {Value::integer(3), Value::string("Mary"), Value::integer(200)});
  world.mediator.network().set_availability(
      "r0", net::Availability::always_down());
  Answer a = world.mediator.query(
      "select x.name from x in person where x.salary > 10");
  ASSERT_FALSE(a.complete());
  EXPECT_EQ(a.data(), Value::bag({Value::string("Sam"),
                                  Value::string("Mary")}));

  world.mediator.network().set_availability(
      "r0", net::Availability::always_up());
  Answer b = world.mediator.query(a.to_oql());
  ASSERT_TRUE(b.complete());
  EXPECT_EQ(b.data().size(), 3u);
  size_t marys = 0;
  for (const Value& item : b.data().items()) {
    if (item == Value::string("Mary")) ++marys;
  }
  EXPECT_EQ(marys, 2u);
}

TEST(PartialEval, ZeroRowCompleteAfterAPartial) {
  // The recovered source matches nothing: resubmission must settle to a
  // COMPLETE answer with an empty bag, not stay partial and not invent
  // rows.
  PaperWorld world;
  world.mediator.network().set_availability(
      "r0", net::Availability::always_down());
  Answer a = world.mediator.query(
      "select x.name from x in person where x.salary > 300");
  ASSERT_FALSE(a.complete());
  EXPECT_EQ(a.data().size(), 0u);
  ASSERT_EQ(a.residual_queries().size(), 1u);

  world.mediator.network().set_availability(
      "r0", net::Availability::always_up());
  Answer b = world.mediator.query(a.to_oql());
  ASSERT_TRUE(b.complete());
  EXPECT_EQ(b.data(), Value::bag({}));
  EXPECT_TRUE(b.residual_queries().empty());
}

TEST(PartialEval, StatsCountUnavailableCalls) {
  PaperWorld world;
  world.mediator.network().set_availability(
      "r0", net::Availability::always_down());
  Answer a = world.mediator.query("select x.name from x in person");
  EXPECT_EQ(a.stats().run.exec_calls, 2u);
  EXPECT_EQ(a.stats().run.unavailable_calls, 1u);
}

TEST(PartialEval, QueriesJustUnderTheDepthBoundRunAndResubmit) {
  // A few levels under oql::kMaxDepth, each query passes typecheck, the
  // optimizer, wrapper translation (MiniSQL), evaluation and to_oql; its
  // partial answer, one level deeper, parses and completes.
  auto repeat = [](const std::string& unit, size_t count) {
    std::string out;
    for (size_t i = 0; i < count; ++i) out += unit;
    return out;
  };
  const size_t n = oql::kMaxDepth - 8;
  const std::vector<std::string> queries = {
      // A pushed-down `or` chain.
      "select x.name from x in person where " +
          repeat("x.salary = 7 or ", n - 2) + "x.salary = 200 or " +
          "x.salary = 50",
      // Right-nested arithmetic, evaluated in the mediator.
      "select x.name from x in person where x.salary" +
          repeat(" + (1", n - 2) + " + 0" + repeat(")", n - 2) + " > 0",
      // Prefix chains.
      "select x.name from x in person where " + repeat("not ", n - 4) +
          "(x.salary > 10)",
      "select " + repeat("- ", n - 4) + "x.salary from x in person",
  };
  for (const std::string& query : queries) {
    const std::string head = query.substr(0, 60);
    PaperWorld world;
    Answer all = world.mediator.query(query);
    ASSERT_TRUE(all.complete()) << head;
    ASSERT_EQ(all.data().size(), 2u) << head;
    EXPECT_NO_THROW(oql::parse(all.to_oql())) << head;

    world.mediator.network().set_availability(
        "r0", net::Availability::always_down());
    Answer partial = world.mediator.query(query);
    ASSERT_FALSE(partial.complete()) << head;
    world.mediator.network().set_availability(
        "r0", net::Availability::always_up());
    Answer resubmitted = world.mediator.query(partial.to_oql());
    ASSERT_TRUE(resubmitted.complete()) << head;
    EXPECT_EQ(resubmitted.data(), all.data()) << head;
  }
}

}  // namespace
}  // namespace disco
