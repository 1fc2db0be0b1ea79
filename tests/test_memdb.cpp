#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sources/memdb/database.hpp"
#include "sources/memdb/engine.hpp"
#include "sources/memdb/index.hpp"
#include "sources/memdb/minisql.hpp"

namespace disco::memdb {
namespace {

Database people_db() {
  Database db("db");
  Table& person = db.create_table(
      "person0", {{"id", ColumnType::Int},
                  {"name", ColumnType::Text},
                  {"salary", ColumnType::Int}});
  person.insert({Value::integer(1), Value::string("Mary"),
                 Value::integer(200)});
  person.insert({Value::integer(2), Value::string("Sam"),
                 Value::integer(50)});
  person.insert({Value::integer(3), Value::string("Lou"),
                 Value::integer(5)});
  Table& dept = db.create_table("dept", {{"pid", ColumnType::Int},
                                         {"dept", ColumnType::Text}});
  dept.insert({Value::integer(1), Value::string("cs")});
  dept.insert({Value::integer(2), Value::string("bio")});
  return db;
}

// ---------------------------------------------------------------- tables ---

TEST(TableTest, InsertChecksArityAndTypes) {
  Table t("t", {{"a", ColumnType::Int}, {"b", ColumnType::Text}});
  EXPECT_NO_THROW(t.insert({Value::integer(1), Value::string("x")}));
  EXPECT_THROW(t.insert({Value::integer(1)}), TypeError);
  EXPECT_THROW(t.insert({Value::string("x"), Value::string("y")}),
               TypeError);
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(TableTest, NullAllowedEverywhere) {
  Table t("t", {{"a", ColumnType::Int}});
  EXPECT_NO_THROW(t.insert({Value::null()}));
}

TEST(TableTest, IntAcceptedForRealColumns) {
  Table t("t", {{"a", ColumnType::Real}});
  EXPECT_NO_THROW(t.insert({Value::integer(1)}));
  EXPECT_NO_THROW(t.insert({Value::real(1.5)}));
  EXPECT_THROW(t.insert({Value::string("x")}), TypeError);
}

TEST(TableTest, DuplicateColumnRejected) {
  EXPECT_THROW(Table("t", {{"a", ColumnType::Int}, {"a", ColumnType::Int}}),
               TypeError);
}

TEST(TableTest, ColumnIndex) {
  Table t("t", {{"a", ColumnType::Int}, {"b", ColumnType::Text}});
  EXPECT_EQ(t.column_index("b"), 1);
  EXPECT_EQ(t.column_index("zz"), -1);
}

TEST(DatabaseTest, TableRegistry) {
  Database db;
  db.create_table("t", {{"a", ColumnType::Int}});
  EXPECT_TRUE(db.has_table("t"));
  EXPECT_THROW(db.create_table("t", {{"a", ColumnType::Int}}), CatalogError);
  EXPECT_THROW(db.table("nope"), CatalogError);
  EXPECT_EQ(db.table_names(), (std::vector<std::string>{"t"}));
}

// --------------------------------------------------------------- parsing ---

TEST(MiniSqlParse, SelectStar) {
  Query q = parse_minisql("SELECT * FROM person0");
  EXPECT_TRUE(q.star);
  ASSERT_EQ(q.tables.size(), 1u);
  EXPECT_EQ(q.tables[0].table, "person0");
  EXPECT_EQ(q.tables[0].alias, "person0");
  EXPECT_EQ(q.where, nullptr);
}

TEST(MiniSqlParse, ColumnsAliasesAndQualifiers) {
  Query q = parse_minisql(
      "SELECT name, p.salary AS pay FROM person0 AS p");
  ASSERT_EQ(q.items.size(), 2u);
  EXPECT_EQ(q.items[0].column.column, "name");
  EXPECT_EQ(q.items[1].column.table, "p");
  EXPECT_EQ(q.items[1].alias, "pay");
  EXPECT_EQ(q.tables[0].alias, "p");
}

TEST(MiniSqlParse, ImplicitAlias) {
  Query q = parse_minisql("SELECT * FROM person0 p, dept d");
  ASSERT_EQ(q.tables.size(), 2u);
  EXPECT_EQ(q.tables[0].alias, "p");
  EXPECT_EQ(q.tables[1].alias, "d");
}

TEST(MiniSqlParse, WherePredicateTree) {
  Query q = parse_minisql(
      "SELECT * FROM t WHERE a > 10 AND (b = \"x\" OR NOT c <= 2.5)");
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.where->kind, Pred::Kind::And);
  EXPECT_EQ(q.where->right->kind, Pred::Kind::Or);
  EXPECT_EQ(q.where->right->right->kind, Pred::Kind::Not);
  auto parts = conjuncts(q.where);
  EXPECT_EQ(parts.size(), 2u);
}

TEST(MiniSqlParse, LiteralKinds) {
  Query q = parse_minisql(
      "SELECT * FROM t WHERE a = -5 AND b = 2.5 AND c = true AND "
      "d = \"s\" AND e = null AND f = -2.5");
  auto parts = conjuncts(q.where);
  ASSERT_EQ(parts.size(), 6u);
  EXPECT_EQ(parts[0]->rhs.literal, Value::integer(-5));
  EXPECT_EQ(parts[1]->rhs.literal, Value::real(2.5));
  EXPECT_EQ(parts[2]->rhs.literal, Value::boolean(true));
  EXPECT_EQ(parts[3]->rhs.literal, Value::string("s"));
  EXPECT_EQ(parts[4]->rhs.literal, Value::null());
  EXPECT_EQ(parts[5]->rhs.literal, Value::real(-2.5));
}

TEST(MiniSqlParse, Errors) {
  EXPECT_THROW(parse_minisql("FROM t"), ParseError);
  EXPECT_THROW(parse_minisql("SELECT"), ParseError);
  EXPECT_THROW(parse_minisql("SELECT * FROM"), ParseError);
  EXPECT_THROW(parse_minisql("SELECT * FROM t WHERE"), ParseError);
  EXPECT_THROW(parse_minisql("SELECT * FROM t WHERE a"), ParseError);
  EXPECT_THROW(parse_minisql("SELECT * FROM t extra junk"), ParseError);
  EXPECT_THROW(parse_minisql("SELECT * FROM t WHERE a = (1"), ParseError);
}

TEST(MiniSqlParse, ToSqlRoundTrip) {
  const char* queries[] = {
      "SELECT * FROM person0",
      "SELECT name FROM person0",
      "SELECT p.name AS n, p.salary FROM person0 p WHERE p.salary > 10",
      "SELECT * FROM a x, b y WHERE x.k = y.k AND x.v <> \"z\"",
  };
  for (const char* text : queries) {
    Query q = parse_minisql(text);
    Query reparsed = parse_minisql(q.to_sql());
    EXPECT_EQ(reparsed.to_sql(), q.to_sql()) << text;
  }
}

// -------------------------------------------------------------- execution ---

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : db_(people_db()), engine_(&db_) {}
  ResultSet run(const std::string& sql) { return engine_.execute_sql(sql); }
  Database db_;
  Engine engine_;
};

TEST_F(EngineTest, FullScan) {
  ResultSet rs = run("SELECT * FROM person0");
  EXPECT_EQ(rs.rows.size(), 3u);
  ASSERT_EQ(rs.columns.size(), 3u);
  EXPECT_EQ(rs.columns[0].alias, "person0");
  EXPECT_EQ(rs.columns[1].name, "name");
}

TEST_F(EngineTest, FilterPushdown) {
  ResultSet rs = run("SELECT * FROM person0 WHERE salary > 10");
  EXPECT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(engine_.last_stats().rows_scanned, 3u);
}

TEST_F(EngineTest, Projection) {
  ResultSet rs = run("SELECT name FROM person0 WHERE salary > 100");
  ASSERT_EQ(rs.rows.size(), 1u);
  ASSERT_EQ(rs.columns.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::string("Mary"));
}

TEST_F(EngineTest, ProjectionAlias) {
  ResultSet rs = run("SELECT name AS n FROM person0");
  EXPECT_EQ(rs.columns[0].name, "n");
}

TEST_F(EngineTest, StringComparison) {
  ResultSet rs = run("SELECT * FROM person0 WHERE name = \"Sam\"");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][2], Value::integer(50));
}

TEST_F(EngineTest, OrAndNot) {
  EXPECT_EQ(run("SELECT * FROM person0 WHERE name = \"Sam\" OR salary > 100")
                .rows.size(),
            2u);
  EXPECT_EQ(run("SELECT * FROM person0 WHERE NOT salary > 10").rows.size(),
            1u);
}

TEST_F(EngineTest, JoinTwoTables) {
  ResultSet rs = run(
      "SELECT p.name, d.dept FROM person0 p, dept d WHERE p.id = d.pid");
  EXPECT_EQ(rs.rows.size(), 2u);
  ASSERT_EQ(rs.columns.size(), 2u);
  EXPECT_EQ(rs.columns[0].alias, "p");
  EXPECT_EQ(rs.columns[1].alias, "d");
}

TEST_F(EngineTest, JoinWithExtraFilter) {
  ResultSet rs = run(
      "SELECT p.name FROM person0 p, dept d "
      "WHERE p.id = d.pid AND d.dept = \"cs\"");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value::string("Mary"));
}

TEST_F(EngineTest, CrossProductWithoutPredicate) {
  ResultSet rs = run("SELECT * FROM person0, dept");
  EXPECT_EQ(rs.rows.size(), 6u);  // 3 x 2
}

TEST_F(EngineTest, SelfJoinNeedsAliases) {
  ResultSet rs = run(
      "SELECT a.name, b.name FROM person0 a, person0 b "
      "WHERE a.salary > b.salary");
  EXPECT_EQ(rs.rows.size(), 3u);  // (Mary,Sam) (Mary,Lou) (Sam,Lou)
  EXPECT_THROW(run("SELECT * FROM person0, person0"), ExecutionError);
}

TEST_F(EngineTest, AmbiguousColumnRejected) {
  EXPECT_THROW(
      run("SELECT name FROM person0 a, person0 b WHERE a.id = b.id"),
      ExecutionError);
}

TEST_F(EngineTest, UnknownColumnRejected) {
  EXPECT_THROW(run("SELECT zz FROM person0"), ExecutionError);
  EXPECT_THROW(run("SELECT * FROM person0 WHERE zz = 1"), ExecutionError);
}

TEST_F(EngineTest, UnknownTableRejected) {
  EXPECT_THROW(run("SELECT * FROM missing"), CatalogError);
}

TEST_F(EngineTest, NumericCoercionInPredicates) {
  ResultSet rs = run("SELECT * FROM person0 WHERE salary = 200.0");
  EXPECT_EQ(rs.rows.size(), 1u);
}

// Join algorithm equivalence: all three strategies produce the same
// multiset of rows, including duplicate keys.
class JoinStrategyTest : public ::testing::TestWithParam<JoinStrategy> {};

TEST_P(JoinStrategyTest, StrategiesAgree) {
  Database db;
  Table& l = db.create_table("l", {{"k", ColumnType::Int},
                                   {"lv", ColumnType::Int}});
  Table& r = db.create_table("r", {{"k", ColumnType::Int},
                                   {"rv", ColumnType::Int}});
  // Duplicate keys on both sides to exercise run handling in merge join.
  for (int i = 0; i < 30; ++i) {
    l.insert({Value::integer(i % 10), Value::integer(i)});
    r.insert({Value::integer(i % 5), Value::integer(100 + i)});
  }
  Engine reference(&db);
  reference.set_join_strategy(JoinStrategy::NestedLoop);
  ResultSet expected = reference.execute_sql(
      "SELECT * FROM l, r WHERE l.k = r.k");

  Engine engine(&db);
  engine.set_join_strategy(GetParam());
  ResultSet actual =
      engine.execute_sql("SELECT * FROM l, r WHERE l.k = r.k");

  ASSERT_EQ(actual.rows.size(), expected.rows.size());
  // Compare as multisets via sorted row bags.
  auto to_bag = [](const ResultSet& rs) {
    std::vector<Value> items;
    for (const Row& row : rs.rows) items.push_back(Value::list(row));
    return Value::bag(std::move(items));
  };
  EXPECT_EQ(to_bag(actual), to_bag(expected));
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, JoinStrategyTest,
                         ::testing::Values(JoinStrategy::NestedLoop,
                                           JoinStrategy::Hash,
                                           JoinStrategy::Merge,
                                           JoinStrategy::Auto));

TEST_F(EngineTest, AutoUsesHashJoinOnLargeEquiJoins) {
  Database db;
  Table& l = db.create_table("l", {{"k", ColumnType::Int}});
  Table& r = db.create_table("r", {{"k", ColumnType::Int}});
  for (int i = 0; i < 50; ++i) {
    l.insert({Value::integer(i)});
    r.insert({Value::integer(i)});
  }
  Engine engine(&db);
  engine.execute_sql("SELECT * FROM l, r WHERE l.k = r.k");
  EXPECT_EQ(engine.last_stats().hash_joins, 1u);
  EXPECT_EQ(engine.last_stats().nested_loop_joins, 0u);
}

TEST_F(EngineTest, ThreeWayJoin) {
  Database db;
  Table& a = db.create_table("a", {{"k", ColumnType::Int}});
  Table& b = db.create_table("b", {{"k", ColumnType::Int},
                                   {"j", ColumnType::Int}});
  Table& c = db.create_table("c", {{"j", ColumnType::Int}});
  for (int i = 0; i < 10; ++i) {
    a.insert({Value::integer(i)});
    b.insert({Value::integer(i), Value::integer(i * 2)});
    c.insert({Value::integer(i * 2)});
  }
  Engine engine(&db);
  ResultSet rs = engine.execute_sql(
      "SELECT * FROM a, b, c WHERE a.k = b.k AND b.j = c.j");
  EXPECT_EQ(rs.rows.size(), 10u);
}

TEST_F(EngineTest, NonEquiJoinFallsBackToNestedLoop) {
  Database db;
  Table& l = db.create_table("l", {{"k", ColumnType::Int}});
  Table& r = db.create_table("r", {{"k", ColumnType::Int}});
  for (int i = 0; i < 20; ++i) {
    l.insert({Value::integer(i)});
    r.insert({Value::integer(i)});
  }
  Engine engine(&db);
  ResultSet rs = engine.execute_sql("SELECT * FROM l, r WHERE l.k < r.k");
  EXPECT_EQ(rs.rows.size(), 190u);  // 20*19/2
  EXPECT_EQ(engine.last_stats().nested_loop_joins, 1u);
}

// --------------------------------------------------------------- indexes ---

TEST(OrderedIndexTest, ProbeFindsEqualRun) {
  OrderedIndex index("ix", 0);
  index.insert(Value::integer(5), 2);
  index.insert(Value::integer(5), 0);
  index.insert(Value::integer(3), 1);
  index.insert(Value::integer(9), 3);
  std::vector<size_t> hits;
  index.probe(Value::integer(5), &hits);
  EXPECT_EQ(hits, (std::vector<size_t>{0, 2}));  // equal keys in row order
  hits.clear();
  index.probe(Value::integer(4), &hits);
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(index.size(), 4u);
}

TEST(OrderedIndexTest, IntAndDoubleUnifyOnTheNumberLine) {
  OrderedIndex index("ix", 0);
  index.insert(Value::integer(1), 0);
  index.insert(Value::real(1.0), 1);
  index.insert(Value::real(1.5), 2);
  std::vector<size_t> hits;
  // Probing with either representation finds both rows storing "1".
  index.probe(Value::real(1.0), &hits);
  EXPECT_EQ(hits, (std::vector<size_t>{0, 1}));
  hits.clear();
  index.probe(Value::integer(1), &hits);
  EXPECT_EQ(hits, (std::vector<size_t>{0, 1}));
}

TEST(OrderedIndexTest, NullIsAnIndexableKey) {
  OrderedIndex index("ix", 0);
  index.insert(Value::null(), 0);
  index.insert(Value::integer(1), 1);
  std::vector<size_t> hits;
  index.probe(Value::null(), &hits);
  EXPECT_EQ(hits, (std::vector<size_t>{0}));
}

TEST(OrderedIndexTest, RangeRespectsBoundInclusivity) {
  OrderedIndex index("ix", 0);
  for (size_t i = 0; i < 10; ++i) {
    index.insert(Value::integer(static_cast<int64_t>(i)), i);
  }
  std::vector<size_t> hits;
  index.range(OrderedIndex::Bound::at(Value::integer(3), true),
              OrderedIndex::Bound::at(Value::integer(6), false), &hits);
  EXPECT_EQ(hits, (std::vector<size_t>{3, 4, 5}));
  hits.clear();
  index.range(OrderedIndex::Bound::at(Value::integer(3), false),
              OrderedIndex::Bound::open(), &hits);
  EXPECT_EQ(hits.size(), 6u);  // 4..9
  hits.clear();
  index.range(OrderedIndex::Bound::open(), OrderedIndex::Bound::open(),
              &hits);
  EXPECT_EQ(hits.size(), 10u);
}

TEST(OrderedIndexTest, EraseIsExactOnKeyAndRow) {
  OrderedIndex index("ix", 0);
  index.insert(Value::integer(7), 0);
  index.insert(Value::integer(7), 1);
  EXPECT_FALSE(index.erase(Value::integer(7), 9));  // absent row id
  EXPECT_TRUE(index.erase(Value::integer(7), 0));
  EXPECT_FALSE(index.erase(Value::integer(7), 0));  // already gone
  std::vector<size_t> hits;
  index.probe(Value::integer(7), &hits);
  EXPECT_EQ(hits, (std::vector<size_t>{1}));
  EXPECT_EQ(index.size(), 1u);
}

TEST(OrderedIndexTest, AscendingInsertsPackEveryLeaf) {
  // Each insert lands at the right edge of the last leaf, so a split
  // leaves the full leaf behind: 32 entries per leaf, none half empty.
  OrderedIndex index("ix", 0);
  for (size_t row = 0; row < 3200; ++row) {
    index.insert(Value::integer(static_cast<int64_t>(row)), row);
  }
  EXPECT_EQ(index.leaves(), 100u);
  EXPECT_EQ(index.levels(), 3u);  // 100 leaves need 4 inner nodes
  std::vector<size_t> hits;
  index.range(OrderedIndex::Bound::at(Value::integer(31), true),
              OrderedIndex::Bound::at(Value::integer(33), true), &hits);
  EXPECT_EQ(hits, (std::vector<size_t>{31, 32, 33}));
}

TEST(OrderedIndexTest, ErasingEveryEntryLeavesOneEmptyLeaf) {
  OrderedIndex index("ix", 0);
  constexpr size_t kRows = 5000;
  auto key = [](size_t row) {
    return Value::integer(static_cast<int64_t>(row % 97));
  };
  for (size_t row = 0; row < kRows; ++row) index.insert(key(row), row);
  EXPECT_GE(index.levels(), 3u);
  EXPECT_GT(index.leaves(), kRows / 32);
  // Erase from the middle outwards, so leaves empty on both sides of
  // the survivors and inner nodes lose first, middle and last children.
  for (size_t i = 0; i < kRows; ++i) {
    const size_t row = i % 2 == 0 ? kRows / 2 + i / 2 : kRows / 2 - 1 - i / 2;
    ASSERT_TRUE(index.erase(key(row), row)) << row;
  }
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.leaves(), 1u);
  EXPECT_EQ(index.levels(), 1u);
  std::vector<size_t> hits;
  index.range(OrderedIndex::Bound::open(), OrderedIndex::Bound::open(),
              &hits);
  EXPECT_TRUE(hits.empty());
  EXPECT_FALSE(index.erase(key(0), 0));
  index.insert(key(7), 7);
  index.probe(key(7), &hits);
  EXPECT_EQ(hits, (std::vector<size_t>{7}));
}

// Property: the B+-tree answers every probe and every range exactly as a
// sorted multiset of its (key, row) entries does, through inserts, exact
// erases and re-keys. Keys mix nulls, Int/Double twins (one equal-key
// run), NaN, strings and a hot key whose run spans many leaves.
TEST(OrderedIndexTest, MatchesASortedMultisetUnderChurn) {
  SplitMix64 rng(20261019);
  std::vector<Value> keys = {Value::null(), Value::boolean(false),
                             Value::real(std::nan("")), Value::real(-0.5),
                             Value::real(2.5), Value::string(""),
                             Value::string("a"), Value::string("ab"),
                             Value::string("b")};
  for (int64_t k = -2; k < 12; ++k) keys.push_back(Value::integer(k));
  for (int64_t k = 0; k < 4; ++k) {
    keys.push_back(Value::real(static_cast<double>(k)));  // Int twins
  }
  auto random_key = [&] {
    if (rng.next_in(0, 3) == 0) return Value::integer(7);  // the hot run
    return keys[static_cast<size_t>(
        rng.next_in(0, static_cast<int64_t>(keys.size()) - 1))];
  };
  // Probes also ask for keys no entry holds; ranges take every pair of
  // these bounds (and open ends) under all four inclusivity flags.
  std::vector<Value> probes = keys;
  probes.push_back(Value::integer(100));
  probes.push_back(Value::real(3.25));
  probes.push_back(Value::string("c"));
  probes.push_back(Value::boolean(true));
  const std::vector<Value> bounds = {
      Value::null(),         Value::integer(-2), Value::real(0.0),
      Value::integer(3),     Value::integer(7),  Value::real(7.0),
      Value::integer(11),    Value::real(std::nan("")),
      Value::string("a"),    Value::string("zz")};

  OrderedIndex index("ix", 0);
  std::multiset<std::pair<Value, size_t>> reference;
  size_t next_row = 0;

  auto check = [&](const std::string& phase) {
    ASSERT_EQ(index.size(), reference.size()) << phase;
    // Emptied leaves are freed: no leaf but a lone root is empty.
    ASSERT_LE(index.leaves(), std::max<size_t>(reference.size(), 1)) << phase;
    for (const Value& key : probes) {
      std::vector<size_t> expected, got;
      for (const auto& [k, row] : reference) {
        if (Value::compare(k, key) == 0) expected.push_back(row);
      }
      index.probe(key, &got);
      ASSERT_EQ(got, expected) << phase << " probe " << key.to_oql();
    }
    std::vector<OrderedIndex::Bound> sides = {OrderedIndex::Bound::open()};
    for (const Value& b : bounds) {
      sides.push_back(OrderedIndex::Bound::at(b, true));
      sides.push_back(OrderedIndex::Bound::at(b, false));
    }
    auto admits_lo = [](const OrderedIndex::Bound& lo, const Value& k) {
      if (!lo.present) return true;
      const int c = Value::compare(k, lo.value);
      return c > 0 || (c == 0 && lo.inclusive);
    };
    auto admits_hi = [](const OrderedIndex::Bound& hi, const Value& k) {
      if (!hi.present) return true;
      const int c = Value::compare(k, hi.value);
      return c < 0 || (c == 0 && hi.inclusive);
    };
    for (const OrderedIndex::Bound& lo : sides) {
      for (const OrderedIndex::Bound& hi : sides) {
        std::vector<size_t> expected, got;
        for (const auto& [k, row] : reference) {
          if (admits_lo(lo, k) && admits_hi(hi, k)) expected.push_back(row);
        }
        index.range(lo, hi, &got);
        ASSERT_EQ(got, expected)
            << phase << " range " << (lo.present ? lo.value.to_oql() : "-")
            << (lo.inclusive ? "[" : "(") << " "
            << (hi.present ? hi.value.to_oql() : "-")
            << (hi.inclusive ? "]" : ")");
      }
    }
  };
  auto insert = [&] {
    Value key = random_key();
    index.insert(key, next_row);
    reference.emplace(std::move(key), next_row++);
  };
  auto pick = [&] {
    auto it = reference.begin();
    std::advance(it, rng.next_in(0, static_cast<int64_t>(reference.size()) - 1));
    return it;
  };

  for (int i = 0; i < 4000; ++i) insert();
  EXPECT_GE(index.levels(), 3u);
  check("fill");
  for (int batch = 0; batch < 4; ++batch) {
    for (int op = 0; op < 1500; ++op) {
      switch (rng.next_in(0, 3)) {
        case 0:
          insert();
          break;
        case 1: {  // exact erase; a wrong row or key must not match
          auto it = pick();
          ASSERT_FALSE(index.erase(it->first, next_row));
          ASSERT_FALSE(index.erase(Value::string("absent"), it->second));
          ASSERT_TRUE(index.erase(it->first, it->second));
          reference.erase(it);
          break;
        }
        default: {  // re-key: the row keeps its id under a new key
          auto it = pick();
          const size_t row = it->second;
          ASSERT_TRUE(index.erase(it->first, row));
          reference.erase(it);
          Value key = random_key();
          index.insert(key, row);
          reference.emplace(std::move(key), row);
          break;
        }
      }
    }
    check("churn " + std::to_string(batch));
  }
  // Drain to a few entries (freeing leaves), then grow again over the
  // thinned structure.
  while (reference.size() > 40) {
    auto it = pick();
    ASSERT_TRUE(index.erase(it->first, it->second));
    reference.erase(it);
  }
  check("drained");
  for (int i = 0; i < 2000; ++i) insert();
  check("regrown");
}

TEST(TableIndexTest, CreateIndexBackfillsAndValidates) {
  Table t("t", {{"a", ColumnType::Int}, {"b", ColumnType::Text}});
  t.insert({Value::integer(1), Value::string("x")});
  t.insert({Value::integer(2), Value::string("y")});
  const OrderedIndex& ix = t.create_index("t_a", "a");
  EXPECT_EQ(ix.size(), 2u);
  EXPECT_EQ(t.index_on(0), &ix);
  EXPECT_EQ(t.index_on(1), nullptr);
  EXPECT_THROW(t.create_index("t_a", "b"), CatalogError);   // dup name
  EXPECT_THROW(t.create_index("t_zz", "zz"), CatalogError); // unknown col
}

TEST(TableIndexTest, InsertMaintainsEveryIndex) {
  Table t("t", {{"a", ColumnType::Int}, {"b", ColumnType::Int}});
  t.create_index("t_a", "a");
  t.create_index("t_b", "b");
  t.insert({Value::integer(1), Value::integer(10)});
  t.insert({Value::integer(2), Value::integer(20)});
  std::vector<size_t> hits;
  t.index_on(1)->probe(Value::integer(20), &hits);
  EXPECT_EQ(hits, (std::vector<size_t>{1}));
}

TEST(TableIndexTest, RemoveRowSwapPopsAndRepointsIndexEntries) {
  Table t("t", {{"a", ColumnType::Int}});
  t.create_index("t_a", "a");
  for (int64_t i = 0; i < 4; ++i) t.insert({Value::integer(i * 100)});
  t.remove_row(1);  // row 3 (key 300) swaps into slot 1
  ASSERT_EQ(t.row_count(), 3u);
  EXPECT_EQ(t.rows()[1][0], Value::integer(300));
  std::vector<size_t> hits;
  t.index_on(0)->probe(Value::integer(300), &hits);
  EXPECT_EQ(hits, (std::vector<size_t>{1}));
  hits.clear();
  t.index_on(0)->probe(Value::integer(100), &hits);
  EXPECT_TRUE(hits.empty());
  EXPECT_THROW(t.remove_row(7), ExecutionError);
}

TEST(TableIndexTest, RemoveLastRowNeedsNoSwap) {
  Table t("t", {{"a", ColumnType::Int}});
  t.create_index("t_a", "a");
  t.insert({Value::integer(1)});
  t.insert({Value::integer(2)});
  t.remove_row(1);
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_EQ(t.index_on(0)->size(), 1u);
}

TEST(TableIndexTest, UpdateRowRekeysChangedColumnsOnly) {
  Table t("t", {{"a", ColumnType::Int}, {"b", ColumnType::Int}});
  t.create_index("t_a", "a");
  t.create_index("t_b", "b");
  t.insert({Value::integer(1), Value::integer(10)});
  t.update_row(0, {Value::integer(1), Value::integer(99)});
  std::vector<size_t> hits;
  t.index_on(0)->probe(Value::integer(1), &hits);
  EXPECT_EQ(hits, (std::vector<size_t>{0}));
  hits.clear();
  t.index_on(1)->probe(Value::integer(10), &hits);
  EXPECT_TRUE(hits.empty());
  hits.clear();
  t.index_on(1)->probe(Value::integer(99), &hits);
  EXPECT_EQ(hits, (std::vector<size_t>{0}));
  EXPECT_THROW(t.update_row(5, {Value::integer(0), Value::integer(0)}),
               ExecutionError);
  EXPECT_THROW(t.update_row(0, {Value::integer(0)}), TypeError);
}

TEST(MiniSqlParse, CreateIndexStatement) {
  Statement s = parse_statement("CREATE INDEX person_id ON person0 (id)");
  ASSERT_TRUE(s.create_index.has_value());
  EXPECT_EQ(s.create_index->index, "person_id");
  EXPECT_EQ(s.create_index->table, "person0");
  EXPECT_EQ(s.create_index->column, "id");
  EXPECT_EQ(parse_statement(s.create_index->to_sql()).create_index->to_sql(),
            s.create_index->to_sql());
  // parse_statement still takes plain queries; parse_minisql does not
  // take DDL.
  EXPECT_TRUE(parse_statement("SELECT * FROM t").query.has_value());
  EXPECT_THROW(parse_minisql("CREATE INDEX i ON t (c)"), ParseError);
  EXPECT_THROW(parse_statement("CREATE INDEX i ON t"), ParseError);
  EXPECT_THROW(parse_statement("CREATE TABLE t (c)"), ParseError);
  EXPECT_THROW(parse_statement("CREATE INDEX i ON t (c) junk"), ParseError);
}

class IndexedEngineTest : public ::testing::Test {
 protected:
  IndexedEngineTest() : engine_(&db_) {
    Table& t = db_.create_table("t", {{"k", ColumnType::Int},
                                      {"x", ColumnType::Real},
                                      {"s", ColumnType::Text}});
    for (int64_t i = 0; i < 100; ++i) {
      t.insert({Value::integer(i % 50),  // duplicate keys
                i % 10 == 0 ? Value::null() : Value::real(i / 2.0),
                Value::string("s" + std::to_string(i % 7))});
    }
    engine_.execute_sql("CREATE INDEX t_k ON t (k)");
    engine_.execute_sql("CREATE INDEX t_x ON t (x)");
  }
  ResultSet run(const std::string& sql) { return engine_.execute_sql(sql); }
  Database db_{"db"};
  Engine engine_;
};

TEST_F(IndexedEngineTest, PointSelectionProbesInsteadOfScanning) {
  ResultSet rs = run("SELECT * FROM t WHERE k = 7");
  EXPECT_EQ(rs.rows.size(), 2u);  // 7 and 57
  const Engine::Stats& s = engine_.last_stats();
  EXPECT_EQ(s.index_probes, 1u);
  EXPECT_EQ(s.index_hits, 2u);
  EXPECT_EQ(s.rows_scanned, 2u);  // candidates only, not 100
  EXPECT_EQ(s.rows_returned, 2u);
}

TEST_F(IndexedEngineTest, FlippedOperandStillUsesTheIndex) {
  ResultSet rs = run("SELECT * FROM t WHERE 7 = k");
  EXPECT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(engine_.last_stats().index_probes, 1u);
}

TEST_F(IndexedEngineTest, OrChainBecomesBatchOfProbes) {
  ResultSet rs = run("SELECT * FROM t WHERE k = 1 OR k = 3 OR k = 5");
  EXPECT_EQ(rs.rows.size(), 6u);
  const Engine::Stats& s = engine_.last_stats();
  EXPECT_EQ(s.index_probes, 3u);
  EXPECT_EQ(s.rows_scanned, 6u);
}

TEST_F(IndexedEngineTest, BatchDedupesUnifyEqualKeys) {
  // 1 and 1.0 probe the same equal-key run; a scan emits those rows
  // once, so the batch must too.
  ResultSet rs = run("SELECT * FROM t WHERE k = 1 OR k = 1.0");
  EXPECT_EQ(rs.rows.size(), 2u);  // rows 1 and 51, once each
  EXPECT_EQ(engine_.last_stats().index_probes, 2u);
}

TEST_F(IndexedEngineTest, MixedColumnOrChainFallsBackToScan) {
  ResultSet rs = run("SELECT * FROM t WHERE k = 1 OR s = \"s3\"");
  EXPECT_EQ(engine_.last_stats().index_probes, 0u);
  EXPECT_EQ(engine_.last_stats().rows_scanned, 100u);
  EXPECT_GT(rs.rows.size(), 0u);
}

TEST_F(IndexedEngineTest, RangeSelectionWalksTheInterval) {
  ResultSet rs = run("SELECT * FROM t WHERE k >= 45 AND k < 48");
  EXPECT_EQ(rs.rows.size(), 6u);  // 45,46,47 twice each
  const Engine::Stats& s = engine_.last_stats();
  EXPECT_EQ(s.index_probes, 1u);
  EXPECT_EQ(s.rows_scanned, 6u);
}

TEST_F(IndexedEngineTest, FlippedRangeBoundIsNormalized) {
  // 47 > k is k < 47; combined with k >= 45 the interval is [45, 47).
  ResultSet rs = run("SELECT * FROM t WHERE 47 > k AND k >= 45");
  EXPECT_EQ(rs.rows.size(), 4u);
  EXPECT_EQ(engine_.last_stats().index_probes, 1u);
}

TEST_F(IndexedEngineTest, ResidualConjunctsRecheckCandidates) {
  ResultSet rs = run("SELECT * FROM t WHERE k = 7 AND s = \"s0\"");
  ASSERT_EQ(rs.rows.size(), 1u);  // row 7 has s0; row 57 has s1
  const Engine::Stats& s = engine_.last_stats();
  EXPECT_EQ(s.index_probes, 1u);
  EXPECT_EQ(s.rows_scanned, 2u);
  EXPECT_EQ(s.rows_matched, 1u);
}

TEST_F(IndexedEngineTest, NullProbeFindsNullRows) {
  ResultSet indexed = run("SELECT * FROM t WHERE x = null");
  EXPECT_EQ(engine_.last_stats().index_probes, 1u);
  engine_.set_use_indexes(false);
  ResultSet scanned = run("SELECT * FROM t WHERE x = null");
  EXPECT_EQ(indexed.rows.size(), scanned.rows.size());
  EXPECT_EQ(indexed.rows.size(), 10u);
}

TEST_F(IndexedEngineTest, ForcedScanAnswersIdentically) {
  const char* queries[] = {
      "SELECT * FROM t WHERE k = 7",
      "SELECT * FROM t WHERE k = 1 OR k = 3 OR k = 5",
      "SELECT s FROM t WHERE k >= 40 AND k <= 45 AND s <> \"s1\"",
      "SELECT * FROM t WHERE x > 10.5 AND x <= 30",
  };
  for (const char* sql : queries) {
    ResultSet indexed = run(sql);
    EXPECT_GT(engine_.last_stats().index_probes, 0u) << sql;
    engine_.set_use_indexes(false);
    ResultSet scanned = run(sql);
    EXPECT_EQ(engine_.last_stats().index_probes, 0u) << sql;
    engine_.set_use_indexes(true);
    ASSERT_EQ(indexed.rows.size(), scanned.rows.size()) << sql;
    for (size_t i = 0; i < indexed.rows.size(); ++i) {
      EXPECT_EQ(Value::list(indexed.rows[i]), Value::list(scanned.rows[i]))
          << sql;  // same rows in the same (row-id) order
    }
  }
}

TEST(IndexedEngineExactTest, ProbeBeyondTwoTo53MatchesTheScan) {
  // 2^53 + 1 and its neighbours share one double; the index and the
  // scan must both tell them apart.
  Database db("db");
  Table& t = db.create_table("t", {{"k", ColumnType::Int}});
  constexpr int64_t kTwoTo53 = int64_t{1} << 53;
  for (int64_t delta : {1, 0, 2, -1, 1}) {
    t.insert({Value::integer(kTwoTo53 + delta)});
  }
  Engine engine(&db);
  engine.execute_sql("CREATE INDEX t_k ON t (k)");
  for (const char* sql : {"SELECT * FROM t WHERE k = 9007199254740993",
                          "SELECT * FROM t WHERE k > 9007199254740992",
                          "SELECT * FROM t WHERE k <= 9007199254740992"}) {
    ResultSet indexed = engine.execute_sql(sql);
    EXPECT_EQ(engine.last_stats().index_probes, 1u) << sql;
    engine.set_use_indexes(false);
    ResultSet scanned = engine.execute_sql(sql);
    engine.set_use_indexes(true);
    ASSERT_EQ(indexed.rows.size(), scanned.rows.size()) << sql;
    for (size_t i = 0; i < indexed.rows.size(); ++i) {
      EXPECT_EQ(Value::list(indexed.rows[i]), Value::list(scanned.rows[i]))
          << sql;
    }
  }
  EXPECT_EQ(engine.execute_sql("SELECT * FROM t WHERE k = 9007199254740993")
                .rows.size(),
            2u);
}

TEST_F(IndexedEngineTest, CreateIndexNeedsReadWriteEngine) {
  Engine read_only(static_cast<const Database*>(&db_));
  EXPECT_THROW(read_only.execute_sql("CREATE INDEX zz ON t (k)"),
               ExecutionError);
  EXPECT_NO_THROW(read_only.execute_sql("SELECT * FROM t WHERE k = 1"));
}

// The pinned Stats contract (engine.hpp last_stats()): every execute
// starts from a zeroed Stats — callers read exactly one query's
// counters, never an accumulation.
TEST_F(IndexedEngineTest, StatsResetPerExecute) {
  run("SELECT * FROM t WHERE k = 7");
  Engine::Stats first = engine_.last_stats();
  EXPECT_EQ(first.index_probes, 1u);
  run("SELECT * FROM t");
  const Engine::Stats& second = engine_.last_stats();
  EXPECT_EQ(second.index_probes, 0u);   // not 1: no accumulation
  EXPECT_EQ(second.rows_scanned, 100u);
  EXPECT_EQ(second.rows_returned, 100u);
  // CREATE INDEX also resets: a stats reader after DDL sees zeroes.
  engine_.execute_sql("CREATE INDEX t_s ON t (s)");
  EXPECT_EQ(engine_.last_stats().rows_scanned, 0u);
}

TEST_F(IndexedEngineTest, RowsReturnedCountsProjectedResult) {
  run("SELECT s FROM t WHERE k = 7");
  const Engine::Stats& s = engine_.last_stats();
  EXPECT_EQ(s.rows_matched, 2u);
  EXPECT_EQ(s.rows_returned, 2u);
}

// Property: indexed and forced-scan execution are answer-equal (as bags,
// nulls and mixed Int/Double keys included) across generated predicates,
// and stay equal after insert/delete/update churn re-keys the indexes.
TEST(IndexedScanPropertyTest, IndexedEqualsScanUnderChurn) {
  SplitMix64 rng(20260808);
  Database db("prop");
  Table& t = db.create_table("t", {{"a", ColumnType::Int},
                                   {"b", ColumnType::Real},
                                   {"c", ColumnType::Text}});
  auto random_row = [&]() -> Row {
    Row row;
    row.push_back(rng.next_in(0, 10) == 0
                      ? Value::null()
                      : Value::integer(rng.next_in(-20, 20)));
    switch (rng.next_in(0, 4)) {
      case 0:
        row.push_back(Value::null());
        break;
      case 1:  // an Int living in a Real column: unified ordering
        row.push_back(Value::integer(rng.next_in(-10, 10)));
        break;
      default:
        row.push_back(Value::real(rng.next_in(-40, 40) / 2.0));
        break;
    }
    row.push_back(Value::string("w" + std::to_string(rng.next_in(0, 6))));
    return row;
  };
  for (int i = 0; i < 200; ++i) t.insert(random_row());
  t.create_index("t_a", "a");
  t.create_index("t_b", "b");
  t.create_index("t_c", "c");

  auto random_literal = [&](int col) {
    switch (col) {
      case 0:
        return rng.next_in(0, 8) == 0 ? Value::null()
                                      : Value::integer(rng.next_in(-20, 20));
      case 1:
        return rng.next_in(0, 2) == 0
                   ? Value::integer(rng.next_in(-10, 10))
                   : Value::real(rng.next_in(-40, 40) / 2.0);
      default:
        return Value::string("w" + std::to_string(rng.next_in(0, 6)));
    }
  };
  const char* names[] = {"a", "b", "c"};
  const char* ops[] = {"=", "<", "<=", ">", ">="};
  // MiniSQL spells the null literal `null`; Value::to_oql prints `nil`.
  auto render = [](const Value& v) {
    return v.is_null() ? std::string("null") : v.to_oql();
  };
  auto random_predicate = [&]() {
    int col = static_cast<int>(rng.next_in(0, 2));
    std::string lit = render(random_literal(col));
    switch (rng.next_in(0, 5)) {
      case 0:  // point
        return std::string(names[col]) + " = " + lit;
      case 1: {  // OR chain of points on one column
        std::string out = std::string(names[col]) + " = " + lit;
        for (int64_t k = rng.next_in(1, 4); k > 0; --k) {
          out += " OR " + std::string(names[col]) + " = " +
                 render(random_literal(col));
        }
        return out;
      }
      case 2: {  // range, possibly flipped operand order
        const char* op = ops[rng.next_in(1, 4)];
        return rng.next_in(0, 2) == 0
                   ? std::string(names[col]) + " " + op + " " + lit
                   : lit + " " + op + " " + names[col];
      }
      case 3: {  // closed interval on one column + residual on another
        int other = static_cast<int>(rng.next_in(0, 2));
        return std::string(names[col]) + " >= " + lit + " AND " +
               names[col] + " <= " + render(random_literal(col)) +
               " AND " + names[other] + " <> " +
               render(random_literal(other));
      }
      default:  // negation: never indexable, pure scan both ways
        return "NOT " + std::string(names[col]) + " = " + lit;
    }
  };

  auto to_bag = [](const ResultSet& rs) {
    std::vector<Value> items;
    for (const Row& row : rs.rows) items.push_back(Value::list(row));
    return Value::bag(std::move(items));
  };

  Engine engine(&db);
  for (int round = 0; round < 120; ++round) {
    std::string sql = "SELECT * FROM t WHERE " + random_predicate();
    engine.set_use_indexes(true);
    ResultSet indexed = engine.execute_sql(sql);
    engine.set_use_indexes(false);
    ResultSet scanned = engine.execute_sql(sql);
    ASSERT_EQ(to_bag(indexed), to_bag(scanned)) << sql;

    // Churn between rounds: inserts, swap-pop deletes, in-place updates.
    switch (rng.next_in(0, 3)) {
      case 0:
        t.insert(random_row());
        break;
      case 1:
        if (t.row_count() > 50) {
          t.remove_row(static_cast<size_t>(
              rng.next_in(0, static_cast<int64_t>(t.row_count()) - 1)));
        }
        break;
      default:
        t.update_row(static_cast<size_t>(rng.next_in(
                         0, static_cast<int64_t>(t.row_count()) - 1)),
                     random_row());
        break;
    }
  }
}

}  // namespace
}  // namespace disco::memdb
