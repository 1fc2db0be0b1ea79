// The columnar batch core (src/vec/), tested property-style against the
// row-at-a-time machinery it must reproduce:
//
//   * converters — to_rows(from_rows(bag)) is the identity on every
//     generated flat bag, explicit nils land in the null bitmap, and
//     every non-flat shape declines (nullopt) instead of converting
//     lossily;
//   * cell algebra — compare/hash agree with Value::compare / equality
//     on the rebuilt values, including Int 1 == Double 1.0;
//   * kernels — filter/project/distinct/hash-join/aggregate checked
//     against the oql::Evaluator or a hand-rolled row reference on
//     seeded random inputs, including the error paths (masked and/or
//     short-circuit, ordering throws).
//
// The end-to-end proof (whole queries, vec off vs on) lives in
// tests/test_vec_differential.cpp; this file pins the pieces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "algebra/logical.hpp"
#include "common/error.hpp"
#include "fixtures.hpp"
#include "oql/eval.hpp"
#include "oql/parser.hpp"
#include "vec/batch.hpp"
#include "vec/ops.hpp"

namespace disco {
namespace {

using vec::ColType;
using vec::ColumnBatch;
using vec::RowShape;
using vec::Schema;
using vec::Table;

// -- generators --------------------------------------------------------------

/// One random scalar of the column's kind, nil with probability
/// `null_pct`/100. Kinds are fixed per column because a column's
/// non-null cells must share one kind.
Value random_cell(std::mt19937& rng, ColType type, int null_pct) {
  if (static_cast<int>(rng() % 100) < null_pct) return Value::null();
  switch (type) {
    case ColType::Bool:
      return Value::boolean(rng() % 2 == 0);
    case ColType::Int:
      return Value::integer(static_cast<int64_t>(rng() % 20) - 5);
    case ColType::Double:
      return Value::real(static_cast<double>(rng() % 40) / 4.0 - 2.0);
    case ColType::String:
      return Value::string(std::string(1, static_cast<char>('a' + rng() % 6)) +
                           std::string(1, static_cast<char>('a' + rng() % 6)));
    case ColType::Untyped:
      return Value::null();
  }
  return Value::null();
}

ColType random_type(std::mt19937& rng) {
  switch (rng() % 4) {
    case 0:
      return ColType::Bool;
    case 1:
      return ColType::Int;
    case 2:
      return ColType::Double;
    default:
      return ColType::String;
  }
}

std::vector<Value> random_flat_rows(std::mt19937& rng, size_t rows,
                                    int null_pct) {
  const size_t cols = 1 + rng() % 4;
  std::vector<std::string> names;
  std::vector<ColType> types;
  for (size_t c = 0; c < cols; ++c) {
    names.push_back("f" + std::to_string(c));
    types.push_back(random_type(rng));
  }
  std::vector<Value> out;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::pair<std::string, Value>> fields;
    for (size_t c = 0; c < cols; ++c) {
      fields.emplace_back(names[c], random_cell(rng, types[c], null_pct));
    }
    out.push_back(Value::strct(std::move(fields)));
  }
  return out;
}

/// Env rows over vars x{a:Int, b:String, c:Double} and y{k:Int} — the
/// operator-input shape the predicate/projection tests compile against.
std::vector<Value> random_env_rows(std::mt19937& rng, size_t rows,
                                   int null_pct) {
  std::vector<Value> out;
  for (size_t r = 0; r < rows; ++r) {
    Value x = Value::strct({{"a", random_cell(rng, ColType::Int, null_pct)},
                            {"b", random_cell(rng, ColType::String, null_pct)},
                            {"c", random_cell(rng, ColType::Double, null_pct)}});
    Value y = Value::strct({{"k", random_cell(rng, ColType::Int, null_pct)}});
    out.push_back(Value::strct({{"x", x}, {"y", y}}));
  }
  return out;
}

std::vector<std::string> sorted_oql(const std::vector<Value>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Value& row : rows) out.push_back(row.to_oql());
  std::sort(out.begin(), out.end());
  return out;
}

/// The row path's filter loop (runtime.cpp POp::Filter, rows branch).
std::vector<Value> row_filter(const std::vector<Value>& rows,
                              const oql::ExprPtr& predicate) {
  oql::Evaluator evaluator;
  std::vector<Value> out;
  for (const Value& env : rows) {
    oql::Env scope;
    for (const auto& [var, row] : env.fields()) scope.bind(var, row);
    if (evaluator.eval(predicate, scope).as_bool()) out.push_back(env);
  }
  return out;
}

// -- converters --------------------------------------------------------------

TEST(VecConvert, FlatRoundTripIsIdentityProperty) {
  for (uint32_t seed = 0; seed < 40; ++seed) {
    std::mt19937 rng(seed);
    const size_t rows = rng() % 40;
    std::vector<Value> original = random_flat_rows(rng, rows, 20);
    const size_t batch_rows = 1 + rng() % 9;
    std::optional<Table> table = vec::from_rows(original, batch_rows);
    ASSERT_TRUE(table.has_value()) << "seed " << seed;
    EXPECT_EQ(table->rows(), original.size());
    for (const ColumnBatch& batch : table->batches) {
      EXPECT_LE(batch.rows, batch_rows);
    }
    std::vector<Value> rebuilt = vec::to_rows(*table);
    ASSERT_EQ(rebuilt.size(), original.size()) << "seed " << seed;
    for (size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(rebuilt[i], original[i]) << "seed " << seed << " row " << i;
    }
  }
}

TEST(VecConvert, EnvRoundTripIsIdentityProperty) {
  for (uint32_t seed = 100; seed < 120; ++seed) {
    std::mt19937 rng(seed);
    std::vector<Value> original = random_env_rows(rng, 1 + rng() % 30, 15);
    std::optional<Table> table = vec::from_rows(original, 7);
    ASSERT_TRUE(table.has_value()) << "seed " << seed;
    EXPECT_EQ(table->schema.shape, RowShape::Env);
    ASSERT_EQ(table->schema.columns.size(), 4u);
    EXPECT_EQ(table->schema.columns[0].var, "x");
    EXPECT_EQ(table->schema.columns[3].var, "y");
    EXPECT_EQ(table->schema.index_of("y", "k"), 3);
    EXPECT_EQ(table->schema.index_of("y", "a"), -1);
    std::vector<Value> rebuilt = vec::to_rows(*table);
    for (size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(rebuilt[i], original[i]) << "seed " << seed << " row " << i;
    }
  }
}

TEST(VecConvert, ScalarRoundTripWithNils) {
  std::vector<Value> original = {Value::string("m"), Value::null(),
                                 Value::string("s"), Value::string("m")};
  std::optional<Table> table = vec::from_rows(original, 2);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->schema.shape, RowShape::Scalar);
  ASSERT_EQ(table->batches.size(), 2u);
  EXPECT_EQ(table->batches[0].columns[0]->null_count(), 1u);
  EXPECT_TRUE(table->batches[0].columns[0]->is_null(1));
  EXPECT_FALSE(table->batches[0].columns[0]->is_null(0));
  EXPECT_EQ(vec::to_rows(*table), original);
}

TEST(VecConvert, EmptyBagConvertsToEmptyTable) {
  std::optional<Table> table = vec::from_rows({}, 4);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->rows(), 0u);
  EXPECT_TRUE(vec::to_rows(*table).empty());
}

TEST(VecConvert, AllNilColumnStaysUntypedAndRoundTrips) {
  std::vector<Value> original = {
      Value::strct({{"a", Value::null()}, {"b", Value::integer(1)}}),
      Value::strct({{"a", Value::null()}, {"b", Value::null()}})};
  std::optional<Table> table = vec::from_rows(original, 8);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->batches[0].columns[0]->type(), ColType::Untyped);
  EXPECT_EQ(table->batches[0].columns[1]->type(), ColType::Int);
  EXPECT_EQ(vec::to_rows(*table), original);
}

TEST(VecConvert, LeadingNilsBackfillWhenTheTypeSettles) {
  // The first cells are nil; the column settles to String on row 2 and
  // the earlier storage slots must backfill so index == row.
  std::vector<Value> original = {Value::null(), Value::null(),
                                 Value::string("late")};
  std::optional<Table> table = vec::from_rows(original, 8);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->batches[0].columns[0]->type(), ColType::String);
  EXPECT_EQ(vec::to_rows(*table), original);
}

TEST(VecConvert, DeclinesEveryNonFlatShape) {
  // Nested collection in a field.
  EXPECT_FALSE(vec::from_rows({Value::strct({{"a", Value::bag({})}})}, 4)
                   .has_value());
  // Field-count mismatch against the first row (missing field).
  EXPECT_FALSE(
      vec::from_rows(
          {Value::strct({{"a", Value::integer(1)}, {"b", Value::integer(2)}}),
           Value::strct({{"a", Value::integer(3)}})},
          4)
          .has_value());
  // Same fields, different order: layout is the exact name sequence.
  EXPECT_FALSE(
      vec::from_rows(
          {Value::strct({{"a", Value::integer(1)}, {"b", Value::integer(2)}}),
           Value::strct({{"b", Value::integer(2)}, {"a", Value::integer(1)}})},
          4)
          .has_value());
  // Scalar row mixed into a struct bag (and vice versa).
  EXPECT_FALSE(vec::from_rows({Value::strct({{"a", Value::integer(1)}}),
                               Value::integer(2)},
                              4)
                   .has_value());
  EXPECT_FALSE(vec::from_rows({Value::integer(2),
                               Value::strct({{"a", Value::integer(1)}})},
                              4)
                   .has_value());
  // A column cannot mix kinds — Int and Double are distinct cell kinds.
  EXPECT_FALSE(vec::from_rows({Value::strct({{"a", Value::integer(1)}}),
                               Value::strct({{"a", Value::real(1.0)}})},
                              4)
                   .has_value());
  EXPECT_FALSE(vec::from_rows({Value::strct({{"a", Value::integer(1)}}),
                               Value::strct({{"a", Value::string("x")}})},
                              4)
                   .has_value());
  // Env var with zero attributes cannot be rebuilt from columns.
  EXPECT_FALSE(
      vec::from_rows({Value::strct({{"x", Value::strct({})}})}, 4)
          .has_value());
  // Env row whose later var is not a struct.
  EXPECT_FALSE(
      vec::from_rows(
          {Value::strct({{"x", Value::strct({{"a", Value::integer(1)}})},
                         {"y", Value::integer(2)}})},
          4)
          .has_value());
}

// -- cell algebra ------------------------------------------------------------

TEST(VecColumn, AppendEnforcesTheSettledType) {
  vec::Column column;
  EXPECT_EQ(column.type(), ColType::Untyped);
  EXPECT_TRUE(column.append(Value::integer(7)));
  EXPECT_EQ(column.type(), ColType::Int);
  EXPECT_FALSE(column.append(Value::string("no")));
  EXPECT_FALSE(column.append(Value::real(1.0)));
  EXPECT_FALSE(column.append(Value::bag({})));
  EXPECT_TRUE(column.append(Value::null()));
  EXPECT_EQ(column.size(), 2u);
  EXPECT_EQ(column.value_at(0), Value::integer(7));
  EXPECT_EQ(column.value_at(1), Value::null());
}

TEST(VecColumn, CellCompareMatchesValueCompareProperty) {
  std::mt19937 rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    const ColType ta = random_type(rng);
    const ColType tb = random_type(rng);
    vec::Column a, b;
    ASSERT_TRUE(a.append(random_cell(rng, ta, 25)));
    ASSERT_TRUE(b.append(random_cell(rng, tb, 25)));
    const Value va = a.value_at(0);
    const Value vb = b.value_at(0);
    const int expected = Value::compare(va, vb);
    const int sign = expected < 0 ? -1 : (expected > 0 ? 1 : 0);
    int got = a.compare_cells(0, b, 0);
    got = got < 0 ? -1 : (got > 0 ? 1 : 0);
    EXPECT_EQ(got, sign) << va.to_oql() << " vs " << vb.to_oql();
    int gv = a.compare_cell_value(0, vb);
    gv = gv < 0 ? -1 : (gv > 0 ? 1 : 0);
    EXPECT_EQ(gv, sign) << va.to_oql() << " vs " << vb.to_oql();
    if (expected == 0) {
      EXPECT_EQ(a.hash_cell(0), b.hash_cell(0))
          << va.to_oql() << " vs " << vb.to_oql();
    }
  }
}

TEST(VecColumn, IntAndDoubleCellsAreEqualAndCollide) {
  vec::Column i, d;
  ASSERT_TRUE(i.append(Value::integer(1)));
  ASSERT_TRUE(d.append(Value::real(1.0)));
  EXPECT_EQ(i.compare_cells(0, d, 0), 0);
  EXPECT_EQ(i.hash_cell(0), d.hash_cell(0));
  // -0.0 and 0 too (the hash normalizes the sign bit).
  vec::Column z, nz;
  ASSERT_TRUE(z.append(Value::integer(0)));
  ASSERT_TRUE(nz.append(Value::real(-0.0)));
  EXPECT_EQ(z.compare_cells(0, nz, 0), 0);
  EXPECT_EQ(z.hash_cell(0), nz.hash_cell(0));
}

TEST(VecColumn, IntegersBeyondTwoTo53CompareExactly) {
  // 2^53 + 1 has no double of its own; cells compare as integers.
  constexpr int64_t kTwoTo53 = int64_t{1} << 53;
  vec::Column ints, doubles;
  ASSERT_TRUE(ints.append(Value::integer(kTwoTo53)));
  ASSERT_TRUE(ints.append(Value::integer(kTwoTo53 + 1)));
  ASSERT_TRUE(doubles.append(Value::real(static_cast<double>(kTwoTo53))));
  EXPECT_GT(ints.compare_cells(1, ints, 0), 0);
  EXPECT_EQ(ints.compare_cells(0, doubles, 0), 0);
  EXPECT_GT(ints.compare_cells(1, doubles, 0), 0);
  EXPECT_LT(doubles.compare_cells(0, ints, 1), 0);
  EXPECT_GT(ints.compare_cell_value(1, Value::integer(kTwoTo53)), 0);
  EXPECT_LT(doubles.compare_cell_value(0, Value::integer(kTwoTo53 + 1)), 0);

  // The filter's null-free fast path agrees with the evaluator: over an
  // Int column for Int and Double literals alike, and over a Double
  // column holding NaN, which sorts after every number.
  auto filter_agrees = [](const std::vector<Value>& cells,
                          std::initializer_list<const char*> predicates) {
    std::vector<Value> rows;
    for (const Value& cell : cells) {
      rows.push_back(Value::strct({{"x", Value::strct({{"a", cell}})}}));
    }
    std::optional<Table> table = vec::from_rows(rows, 4);
    ASSERT_TRUE(table.has_value());
    for (const char* text : predicates) {
      const oql::ExprPtr expr = oql::parse(text);
      std::optional<vec::PredicateProgram> program =
          vec::compile_predicate(expr, table->schema);
      ASSERT_TRUE(program.has_value()) << text;
      EXPECT_EQ(sorted_oql(vec::to_rows(vec::filter_table(*table, *program))),
                sorted_oql(row_filter(rows, expr)))
          << text;
    }
  };
  filter_agrees({Value::integer(kTwoTo53 - 1), Value::integer(kTwoTo53),
                 Value::integer(kTwoTo53 + 1), Value::integer(kTwoTo53 + 2)},
                {"x.a = 9007199254740992", "x.a > 9007199254740992",
                 "x.a <= 9007199254740993", "x.a = 9007199254740992.0",
                 "x.a > 9007199254740992.0"});
  filter_agrees({Value::real(std::nan("")), Value::real(1.5),
                 Value::real(static_cast<double>(kTwoTo53))},
                {"x.a = 1.5", "x.a > 1.5", "x.a != 1.5",
                 "x.a < 9007199254740993"});
}

TEST(VecColumn, CompareAgainstStructRanksBelow) {
  // compare_cell_value against a non-scalar: scalar cells rank below
  // collections/structs, matching Value::compare's kind ranks.
  vec::Column s;
  ASSERT_TRUE(s.append(Value::string("zz")));
  EXPECT_LT(s.compare_cell_value(0, Value::strct({})), 0);
  EXPECT_LT(s.compare_cell_value(0, Value::bag({})), 0);
}

TEST(VecRows, RowCompareAndHashFollowRebuiltRows) {
  std::mt19937 rng(11);
  std::vector<Value> rows = random_flat_rows(rng, 24, 20);
  std::optional<Table> table = vec::from_rows(rows, 6);
  ASSERT_TRUE(table.has_value());
  // Compare every pair across batches through the rebuilt values.
  std::vector<std::pair<const ColumnBatch*, size_t>> refs;
  for (const ColumnBatch& batch : table->batches) {
    for (size_t r = 0; r < batch.rows; ++r) refs.emplace_back(&batch, r);
  }
  for (size_t i = 0; i < refs.size(); ++i) {
    for (size_t j = 0; j < refs.size(); ++j) {
      const Value vi = vec::row_at(table->schema, *refs[i].first, refs[i].second);
      const Value vj = vec::row_at(table->schema, *refs[j].first, refs[j].second);
      const int expected = Value::compare(vi, vj);
      const int sign = expected < 0 ? -1 : (expected > 0 ? 1 : 0);
      int got = vec::compare_rows(*refs[i].first, refs[i].second,
                                  *refs[j].first, refs[j].second);
      got = got < 0 ? -1 : (got > 0 ? 1 : 0);
      ASSERT_EQ(got, sign) << vi.to_oql() << " vs " << vj.to_oql();
      if (expected == 0) {
        ASSERT_EQ(vec::hash_row(*refs[i].first, refs[i].second),
                  vec::hash_row(*refs[j].first, refs[j].second));
      }
    }
  }
}

TEST(VecNames, ToStringCoversEveryEnumerator) {
  EXPECT_STREQ(to_string(ColType::Untyped), "untyped");
  EXPECT_STREQ(to_string(ColType::Bool), "bool");
  EXPECT_STREQ(to_string(ColType::Int), "int");
  EXPECT_STREQ(to_string(ColType::Double), "double");
  EXPECT_STREQ(to_string(ColType::String), "string");
  EXPECT_STREQ(to_string(RowShape::Scalar), "scalar");
  EXPECT_STREQ(to_string(RowShape::Flat), "flat");
  EXPECT_STREQ(to_string(RowShape::Env), "env");
}

// -- predicates --------------------------------------------------------------

TEST(VecPredicate, MatchesTheEvaluatorProperty) {
  const std::vector<std::string> predicates = {
      "x.a > 1",
      "x.a >= 0 and x.a <= 3",
      "x.b = \"aa\"",
      "x.b != \"ab\" and x.b < \"dd\"",
      "x.a = y.k",
      "x.a = 1 or x.a = 2 or y.k > 3",
      "not (x.a > 0)",
      "not (x.a = y.k) and x.b >= \"ba\"",
      "true",
      "false",
      "true and x.a = 0",
      "x.c > 0.5",
      "x.c <= x.a",
      "x.a = nil",
      "x.b != nil",
  };
  for (uint32_t seed = 0; seed < 12; ++seed) {
    std::mt19937 rng(300 + seed);
    // Ordering ops over nil throw in both paths; keep this property run
    // null-free so every predicate completes (the error paths have their
    // own tests below). Eq/Ne handle nil, so those still see nils via
    // the literal.
    std::vector<Value> rows = random_env_rows(rng, 1 + rng() % 25, 0);
    std::optional<Table> table = vec::from_rows(rows, 5);
    ASSERT_TRUE(table.has_value());
    for (const std::string& text : predicates) {
      const oql::ExprPtr expr = oql::parse(text);
      std::optional<vec::PredicateProgram> program =
          vec::compile_predicate(expr, table->schema);
      ASSERT_TRUE(program.has_value()) << text;
      Table filtered = vec::filter_table(*table, *program);
      EXPECT_EQ(sorted_oql(vec::to_rows(filtered)),
                sorted_oql(row_filter(rows, expr)))
          << text << " seed " << seed;
    }
  }
}

TEST(VecPredicate, NullCellsAgreeWithTheEvaluatorOnEquality) {
  // Eq/Ne are total (nil included): generate rows with nils and check
  // the nil-tolerant predicates only.
  const std::vector<std::string> predicates = {"x.a = nil", "x.b != nil",
                                               "x.a = y.k", "x.a != 2"};
  for (uint32_t seed = 0; seed < 8; ++seed) {
    std::mt19937 rng(900 + seed);
    std::vector<Value> rows = random_env_rows(rng, 1 + rng() % 25, 30);
    std::optional<Table> table = vec::from_rows(rows, 4);
    ASSERT_TRUE(table.has_value());
    for (const std::string& text : predicates) {
      const oql::ExprPtr expr = oql::parse(text);
      std::optional<vec::PredicateProgram> program =
          vec::compile_predicate(expr, table->schema);
      ASSERT_TRUE(program.has_value()) << text;
      Table filtered = vec::filter_table(*table, *program);
      EXPECT_EQ(sorted_oql(vec::to_rows(filtered)),
                sorted_oql(row_filter(rows, expr)))
          << text << " seed " << seed;
    }
  }
}

TEST(VecPredicate, ShortCircuitShieldsTheRightOperand) {
  // x.a < x.b orders Int against String and must throw — but only for
  // rows that reach it. With every row passing the or's left side, the
  // evaluator never evaluates the right; masked evaluation must not
  // either.
  std::vector<Value> rows = {
      Value::strct({{"x", Value::strct({{"a", Value::integer(1)},
                                        {"b", Value::string("s")}})}})};
  std::optional<Table> table = vec::from_rows(rows, 4);
  ASSERT_TRUE(table.has_value());
  const oql::ExprPtr shielded = oql::parse("x.a = 1 or x.a < x.b");
  std::optional<vec::PredicateProgram> program =
      vec::compile_predicate(shielded, table->schema);
  ASSERT_TRUE(program.has_value());
  EXPECT_EQ(vec::filter_table(*table, *program).rows(), 1u);
  EXPECT_EQ(row_filter(rows, shielded).size(), 1u);

  // `and` shields the same way.
  const oql::ExprPtr and_shielded = oql::parse("x.a = 2 and x.a < x.b");
  program = vec::compile_predicate(and_shielded, table->schema);
  ASSERT_TRUE(program.has_value());
  EXPECT_EQ(vec::filter_table(*table, *program).rows(), 0u);
  EXPECT_EQ(row_filter(rows, and_shielded).size(), 0u);

  // Unshielded, both paths throw.
  const oql::ExprPtr exposed = oql::parse("x.a = 2 or x.a < x.b");
  program = vec::compile_predicate(exposed, table->schema);
  ASSERT_TRUE(program.has_value());
  EXPECT_THROW(vec::filter_table(*table, *program), ExecutionError);
  EXPECT_THROW(row_filter(rows, exposed), ExecutionError);
}

TEST(VecPredicate, OrderingErrorTextMatchesTheEvaluator) {
  std::vector<Value> rows = {
      Value::strct({{"x", Value::strct({{"a", Value::null()},
                                        {"b", Value::string("s")}})}})};
  std::optional<Table> table = vec::from_rows(rows, 4);
  ASSERT_TRUE(table.has_value());
  const oql::ExprPtr expr = oql::parse("x.a > x.b");
  std::optional<vec::PredicateProgram> program =
      vec::compile_predicate(expr, table->schema);
  ASSERT_TRUE(program.has_value());
  std::string vec_what, row_what;
  try {
    vec::filter_table(*table, *program);
  } catch (const ExecutionError& e) {
    vec_what = e.what();
  }
  try {
    row_filter(rows, expr);
  } catch (const ExecutionError& e) {
    row_what = e.what();
  }
  ASSERT_FALSE(vec_what.empty());
  EXPECT_EQ(vec_what, row_what);
}

TEST(VecPredicate, CompileDeclinesWhatItCannotReproduce) {
  std::mt19937 rng(1);
  std::vector<Value> rows = random_env_rows(rng, 3, 0);
  std::optional<Table> table = vec::from_rows(rows, 4);
  ASSERT_TRUE(table.has_value());
  const Schema& env = table->schema;
  // Arithmetic inside the comparison.
  EXPECT_FALSE(vec::compile_predicate(oql::parse("x.a + 1 > 2"), env));
  // Literal vs literal (constant folding is the evaluator's job).
  EXPECT_FALSE(vec::compile_predicate(oql::parse("1 < 2"), env));
  // Unknown column.
  EXPECT_FALSE(vec::compile_predicate(oql::parse("x.zz = 1"), env));
  // Function calls.
  EXPECT_FALSE(vec::compile_predicate(oql::parse("count(x.a) > 0"), env));
  // A non-bool literal is not a predicate.
  EXPECT_FALSE(vec::compile_predicate(oql::parse("1"), env));
  // An And with one bad side declines as a whole.
  EXPECT_FALSE(vec::compile_predicate(oql::parse("x.a = 1 and x.a + 1 > 2"),
                                      env));
  // Null predicate, non-env schema.
  EXPECT_FALSE(vec::compile_predicate(nullptr, env));
  Schema flat;
  flat.shape = RowShape::Flat;
  flat.columns.push_back({"", "a"});
  EXPECT_FALSE(vec::compile_predicate(oql::parse("x.a = 1"), flat));
}

// -- projection --------------------------------------------------------------

TEST(VecProjection, CompilesTheThreeShapes) {
  std::mt19937 rng(2);
  std::vector<Value> rows = random_env_rows(rng, 10, 10);
  std::optional<Table> table = vec::from_rows(rows, 4);
  ASSERT_TRUE(table.has_value());

  // `select x`: the whole var flattens.
  std::optional<vec::ProjectionProgram> whole =
      vec::compile_projection(oql::parse("x"), table->schema);
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->out_schema.shape, RowShape::Flat);
  ASSERT_EQ(whole->cols.size(), 3u);
  Table projected = vec::project_table(*table, *whole);
  // Projection is column-pointer shuffling: the output shares columns.
  EXPECT_EQ(projected.batches[0].columns[0].get(),
            table->batches[0].columns[0].get());
  std::vector<Value> expected;
  for (const Value& env : rows) expected.push_back(env.field("x"));
  EXPECT_EQ(vec::to_rows(projected), expected);

  // `select x.a`: scalar column.
  std::optional<vec::ProjectionProgram> path =
      vec::compile_projection(oql::parse("x.a"), table->schema);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->out_schema.shape, RowShape::Scalar);
  expected.clear();
  for (const Value& env : rows) expected.push_back(env.field("x").field("a"));
  EXPECT_EQ(vec::to_rows(vec::project_table(*table, *path)), expected);

  // `select struct(k: y.k, b: x.b)`: cross-var reorder.
  std::optional<vec::ProjectionProgram> ctor = vec::compile_projection(
      oql::parse("struct(k: y.k, b: x.b)"), table->schema);
  ASSERT_TRUE(ctor.has_value());
  EXPECT_EQ(ctor->out_schema.shape, RowShape::Flat);
  expected.clear();
  for (const Value& env : rows) {
    expected.push_back(Value::strct({{"k", env.field("y").field("k")},
                                     {"b", env.field("x").field("b")}}));
  }
  EXPECT_EQ(vec::to_rows(vec::project_table(*table, *ctor)), expected);
}

TEST(VecProjection, CompileDeclinesComputedShapes) {
  std::mt19937 rng(3);
  std::vector<Value> rows = random_env_rows(rng, 2, 0);
  std::optional<Table> table = vec::from_rows(rows, 4);
  ASSERT_TRUE(table.has_value());
  const Schema& env = table->schema;
  EXPECT_FALSE(vec::compile_projection(oql::parse("z"), env));
  EXPECT_FALSE(vec::compile_projection(oql::parse("x.zz"), env));
  EXPECT_FALSE(vec::compile_projection(oql::parse("struct()"), env));
  EXPECT_FALSE(
      vec::compile_projection(oql::parse("struct(s: x.a + 1)"), env));
  EXPECT_FALSE(
      vec::compile_projection(oql::parse("struct(s: x.zz)"), env));
  EXPECT_FALSE(vec::compile_projection(oql::parse("x.a + 1"), env));
  EXPECT_FALSE(vec::compile_projection(nullptr, env));
}

// -- kernels -----------------------------------------------------------------

TEST(VecFilter, AllPassBatchesAreSharedNotCopied) {
  std::mt19937 rng(4);
  std::vector<Value> rows = random_env_rows(rng, 12, 0);
  std::optional<Table> table = vec::from_rows(rows, 4);
  ASSERT_TRUE(table.has_value());
  std::optional<vec::PredicateProgram> always =
      vec::compile_predicate(oql::parse("true"), table->schema);
  ASSERT_TRUE(always.has_value());
  Table out = vec::filter_table(*table, *always);
  ASSERT_EQ(out.batches.size(), table->batches.size());
  EXPECT_EQ(out.batches[0].columns[0].get(),
            table->batches[0].columns[0].get());

  std::optional<vec::PredicateProgram> never =
      vec::compile_predicate(oql::parse("false"), table->schema);
  ASSERT_TRUE(never.has_value());
  EXPECT_EQ(vec::filter_table(*table, *never).rows(), 0u);
  EXPECT_TRUE(vec::filter_table(*table, *never).batches.empty());
}

TEST(VecDistinct, MatchesValueSetAsAMultiset) {
  for (uint32_t seed = 0; seed < 10; ++seed) {
    std::mt19937 rng(500 + seed);
    // Narrow domains force duplicates.
    std::vector<Value> rows;
    const size_t n = 1 + rng() % 30;
    for (size_t i = 0; i < n; ++i) {
      rows.push_back(Value::strct(
          {{"a", random_cell(rng, ColType::Int, 20)},
           {"b", Value::string(std::string(
                     1, static_cast<char>('a' + rng() % 2)))}}));
    }
    std::optional<Table> table = vec::from_rows(rows, 3);
    ASSERT_TRUE(table.has_value());
    Table distinct = vec::distinct_table(*table, 3);
    // Value::set sorts; distinct_table keeps first-seen order. As
    // multisets they are equal — which is all bag answers can observe.
    EXPECT_EQ(sorted_oql(vec::to_rows(distinct)),
              sorted_oql(Value::set(rows).items()))
        << "seed " << seed;
    for (const ColumnBatch& batch : distinct.batches) {
      EXPECT_LE(batch.rows, 3u);
    }
  }
}

/// Row reference for the hash join: nested loops, null-tolerant key
/// equality via Value::compare (null keys DO join null keys, as in the
/// runtime's row-path hash join), then the residual via the evaluator.
std::vector<Value> row_join(const std::vector<Value>& left,
                            const std::vector<Value>& right,
                            const std::string& left_var,
                            const std::string& left_attr,
                            const std::string& right_var,
                            const std::string& right_attr,
                            const oql::ExprPtr& residual) {
  oql::Evaluator evaluator;
  std::vector<Value> out;
  for (const Value& l : left) {
    for (const Value& r : right) {
      const Value& lk = l.field(left_var).field(left_attr);
      const Value& rk = r.field(right_var).field(right_attr);
      if (Value::compare(lk, rk) != 0) continue;
      std::vector<std::pair<std::string, Value>> merged = l.fields();
      for (const auto& f : r.fields()) merged.push_back(f);
      Value env = Value::strct(std::move(merged));
      if (residual != nullptr) {
        oql::Env scope;
        for (const auto& [var, row] : env.fields()) scope.bind(var, row);
        if (!evaluator.eval(residual, scope).as_bool()) continue;
      }
      out.push_back(env);
    }
  }
  return out;
}

TEST(VecHashJoin, MatchesTheNestedLoopReferenceProperty) {
  for (uint32_t seed = 0; seed < 12; ++seed) {
    std::mt19937 rng(700 + seed);
    // Left keys Int, right keys alternate Int/Double so the cross-kind
    // equality (Int 1 == Double 1.0) is exercised; 15% nils on both.
    std::vector<Value> left, right;
    const size_t nl = rng() % 20;
    const size_t nr = rng() % 20;
    for (size_t i = 0; i < nl; ++i) {
      left.push_back(Value::strct(
          {{"x", Value::strct({{"k", random_cell(rng, ColType::Int, 15)},
                               {"n", random_cell(rng, ColType::String, 0)}})}}));
    }
    const ColType right_key = seed % 2 == 0 ? ColType::Int : ColType::Double;
    for (size_t i = 0; i < nr; ++i) {
      right.push_back(Value::strct(
          {{"y", Value::strct({{"k", random_cell(rng, right_key, 15)},
                               {"m", random_cell(rng, ColType::Int, 0)}})}}));
    }
    std::optional<Table> lt = vec::from_rows(left, 4);
    std::optional<Table> rt = vec::from_rows(right, 4);
    if (left.empty() || right.empty()) continue;  // env schema needs a row
    ASSERT_TRUE(lt.has_value() && rt.has_value());
    const int lc = lt->schema.index_of("x", "k");
    const int rc = rt->schema.index_of("y", "k");
    ASSERT_GE(lc, 0);
    ASSERT_GE(rc, 0);
    Table joined =
        vec::hash_join_tables(*lt, *rt, lc, rc, nullptr, 5);
    EXPECT_EQ(joined.schema.columns.size(),
              lt->schema.columns.size() + rt->schema.columns.size());
    EXPECT_EQ(sorted_oql(vec::to_rows(joined)),
              sorted_oql(row_join(left, right, "x", "k", "y", "k", nullptr)))
        << "seed " << seed;

    // With a residual over the merged env.
    const oql::ExprPtr residual = oql::parse("x.n >= \"bb\" or y.m > 2");
    vec::Schema merged = joined.schema;
    std::optional<vec::PredicateProgram> program =
        vec::compile_predicate(residual, merged);
    ASSERT_TRUE(program.has_value());
    Table filtered =
        vec::hash_join_tables(*lt, *rt, lc, rc, &*program, 5);
    EXPECT_EQ(sorted_oql(vec::to_rows(filtered)),
              sorted_oql(row_join(left, right, "x", "k", "y", "k", residual)))
        << "seed " << seed;
  }
}

TEST(VecHashJoin, NullKeysJoinNullKeys) {
  std::vector<Value> left = {Value::strct(
      {{"x", Value::strct({{"k", Value::null()}, {"n", Value::string("l")}})}})};
  std::vector<Value> right = {Value::strct(
      {{"y", Value::strct({{"k", Value::null()}, {"m", Value::string("r")}})}})};
  std::optional<Table> lt = vec::from_rows(left, 4);
  std::optional<Table> rt = vec::from_rows(right, 4);
  ASSERT_TRUE(lt.has_value() && rt.has_value());
  Table joined = vec::hash_join_tables(*lt, *rt, 0, 0, nullptr, 4);
  ASSERT_EQ(joined.rows(), 1u);
  EXPECT_EQ(vec::to_rows(joined)[0],
            Value::strct({{"x", left[0].field("x")},
                          {"y", right[0].field("y")}}));
}

TEST(VecConcat, SplicesAdoptsAndRefusesByLayout) {
  std::mt19937 rng(8);
  std::vector<Value> rows = random_env_rows(rng, 9, 10);
  std::optional<Table> a = vec::from_rows(rows, 4);
  std::optional<Table> b = vec::from_rows(rows, 4);
  ASSERT_TRUE(a.has_value() && b.has_value());

  // Empty part merges into anything.
  Table into = *a;
  EXPECT_TRUE(vec::concat_tables(&into, Table{}));
  EXPECT_EQ(into.rows(), rows.size());

  // Empty target adopts the part wholesale.
  Table empty;
  EXPECT_TRUE(vec::concat_tables(&empty, Table(*a)));
  EXPECT_EQ(empty.rows(), rows.size());
  EXPECT_EQ(empty.schema.shape, RowShape::Env);

  // Same layout splices batch lists (no row copying).
  const size_t batches_before = into.batches.size();
  EXPECT_TRUE(vec::concat_tables(&into, std::move(*b)));
  EXPECT_EQ(into.rows(), rows.size() * 2);
  EXPECT_EQ(into.batches.size(), batches_before * 2);

  // Layout mismatch refuses, leaving `into` usable.
  std::optional<Table> other =
      vec::from_rows({Value::strct({{"z", Value::strct({{"q",
                                     Value::integer(1)}})}})}, 4);
  ASSERT_TRUE(other.has_value());
  EXPECT_FALSE(vec::concat_tables(&into, std::move(*other)));
  EXPECT_EQ(into.rows(), rows.size() * 2);
}

TEST(VecAggregate, MatchesEvalCallProperty) {
  oql::Evaluator evaluator;
  const std::vector<std::string> fns = {"count", "sum", "min", "max", "avg"};
  for (uint32_t seed = 0; seed < 16; ++seed) {
    std::mt19937 rng(800 + seed);
    // Null-free numeric scalars: every aggregate must agree exactly,
    // including sum's Int-iff-all-Int rule and avg's always-real rule.
    const ColType type = seed % 2 == 0 ? ColType::Int : ColType::Double;
    std::vector<Value> items;
    const size_t n = 1 + rng() % 25;
    for (size_t i = 0; i < n; ++i) items.push_back(random_cell(rng, type, 0));
    std::optional<Table> table = vec::from_rows(items, 4);
    ASSERT_TRUE(table.has_value());
    for (const std::string& fn : fns) {
      std::optional<Value> got = vec::aggregate_table(*table, fn);
      ASSERT_TRUE(got.has_value()) << fn << " seed " << seed;
      oql::Env env;
      env.bind("xs", Value::bag(items));
      Value expected = evaluator.eval(oql::parse(fn + "(xs)"), env);
      EXPECT_EQ(*got, expected) << fn << " seed " << seed;
      EXPECT_EQ(got->kind(), expected.kind()) << fn << " seed " << seed;
    }
  }
}

TEST(VecAggregate, EdgeSemanticsMirrorTheEvaluator) {
  const Table empty = *vec::from_rows({}, 4);
  EXPECT_EQ(vec::aggregate_table(empty, "count"), Value::integer(0));
  EXPECT_EQ(vec::aggregate_table(empty, "sum"), Value::integer(0));
  EXPECT_EQ(vec::aggregate_table(empty, "avg"), Value::real(0.0));
  // Empty min/max decline: the evaluator's own "min of an empty
  // collection" error must surface, not a vec-made value.
  EXPECT_FALSE(vec::aggregate_table(empty, "min").has_value());
  EXPECT_FALSE(vec::aggregate_table(empty, "max").has_value());
  // Unknown function declines.
  EXPECT_FALSE(vec::aggregate_table(empty, "median").has_value());

  // min/max tolerate nils (Value::compare ranks nil lowest) and strings.
  const Table strings =
      *vec::from_rows({Value::string("b"), Value::null(), Value::string("a")},
                      4);
  EXPECT_EQ(vec::aggregate_table(strings, "min"), Value::null());
  EXPECT_EQ(vec::aggregate_table(strings, "max"), Value::string("b"));

  // sum/avg decline on nils and non-numerics — the evaluator throws for
  // those, and the fallback must let it.
  const Table with_nil =
      *vec::from_rows({Value::integer(1), Value::null()}, 4);
  EXPECT_FALSE(vec::aggregate_table(with_nil, "sum").has_value());
  EXPECT_FALSE(vec::aggregate_table(strings, "avg").has_value());

  // Non-scalar shapes decline for everything but count.
  std::mt19937 rng(9);
  const Table env = *vec::from_rows(random_env_rows(rng, 3, 0), 4);
  EXPECT_EQ(vec::aggregate_table(env, "count"), Value::integer(3));
  EXPECT_FALSE(vec::aggregate_table(env, "sum").has_value());

  // sum over mixed Int batches stays Int; avg is real even then.
  const Table ints = *vec::from_rows({Value::integer(2), Value::integer(3)},
                                     1);  // two single-row batches
  EXPECT_EQ(vec::aggregate_table(ints, "sum"), Value::integer(5));
  Value avg = *vec::aggregate_table(ints, "avg");
  EXPECT_EQ(avg.kind(), ValueKind::Double);
  EXPECT_EQ(avg, Value::real(2.5));
}

// -- static eligibility ------------------------------------------------------

TEST(VecStatic, StaticSchemaMirrorsTheCatalogInterfaces) {
  testing::PaperWorld world;
  const catalog::Catalog& catalog = world.mediator.catalog();
  std::optional<Schema> schema =
      vec::static_schema(algebra::get("person0", "x"), catalog);
  ASSERT_TRUE(schema.has_value());
  EXPECT_EQ(schema->shape, RowShape::Env);
  ASSERT_EQ(schema->columns.size(), 3u);
  EXPECT_EQ(schema->columns[0].var, "x");
  EXPECT_EQ(schema->columns[0].name, "id");
  EXPECT_EQ(schema->columns[1].name, "name");
  EXPECT_EQ(schema->columns[2].name, "salary");

  // Filter keeps the child's schema; joins concatenate.
  const oql::ExprPtr pred = oql::parse("x.salary > 10");
  EXPECT_TRUE(vec::static_schema(
                  algebra::filter(algebra::get("person0", "x"), pred), catalog)
                  .has_value());
  std::optional<Schema> joined = vec::static_schema(
      algebra::join(algebra::get("person0", "x"),
                    algebra::get("person1", "y"), pred),
      catalog);
  ASSERT_TRUE(joined.has_value());
  EXPECT_EQ(joined->columns.size(), 6u);
  EXPECT_EQ(joined->columns[3].var, "y");

  // Unknown extents and computed replies decline.
  EXPECT_FALSE(
      vec::static_schema(algebra::get("nowhere", "x"), catalog).has_value());
  EXPECT_FALSE(vec::static_schema(
                   algebra::project(algebra::get("person0", "x"),
                                    oql::parse("x.name"), false),
                   catalog)
                   .has_value());
}

}  // namespace
}  // namespace disco
