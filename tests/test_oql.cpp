#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "oql/ast.hpp"
#include "oql/eval.hpp"
#include "oql/lexer.hpp"
#include "oql/parser.hpp"
#include "oql/printer.hpp"

namespace disco::oql {
namespace {

Value person(std::string name, int64_t salary) {
  return Value::strct({{"name", Value::string(std::move(name))},
                       {"salary", Value::integer(salary)}});
}

// ---------------------------------------------------------------- lexer ---

TEST(Lexer, TokenizesPaperQuery) {
  auto tokens = tokenize(
      "select x.name from x in person where x.salary > 10");
  // 4 idents + select/from/in/where keywords-as-idents + dots etc.
  ASSERT_GE(tokens.size(), 10u);
  EXPECT_EQ(tokens.front().kind, TokenKind::Ident);
  EXPECT_EQ(tokens.front().text, "select");
  EXPECT_EQ(tokens.back().kind, TokenKind::End);
}

TEST(Lexer, IdentStarGluedOnly) {
  auto glued = tokenize("person*");
  EXPECT_EQ(glued[0].kind, TokenKind::IdentStar);
  EXPECT_EQ(glued[0].text, "person");
  auto spaced = tokenize("person *");
  EXPECT_EQ(spaced[0].kind, TokenKind::Ident);
  EXPECT_EQ(spaced[1].kind, TokenKind::Star);
}

TEST(Lexer, NumbersIntAndDouble) {
  auto tokens = tokenize("42 4.5 1e3 2E-2 7e 9.");
  EXPECT_EQ(tokens[0].kind, TokenKind::IntLit);
  EXPECT_EQ(tokens[1].kind, TokenKind::DoubleLit);
  EXPECT_EQ(tokens[2].kind, TokenKind::DoubleLit);
  EXPECT_EQ(tokens[3].kind, TokenKind::DoubleLit);
  // "7e" is int 7 followed by ident e; "9." is int 9 followed by dot.
  EXPECT_EQ(tokens[4].kind, TokenKind::IntLit);
  EXPECT_EQ(tokens[5].kind, TokenKind::Ident);
  EXPECT_EQ(tokens[6].kind, TokenKind::IntLit);
  EXPECT_EQ(tokens[7].kind, TokenKind::Dot);
}

TEST(Lexer, StringEscapes) {
  auto tokens = tokenize(R"("a\"b\\c\nd")");
  EXPECT_EQ(tokens[0].kind, TokenKind::StringLit);
  EXPECT_EQ(tokens[0].text, "a\"b\\c\nd");
}

TEST(Lexer, Comments) {
  auto tokens = tokenize("a // line comment\n b /* block\n comment */ c");
  ASSERT_EQ(tokens.size(), 4u);  // a b c End
  EXPECT_EQ(tokens[2].text, "c");
}

TEST(Lexer, OperatorsAndAlternateNe) {
  auto tokens = tokenize("<= >= != <> < > = + - * /");
  EXPECT_EQ(tokens[0].kind, TokenKind::Le);
  EXPECT_EQ(tokens[1].kind, TokenKind::Ge);
  EXPECT_EQ(tokens[2].kind, TokenKind::Ne);
  EXPECT_EQ(tokens[3].kind, TokenKind::Ne);
  EXPECT_EQ(tokens[4].kind, TokenKind::Lt);
  EXPECT_EQ(tokens[5].kind, TokenKind::Gt);
  EXPECT_EQ(tokens[6].kind, TokenKind::Eq);
}

TEST(Lexer, ErrorsCarryPosition) {
  try {
    tokenize("abc\n  \"unterminated");
    FAIL() << "expected LexError";
  } catch (const LexError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 3);
  }
  EXPECT_THROW(tokenize("a ? b"), LexError);
  EXPECT_THROW(tokenize("/* open"), LexError);
}

// --------------------------------------------------------------- parser ---

TEST(Parser, PaperIntroQueryShape) {
  ExprPtr e = parse("select x.name from x in person where x.salary > 10");
  ASSERT_EQ(e->kind, ExprKind::Select);
  EXPECT_FALSE(e->distinct);
  EXPECT_EQ(e->projection->kind, ExprKind::Path);
  ASSERT_EQ(e->from.size(), 1u);
  EXPECT_EQ(e->from[0].var, "x");
  EXPECT_EQ(e->from[0].domain->kind, ExprKind::Ident);
  EXPECT_EQ(e->from[0].domain->name, "person");
  ASSERT_NE(e->where, nullptr);
  EXPECT_EQ(e->where->binary_op, BinaryOp::Gt);
}

TEST(Parser, PaperPartialAnswerQuery) {
  // §1.3: the partial answer is itself a legal query.
  ExprPtr e = parse(
      "union(select y.name from y in person0 where y.salary > 10, "
      "Bag(\"Sam\"))");
  ASSERT_EQ(e->kind, ExprKind::Call);
  EXPECT_EQ(e->name, "union");
  ASSERT_EQ(e->args.size(), 2u);
  EXPECT_EQ(e->args[0]->kind, ExprKind::Select);
  EXPECT_EQ(e->args[1]->kind, ExprKind::Call);  // Bag(...) case-insensitive
  EXPECT_EQ(e->args[1]->name, "bag");
}

TEST(Parser, MultipleBindings) {
  ExprPtr e = parse(
      "select struct(name: x.name, salary: x.salary + y.salary) "
      "from x in person0, y in person1 where x.id = y.id");
  ASSERT_EQ(e->from.size(), 2u);
  EXPECT_EQ(e->projection->kind, ExprKind::StructCtor);
  EXPECT_EQ(e->projection->struct_fields.size(), 2u);
}

TEST(Parser, PaperAndKeywordBindingSeparator) {
  // §2.2.3 writes "from x in person0 and y in person1"; DISCO's published
  // grammar uses commas — we accept the comma form.
  ExprPtr e = parse("select x.name from x in person0, y in person1");
  EXPECT_EQ(e->from.size(), 2u);
}

TEST(Parser, NestedAggregateSubquery) {
  // §2.2.3 "multiple" view.
  ExprPtr e = parse(
      "select struct(name: x.name, salary: sum(select z.salary "
      "from z in person where x.id = z.id)) from x in person*");
  ASSERT_EQ(e->from.size(), 1u);
  EXPECT_EQ(e->from[0].domain->kind, ExprKind::ExtentClosure);
  const auto& sum_field = e->projection->struct_fields[1].second;
  ASSERT_EQ(sum_field->kind, ExprKind::Call);
  EXPECT_EQ(sum_field->name, "sum");
  EXPECT_EQ(sum_field->args[0]->kind, ExprKind::Select);
}

TEST(Parser, Distinct) {
  EXPECT_TRUE(parse("select distinct x from x in e")->distinct);
  EXPECT_FALSE(parse("select x from x in e")->distinct);
}

TEST(Parser, PrecedenceArithOverComparisonOverBool) {
  ExprPtr e = parse("a + b * c < d and not f or g");
  ASSERT_EQ(e->binary_op, BinaryOp::Or);
  ASSERT_EQ(e->left->binary_op, BinaryOp::And);
  EXPECT_EQ(e->left->left->binary_op, BinaryOp::Lt);
  EXPECT_EQ(e->left->left->left->binary_op, BinaryOp::Add);
  EXPECT_EQ(e->left->left->left->right->binary_op, BinaryOp::Mul);
  EXPECT_EQ(e->left->right->kind, ExprKind::Unary);
}

TEST(Parser, ParenthesesOverride) {
  ExprPtr e = parse("(a + b) * c");
  EXPECT_EQ(e->binary_op, BinaryOp::Mul);
  EXPECT_EQ(e->left->binary_op, BinaryOp::Add);
}

TEST(Parser, UnaryMinusAndChains) {
  ExprPtr e = parse("--3");
  EXPECT_EQ(e->kind, ExprKind::Unary);
  EXPECT_EQ(e->child->kind, ExprKind::Unary);
}

TEST(Parser, PathChains) {
  ExprPtr e = parse("x.a.b.c");
  EXPECT_EQ(e->kind, ExprKind::Path);
  EXPECT_EQ(e->name, "c");
  EXPECT_EQ(e->child->name, "b");
}

TEST(Parser, Literals) {
  EXPECT_EQ(parse("42")->literal, Value::integer(42));
  EXPECT_EQ(parse("4.25")->literal, Value::real(4.25));
  EXPECT_EQ(parse("\"hi\"")->literal, Value::string("hi"));
  EXPECT_EQ(parse("true")->literal, Value::boolean(true));
  EXPECT_EQ(parse("FALSE")->literal, Value::boolean(false));
  EXPECT_EQ(parse("nil")->literal, Value::null());
}

TEST(Parser, TrailingSemicolonAllowed) {
  EXPECT_NO_THROW(parse("select x from x in e;"));
}

TEST(Parser, Errors) {
  EXPECT_THROW(parse("select"), ParseError);
  EXPECT_THROW(parse("select x from"), ParseError);
  EXPECT_THROW(parse("select x from x"), ParseError);
  EXPECT_THROW(parse("select x in e"), ParseError);
  EXPECT_THROW(parse("1 +"), ParseError);
  EXPECT_THROW(parse("(1"), ParseError);
  EXPECT_THROW(parse("1 2"), ParseError);
  EXPECT_THROW(parse("struct(a 1)"), ParseError);
  EXPECT_THROW(parse("frobnicate(1)"), ParseError);  // unknown function
  EXPECT_THROW(parse("flatten(1, 2)"), ParseError);  // wrong arity
  EXPECT_THROW(parse("union(1)"), ParseError);
}

std::string repeat(const std::string& unit, size_t count) {
  std::string out;
  out.reserve(unit.size() * count);
  for (size_t i = 0; i < count; ++i) out += unit;
  return out;
}

/// `term op term op ... term`, `terms` terms: a tree `terms` levels deep.
std::string chain(const std::string& term, const std::string& op,
                  size_t terms) {
  return repeat(term + " " + op + " ", terms - 1) + term;
}

TEST(Parser, DepthBoundCountsNesting) {
  // Parentheses and prefix operators recurse before they build a node;
  // each level counts, and the whole expression is one more.
  const size_t levels = kMaxDepth - 1;
  EXPECT_NO_THROW(parse(repeat("(", levels) + "1" + repeat(")", levels)));
  EXPECT_THROW(parse(repeat("(", levels + 1) + "1" + repeat(")", levels + 1)),
               ParseError);
  EXPECT_EQ(parse(repeat("not ", levels) + "true")->depth, kMaxDepth);
  EXPECT_THROW(parse(repeat("not ", levels + 1) + "true"), ParseError);
  EXPECT_EQ(parse(repeat("- ", levels) + "1")->depth, kMaxDepth);
  EXPECT_THROW(parse(repeat("- ", levels + 1) + "1"), ParseError);
  EXPECT_EQ(parse(repeat("bag(", levels) + "1" + repeat(")", levels))->depth,
            kMaxDepth);
  EXPECT_THROW(
      parse(repeat("bag(", levels + 1) + "1" + repeat(")", levels + 1)),
      ParseError);
}

TEST(Parser, DepthBoundCountsOperatorChains) {
  for (const char* op : {"or", "and"}) {
    EXPECT_EQ(parse(chain("true", op, kMaxDepth))->depth, kMaxDepth) << op;
    EXPECT_THROW(parse(chain("true", op, kMaxDepth + 1)), ParseError) << op;
  }
  for (const char* op : {"+", "-", "*", "/", "mod"}) {
    EXPECT_EQ(parse(chain("7", op, kMaxDepth))->depth, kMaxDepth) << op;
    EXPECT_THROW(parse(chain("7", op, kMaxDepth + 1)), ParseError) << op;
  }
  EXPECT_EQ(parse("x" + repeat(".a", kMaxDepth - 1))->depth, kMaxDepth);
  EXPECT_THROW(parse("x" + repeat(".a", kMaxDepth)), ParseError);
  // A deep first term counts with the chain built on top of it.
  const size_t half = kMaxDepth / 2;
  const std::string deep = "(" + chain("1", "+", half) + ") = 1";
  EXPECT_EQ(parse(deep + repeat(" or true", kMaxDepth - half - 1))->depth,
            kMaxDepth);
  EXPECT_THROW(parse(deep + repeat(" or true", kMaxDepth - half)), ParseError);
}

TEST(Parser, InputsThatOverflowedTheStackAreParseErrors) {
  EXPECT_THROW(parse(repeat("(", 20000) + "1" + repeat(")", 20000)),
               ParseError);
  EXPECT_THROW(parse(repeat("not ", 100000) + "true"), ParseError);
  EXPECT_THROW(parse(repeat("- ", 100000) + "1"), ParseError);
  EXPECT_THROW(parse(chain("true", "or", 20000)), ParseError);
  try {
    parse(chain("true", "or", 20000));
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nests deeper than"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------------- analysis ---

TEST(Ast, FreeNamesBasics) {
  ExprPtr e = parse("select x.name from x in person where x.salary > lo");
  auto names = free_names(e);
  EXPECT_TRUE(names.contains("person"));
  EXPECT_TRUE(names.contains("lo"));
  EXPECT_FALSE(names.contains("x"));
}

TEST(Ast, FreeNamesNestedShadowing) {
  ExprPtr e = parse(
      "select sum(select z.s from z in inner where z.k = x.k) "
      "from x in outer");
  auto names = free_names(e);
  EXPECT_EQ(names, (std::set<std::string>{"inner", "outer"}));
}

TEST(Ast, FreeNamesDomainOfFirstBindingNotShadowed) {
  // x in the first domain refers to an outer x, not the binding itself.
  ExprPtr e = parse("select y from y in x");
  EXPECT_TRUE(free_names(e).contains("x"));
}

TEST(Ast, FreeNamesClosure) {
  ExprPtr e = parse("select x.name from x in person*");
  EXPECT_TRUE(free_names(e).contains("person"));
}

TEST(Ast, SubstituteReplacesFreeOnly) {
  ExprPtr e = parse("select x.name from x in person");
  std::unordered_map<std::string, ExprPtr> map{
      {"person", parse("union(person0, person1)")},
      {"x", parse("99")}};  // x is bound; must not be replaced
  ExprPtr out = substitute(e, map);
  EXPECT_EQ(to_oql(out),
            "select x.name from x in union(person0, person1)");
}

TEST(Ast, SubstituteRespectsLeftToRightScope) {
  ExprPtr e = parse("select y from x in a, y in x");
  std::unordered_map<std::string, ExprPtr> map{{"x", parse("b")}};
  // x is bound by the first binding; the second domain's x refers to it.
  EXPECT_EQ(to_oql(substitute(e, map)), "select y from x in a, y in x");
}

TEST(Ast, ConjoinAndSplit) {
  ExprPtr a = parse("x > 1");
  ExprPtr b = parse("y < 2");
  ExprPtr c = parse("z = 3");
  ExprPtr all = conjoin({a, b, c});
  auto parts = split_conjuncts(all);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_TRUE(equal(parts[0], a));
  EXPECT_TRUE(equal(parts[2], c));
  EXPECT_EQ(conjoin({}), nullptr);
  EXPECT_TRUE(equal(conjoin({nullptr, b, nullptr}), b));
}

TEST(Ast, IsConstant) {
  EXPECT_TRUE(is_constant(parse("1 + 2 * 3")));
  EXPECT_TRUE(is_constant(parse("bag(1, 2)")));
  EXPECT_TRUE(is_constant(parse("select x from x in bag(1, 2)")));
  EXPECT_FALSE(is_constant(parse("select x from x in person")));
}

// ------------------------------------------------------------ evaluator ---

class EvalFixture : public ::testing::Test {
 protected:
  EvalFixture() {
    resolver_.bind("person0", Value::bag({person("Mary", 200)}));
    resolver_.bind("person1", Value::bag({person("Sam", 50)}));
    resolver_.bind("person",
                   Value::bag({person("Mary", 200), person("Sam", 50)}));
  }
  Value run(const std::string& text) {
    return Evaluator(&resolver_).eval(parse(text));
  }
  MapResolver resolver_;
};

TEST_F(EvalFixture, PaperIntroQuery) {
  // §1.2: the headline example of the paper.
  Value v = run("select x.name from x in person where x.salary > 10");
  EXPECT_EQ(v, Value::bag({Value::string("Mary"), Value::string("Sam")}));
}

TEST_F(EvalFixture, SingleExtentQuery) {
  Value v = run("select x.name from x in person0 where x.salary > 10");
  EXPECT_EQ(v, Value::bag({Value::string("Mary")}));
}

TEST_F(EvalFixture, ExplicitUnionQuery) {
  // §2.1: explicit union over extents.
  Value v = run(
      "select x.name from x in union(person0, person1) "
      "where x.salary > 10");
  EXPECT_EQ(v, Value::bag({Value::string("Mary"), Value::string("Sam")}));
}

TEST_F(EvalFixture, PartialAnswerResubmission) {
  // §1.3: evaluating the partial answer yields the full answer.
  Value v = run(
      "union(select y.name from y in person0 where y.salary > 10, "
      "bag(\"Sam\"))");
  EXPECT_EQ(v, Value::bag({Value::string("Mary"), Value::string("Sam")}));
}

TEST_F(EvalFixture, Arithmetic) {
  EXPECT_EQ(run("1 + 2 * 3"), Value::integer(7));
  EXPECT_EQ(run("(1 + 2) * 3"), Value::integer(9));
  EXPECT_EQ(run("7 / 2"), Value::integer(3));
  EXPECT_EQ(run("7.0 / 2"), Value::real(3.5));
  EXPECT_EQ(run("7 mod 3"), Value::integer(1));
  EXPECT_EQ(run("-3 + 1"), Value::integer(-2));
  EXPECT_EQ(run("\"a\" + \"b\""), Value::string("ab"));
}

TEST_F(EvalFixture, DivisionByZero) {
  EXPECT_THROW(run("1 / 0"), ExecutionError);
  EXPECT_THROW(run("1 mod 0"), ExecutionError);
}

TEST_F(EvalFixture, IntegerArithmeticAtTheInt64Edges) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  // Up to the edges, exact.
  EXPECT_EQ(run("9223372036854775806 + 1"), Value::integer(kMax));
  EXPECT_EQ(run("-9223372036854775807 - 1"), Value::integer(kMin));
  EXPECT_EQ(run("-4611686018427387904 * 2"), Value::integer(kMin));
  EXPECT_EQ(run("9223372036854775807 / -1"), Value::integer(-kMax));
  EXPECT_EQ(run("(-9223372036854775807 - 1) / 1"), Value::integer(kMin));
  EXPECT_EQ(run("9223372036854775807 mod -1"), Value::integer(0));
  EXPECT_EQ(run("-(-9223372036854775807)"), Value::integer(kMax));
  EXPECT_EQ(run("abs(-9223372036854775807)"), Value::integer(kMax));
  EXPECT_EQ(run("sum(bag(9223372036854775806, 1))"), Value::integer(kMax));
  // One past: a typed error, never a wrapped value or a trap.
  for (const char* text : {
           "9223372036854775807 + 1",
           "(-9223372036854775807 - 1) - 1",
           "4611686018427387904 * 2",
           "(-9223372036854775807 - 1) * -1",
           "(-9223372036854775807 - 1) / -1",
           "(-9223372036854775807 - 1) mod -1",
           "-(-9223372036854775807 - 1)",
           "abs(-9223372036854775807 - 1)",
           "sum(bag(9223372036854775807, 1))",
           "sum(bag(-9223372036854775807, -2))",
       }) {
    try {
      run(text);
      ADD_FAILURE() << text << " did not throw";
    } catch (const ExecutionError& e) {
      EXPECT_NE(std::string(e.what()).find("integer overflow"),
                std::string::npos)
          << text << ": " << e.what();
    }
  }
  // A sum is exact whatever the order of its items: only the total must
  // fit. One over Int and Double items is the real total.
  EXPECT_EQ(run("sum(bag(9223372036854775807, 1, -1))"), Value::integer(kMax));
  EXPECT_EQ(run("sum(bag(9223372036854775807, 9223372036854775807, 0.5))"),
            Value::real(18446744073709551616.0));
  // Double arithmetic is unchanged.
  EXPECT_EQ(run("9223372036854775807.0 * 2"),
            Value::real(18446744073709551616.0));
  EXPECT_EQ(run("-(9223372036854775807 + 1.0)"),
            Value::real(-9223372036854775808.0));
}

TEST_F(EvalFixture, Comparisons) {
  EXPECT_EQ(run("1 < 2"), Value::boolean(true));
  EXPECT_EQ(run("2 <= 2"), Value::boolean(true));
  EXPECT_EQ(run("\"a\" < \"b\""), Value::boolean(true));
  EXPECT_EQ(run("1 = 1.0"), Value::boolean(true));
  EXPECT_EQ(run("1 != 2"), Value::boolean(true));
  EXPECT_THROW(run("1 < \"a\""), ExecutionError);
}

TEST_F(EvalFixture, IntegersBeyondTwoTo53StayDistinct) {
  // Both literals are the same double; as integers they differ.
  Value v = run(
      "select x from x in bag(9007199254740993, 9007199254740992) "
      "where x = 9007199254740992");
  EXPECT_EQ(v, Value::bag({Value::integer(9007199254740992)}));
  EXPECT_EQ(run("distinct(bag(9007199254740993, 9007199254740992))").size(),
            2u);
  EXPECT_EQ(run("9007199254740993 > 9007199254740992"),
            Value::boolean(true));
}

TEST_F(EvalFixture, OrderingANilThrows) {
  try {
    run("nil > \"s\"");
    ADD_FAILURE() << "ordering nil against a string did not throw";
  } catch (const ExecutionError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot order null against string"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(run("nil = nil"), Value::boolean(true));
  EXPECT_EQ(run("nil != 1"), Value::boolean(true));
}

TEST_F(EvalFixture, NaNSortsAfterEveryNumberInPredicates) {
  resolver_.bind("nums", Value::bag({Value::real(std::nan("")),
                                     Value::real(1.5),
                                     Value::real(9007199254740992.0)}));
  EXPECT_EQ(run("count(select x from x in nums where x = 1.5)"),
            Value::integer(1));
  EXPECT_EQ(run("count(select x from x in nums where x > 1.5)"),
            Value::integer(2));
  EXPECT_EQ(run("count(select x from x in nums where x != 1.5)"),
            Value::integer(2));
  EXPECT_EQ(run("count(select x from x in nums where x < 9007199254740993)"),
            Value::integer(2));
}

TEST_F(EvalFixture, BooleanShortCircuit) {
  // Right operand would throw; short-circuit must avoid evaluating it.
  EXPECT_EQ(run("false and 1 / 0 = 1"), Value::boolean(false));
  EXPECT_EQ(run("true or 1 / 0 = 1"), Value::boolean(true));
  EXPECT_EQ(run("not false"), Value::boolean(true));
}

TEST_F(EvalFixture, CollectionConstructors) {
  EXPECT_EQ(run("bag(1, 2, 1)").size(), 3u);
  EXPECT_EQ(run("set(1, 2, 1)").size(), 2u);
  EXPECT_EQ(run("list(3, 1)").items()[0], Value::integer(3));
  EXPECT_EQ(run("bag()").size(), 0u);
}

TEST_F(EvalFixture, UnionFlattenDistinct) {
  EXPECT_EQ(run("union(bag(1), bag(2), bag(1))").size(), 3u);
  EXPECT_EQ(run("flatten(bag(bag(1, 2), bag(3)))").size(), 3u);
  EXPECT_EQ(run("distinct(bag(1, 1, 2))").size(), 2u);
  EXPECT_THROW(run("flatten(bag(1))"), ExecutionError);
}

TEST_F(EvalFixture, Aggregates) {
  EXPECT_EQ(run("count(bag(1, 2, 3))"), Value::integer(3));
  EXPECT_EQ(run("sum(bag(1, 2, 3))"), Value::integer(6));
  EXPECT_EQ(run("sum(bag(1.5, 2))"), Value::real(3.5));
  EXPECT_EQ(run("sum(bag())"), Value::integer(0));
  EXPECT_EQ(run("min(bag(3, 1, 2))"), Value::integer(1));
  EXPECT_EQ(run("max(bag(\"a\", \"c\"))"), Value::string("c"));
  EXPECT_EQ(run("avg(bag(1, 2))"), Value::real(1.5));
  EXPECT_THROW(run("min(bag())"), ExecutionError);
  EXPECT_EQ(run("element(bag(9))"), Value::integer(9));
  EXPECT_THROW(run("element(bag(1, 2))"), ExecutionError);
  EXPECT_EQ(run("exists(bag(1))"), Value::boolean(true));
  EXPECT_EQ(run("exists(bag())"), Value::boolean(false));
  EXPECT_EQ(run("abs(-4)"), Value::integer(4));
  EXPECT_EQ(run("abs(-4.5)"), Value::real(4.5));
}

TEST_F(EvalFixture, AggregateEdges) {
  EXPECT_EQ(run("count(bag())"), Value::integer(0));
  EXPECT_EQ(run("avg(bag())"), Value::real(0.0));
  EXPECT_THROW(run("max(bag())"), ExecutionError);
  // min/max order by Value::compare: nil ranks lowest.
  EXPECT_EQ(run("min(bag(\"b\", nil, \"a\"))"), Value::null());
  EXPECT_EQ(run("max(bag(\"b\", nil, \"a\"))"), Value::string("b"));
  // sum and avg need numbers.
  EXPECT_THROW(run("sum(bag(1, nil))"), ExecutionError);
  EXPECT_THROW(run("avg(bag(\"a\"))"), ExecutionError);
  // An all-Int sum stays Int; avg is real even then.
  EXPECT_EQ(run("sum(bag(2, 3))").kind(), ValueKind::Int);
  const Value avg = run("avg(bag(2, 3))");
  EXPECT_EQ(avg.kind(), ValueKind::Double);
  EXPECT_EQ(avg, Value::real(2.5));
}

TEST_F(EvalFixture, AggregateOverSubquery) {
  Value v = run("sum(select x.salary from x in person)");
  EXPECT_EQ(v, Value::integer(250));
}

TEST_F(EvalFixture, CorrelatedSubquery) {
  // §2.2.3 "multiple" reconciliation pattern.
  Value v = run(
      "select struct(name: x.name, total: sum(select z.salary "
      "from z in person where z.name = x.name)) from x in person0");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v.items()[0].field("total"), Value::integer(200));
}

TEST_F(EvalFixture, JoinAcrossExtents) {
  Value v = run(
      "select struct(n: x.name, s: x.salary + y.salary) "
      "from x in person0, y in person1");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v.items()[0].field("s"), Value::integer(250));
}

TEST_F(EvalFixture, DependentDomains) {
  resolver_.bind("groups",
                 Value::bag({Value::strct(
                     {{"members", Value::bag({Value::integer(1),
                                              Value::integer(2)})}})}));
  Value v = run("select m from g in groups, m in g.members");
  EXPECT_EQ(v.size(), 2u);
}

TEST_F(EvalFixture, DistinctSelectYieldsSet) {
  Value v = run("select distinct x.salary from x in person");
  EXPECT_EQ(v.kind(), ValueKind::Set);
}

TEST_F(EvalFixture, SelectOverLiteralCollection) {
  EXPECT_EQ(run("select x * 2 from x in bag(1, 2, 3)"),
            Value::bag({Value::integer(2), Value::integer(4),
                        Value::integer(6)}));
}

TEST_F(EvalFixture, UnresolvedNameThrows) {
  EXPECT_THROW(run("select x from x in nowhere"), ExecutionError);
  EXPECT_THROW(run("select x from x in person0*"), ExecutionError);
}

TEST_F(EvalFixture, PathOnNonStructThrows) {
  EXPECT_THROW(run("select x.name from x in bag(1)"), ExecutionError);
}

TEST_F(EvalFixture, WhereMustBeBool) {
  EXPECT_THROW(run("select x from x in person0 where x.salary"),
               ExecutionError);
}

TEST_F(EvalFixture, ClosureResolution) {
  resolver_.bind_closure("person",
                         Value::bag({person("Mary", 200), person("Sam", 50),
                                     person("Stu", 10)}));
  Value v = run("select x.name from x in person* where x.salary > 10");
  EXPECT_EQ(v.size(), 2u);
}

// -------------------------------------------------------------- printer ---

TEST(Printer, CanonicalForms) {
  EXPECT_EQ(to_oql(parse("select x.name from x in person "
                         "where x.salary > 10")),
            "select x.name from x in person where x.salary > 10");
  EXPECT_EQ(to_oql(parse("a+b*c")), "a + b * c");
  EXPECT_EQ(to_oql(parse("(a+b)*c")), "(a + b) * c");
  EXPECT_EQ(to_oql(parse("not (a or b)")), "not (a or b)");
  EXPECT_EQ(to_oql(parse("person*")), "person*");
  EXPECT_EQ(to_oql(parse("struct(a: 1, b: \"x\")")),
            "struct(a: 1, b: \"x\")");
}

TEST(Printer, NestedSelectGetsParens) {
  // Selects in comma contexts are defensively parenthesized.
  EXPECT_EQ(to_oql(parse("sum(select z.s from z in e)")),
            "sum((select z.s from z in e))");
  EXPECT_EQ(to_oql(parse("count(e) + count(f)")), "count(e) + count(f)");
}

TEST(Parser, PaperSection4AnswerWithoutParens) {
  // §4 prints the residual answer without parentheses around the select;
  // the binding lookahead disambiguates the comma.
  ExprPtr e = parse(
      "union(select x.name from x in person0, Bag(\"Sam\"))");
  ASSERT_EQ(e->args.size(), 2u);
  EXPECT_EQ(e->args[0]->kind, ExprKind::Select);
  EXPECT_EQ(e->args[0]->from.size(), 1u);
  EXPECT_EQ(e->args[1]->name, "bag");
}

TEST(Printer, SubtractionAssociativity) {
  // (a-b)-c prints without parens; a-(b-c) must keep them.
  EXPECT_EQ(to_oql(parse("a - b - c")), "a - b - c");
  EXPECT_EQ(to_oql(parse("a - (b - c)")), "a - (b - c)");
}

}  // namespace
}  // namespace disco::oql
