#include <gtest/gtest.h>

#include "common/error.hpp"
#include "grammar/capability.hpp"
#include "oql/parser.hpp"

namespace disco::grammar {
namespace {

using algebra::filter;
using algebra::get;
using algebra::join;
using algebra::project;
using algebra::submit;
using oql::parse;

// The two grammars printed verbatim in §3.2 of the paper.
const char* kNonComposing = R"(
a :- b
a :- c
b :- get OPEN SOURCE CLOSE
c :- project OPEN ATTRIBUTE COMMA SOURCE CLOSE
)";

const char* kComposing = R"(
a :- b
a :- c
b :- get OPEN s CLOSE
c :- project OPEN ATTRIBUTE COMMA s CLOSE
s :- b
s :- c
s :- SOURCE
)";

TEST(Grammar, ParsePaperText) {
  Grammar g = Grammar::parse(kNonComposing);
  EXPECT_EQ(g.start(), "a");
  EXPECT_EQ(g.productions().size(), 4u);
  EXPECT_TRUE(g.productions()[2].body[0].is_terminal);
  EXPECT_EQ(g.productions()[2].body[0].terminal, Terminal::Get);
}

TEST(Grammar, ParseErrors) {
  EXPECT_THROW(Grammar::parse(""), ParseError);
  EXPECT_THROW(Grammar::parse("a b c"), ParseError);
  EXPECT_THROW(Grammar::parse("get :- SOURCE"), ParseError);  // terminal head
}

TEST(Grammar, TextRoundTrip) {
  Grammar g = Grammar::parse(kComposing);
  Grammar reparsed = Grammar::parse(g.to_text());
  EXPECT_EQ(reparsed.to_text(), g.to_text());
  EXPECT_EQ(reparsed.start(), "a");
}

TEST(Grammar, RecognizesFlatForms) {
  Grammar g = Grammar::parse(kNonComposing);
  // get ( SOURCE )
  EXPECT_TRUE(g.recognizes({Terminal::Get, Terminal::Open, Terminal::Source,
                            Terminal::Close}));
  // project ( ATTRIBUTE , SOURCE )
  EXPECT_TRUE(g.recognizes({Terminal::Project, Terminal::Open,
                            Terminal::Attribute, Terminal::Comma,
                            Terminal::Source, Terminal::Close}));
  // project ( ATTRIBUTE , get ( SOURCE ) ) -- composition: rejected
  EXPECT_FALSE(g.recognizes({Terminal::Project, Terminal::Open,
                             Terminal::Attribute, Terminal::Comma,
                             Terminal::Get, Terminal::Open, Terminal::Source,
                             Terminal::Close, Terminal::Close}));
  EXPECT_FALSE(g.recognizes({}));
  EXPECT_FALSE(g.recognizes({Terminal::Get}));
}

TEST(Grammar, RecognizesComposedForms) {
  Grammar g = Grammar::parse(kComposing);
  EXPECT_TRUE(g.recognizes({Terminal::Project, Terminal::Open,
                            Terminal::Attribute, Terminal::Comma,
                            Terminal::Get, Terminal::Open, Terminal::Source,
                            Terminal::Close, Terminal::Close}));
}

TEST(Serialize, GetProjectSelectJoin) {
  std::vector<Terminal> tokens;
  ASSERT_TRUE(serialize(get("e", "x"), tokens));
  EXPECT_EQ(tokens, (std::vector<Terminal>{Terminal::Get, Terminal::Open,
                                           Terminal::Source,
                                           Terminal::Close}));
  tokens.clear();
  ASSERT_TRUE(serialize(project(get("e", "x"), parse("x.name"), false),
                        tokens));
  EXPECT_EQ(tokens[0], Terminal::Project);
  EXPECT_EQ(tokens.back(), Terminal::Close);

  tokens.clear();
  ASSERT_TRUE(serialize(
      join(get("a", "x"), get("b", "y"), parse("x.id = y.id")), tokens));
  EXPECT_EQ(tokens[0], Terminal::Join);

  tokens.clear();
  EXPECT_FALSE(serialize(submit("r", get("e", "x")), tokens));
  tokens.clear();
  EXPECT_FALSE(
      serialize(algebra::constant(Value::bag({})), tokens));
}

TEST(Accepts, PaperScenario) {
  // §3.2: "the call may return {get, project, compose} for r0 but only
  // {get} for r1" — project pushes to r0 but not to r1.
  CapabilitySet r0{.get = true, .project = true, .select = false,
                   .join = false, .compose = true};
  CapabilitySet r1{.get = true};
  Grammar g0 = r0.to_grammar();
  Grammar g1 = r1.to_grammar();
  auto pushed = project(get("person0", "x"), parse("x.name"), false);
  EXPECT_TRUE(g0.accepts(pushed));
  EXPECT_FALSE(g1.accepts(pushed));
  EXPECT_TRUE(g1.accepts(get("person0", "x")));
}

TEST(Accepts, CompositionFlagMatters) {
  CapabilitySet with{.get = true, .project = true, .select = true,
                     .join = false, .compose = true};
  CapabilitySet without{.get = true, .project = true, .select = true,
                        .join = false, .compose = false};
  auto composed = project(filter(get("e", "x"), parse("x.a > 1")),
                          parse("x.name"), false);
  EXPECT_TRUE(with.to_grammar().accepts(composed));
  EXPECT_FALSE(without.to_grammar().accepts(composed));
  // A single operator applied directly to a source is flat — fine for
  // both grammars (the paper's project(ATTRIBUTE, SOURCE) production).
  auto flat = filter(get("e", "x"), parse("x.a > 1"));
  EXPECT_TRUE(with.to_grammar().accepts(flat));
  EXPECT_TRUE(without.to_grammar().accepts(flat));
}

TEST(Accepts, JoinPushdown) {
  // §3.2: join(get(employee0), get(manager0), dept) pushes when the
  // wrapper accepts join.
  CapabilitySet caps{.get = true, .project = true, .select = true,
                     .join = true, .compose = true};
  auto pushed_join = join(get("employee0", "x"), get("manager0", "y"),
                          parse("x.dept = y.dept"));
  EXPECT_TRUE(caps.to_grammar().accepts(pushed_join));
  CapabilitySet no_join{.get = true, .project = true, .select = true,
                        .join = false, .compose = true};
  EXPECT_FALSE(no_join.to_grammar().accepts(pushed_join));
}

TEST(Accepts, NestedJoinComposition) {
  CapabilitySet caps{.get = true, .project = true, .select = true,
                     .join = true, .compose = true};
  auto nested = join(join(get("a", "x"), get("b", "y"), parse("x.i = y.i")),
                     get("c", "z"), parse("x.i = z.i"));
  EXPECT_TRUE(caps.to_grammar().accepts(nested));
}

TEST(Accepts, SubmitNeverBelowWrapper) {
  CapabilitySet caps{.get = true, .project = true, .select = true,
                     .join = true, .compose = true};
  auto bad = project(submit("r1", get("e", "x")), parse("x.a"), false);
  EXPECT_FALSE(caps.to_grammar().accepts(bad));
}

TEST(Grammar, CommentOrWhitespaceOnlyTextIsEmpty) {
  // Lines that are blank or comments contribute no productions; the
  // grammar is empty even though the text is not.
  EXPECT_THROW(Grammar::parse("\n   \n\t\n"), ParseError);
  EXPECT_THROW(Grammar::parse("// just commentary\n// more\n"), ParseError);
  try {
    Grammar::parse("   // a comment\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("empty grammar"),
              std::string::npos);
  }
}

TEST(Grammar, AsymmetricNestingSelectUnderProjectOnly) {
  // A wrapper that evaluates select *inside* project — project(A, select(
  // P, SOURCE)) — but not the other way around. Nested composability is
  // direction-sensitive: the grammar, not a boolean, decides.
  Grammar g = Grammar::parse(R"(
    a :- p
    a :- s
    a :- get OPEN SOURCE CLOSE
    p :- project OPEN ATTRIBUTE COMMA inner CLOSE
    s :- select OPEN PREDICATE COMMA SOURCE CLOSE
    inner :- s
    inner :- SOURCE
  )");
  auto select_under_project =
      project(filter(get("e", "x"), parse("x.a > 1")), parse("x.name"),
              false);
  auto project_under_select =
      filter(project(get("e", "x"), parse("x.name"), false),
             parse("x.a > 1"));
  EXPECT_TRUE(g.accepts(select_under_project));
  EXPECT_FALSE(g.accepts(project_under_select));
  // Deeper nesting on the accepted side is still out: inner does not
  // produce p, so project(select(project(...))) has nowhere to go.
  auto doubled = project(filter(project(get("e", "x"), parse("x.name"),
                                        false),
                                parse("x.a > 1")),
                         parse("x.name"), false);
  EXPECT_FALSE(g.accepts(doubled));
}

TEST(Grammar, EqPredicateIsSubsumedByPredicate) {
  // A lookup-only store accepts EQPREDICATE; a full DBMS accepts
  // PREDICATE. Equality predicates are predicates — the reverse is not
  // true.
  Grammar eq_only = Grammar::parse(R"(
    a :- get OPEN SOURCE CLOSE
    a :- select OPEN EQPREDICATE COMMA SOURCE CLOSE
  )");
  Grammar full = Grammar::parse(R"(
    a :- get OPEN SOURCE CLOSE
    a :- select OPEN PREDICATE COMMA SOURCE CLOSE
  )");
  auto eq_select = filter(get("e", "x"), parse("x.id = 7"));
  auto range_select = filter(get("e", "x"), parse("x.id < 7"));
  auto conj_eq = filter(get("e", "x"), parse("x.id = 7 and x.kind = 2"));
  EXPECT_TRUE(eq_only.accepts(eq_select));
  EXPECT_TRUE(eq_only.accepts(conj_eq));
  EXPECT_FALSE(eq_only.accepts(range_select));
  EXPECT_TRUE(full.accepts(eq_select));
  EXPECT_TRUE(full.accepts(range_select));
  // A mixed conjunction is not equality-only: EQPREDICATE refuses it.
  auto mixed = filter(get("e", "x"), parse("x.id = 7 and x.a < 2"));
  EXPECT_FALSE(eq_only.accepts(mixed));
  EXPECT_TRUE(full.accepts(mixed));
  // Round-trip keeps the distinction.
  Grammar reparsed = Grammar::parse(eq_only.to_text());
  EXPECT_TRUE(reparsed.accepts(eq_select));
  EXPECT_FALSE(reparsed.accepts(range_select));
}

TEST(Accepts, MediatorOnlyOperatorsNeverPush) {
  // union/const/submit have no terminal form: even the full grammar
  // refuses expressions containing them (serialize() returns false).
  CapabilitySet caps{.get = true, .project = true, .select = true,
                     .join = true, .compose = true};
  Grammar g = caps.to_grammar();
  EXPECT_FALSE(g.accepts(algebra::union_of(
      {get("a", "x"), get("b", "x")})));
  EXPECT_FALSE(g.accepts(algebra::constant(Value::bag({}))));
  EXPECT_FALSE(g.accepts(
      project(submit("r0", get("e", "x")), parse("x.name"), false)));
}

struct CapabilityCase {
  CapabilitySet caps;
  bool expect_get;
  bool expect_project;
  bool expect_select;
  bool expect_join;
};

class CapabilityLattice : public ::testing::TestWithParam<CapabilityCase> {};

TEST_P(CapabilityLattice, FlatOperatorsFollowTheSet) {
  const CapabilityCase& c = GetParam();
  Grammar g = c.caps.to_grammar();
  EXPECT_EQ(g.accepts(get("e", "x")), c.expect_get);
  // Flat project/select over a bare source (non-composing shape).
  std::vector<Terminal> project_flat{Terminal::Project, Terminal::Open,
                                     Terminal::Attribute, Terminal::Comma,
                                     Terminal::Source, Terminal::Close};
  std::vector<Terminal> select_flat{Terminal::Select, Terminal::Open,
                                    Terminal::Predicate, Terminal::Comma,
                                    Terminal::Source, Terminal::Close};
  std::vector<Terminal> join_flat{
      Terminal::Join, Terminal::Open,  Terminal::Source,
      Terminal::Comma, Terminal::Source, Terminal::Comma,
      Terminal::Predicate, Terminal::Close};
  if (!c.caps.compose) {
    EXPECT_EQ(g.recognizes(project_flat), c.expect_project);
    EXPECT_EQ(g.recognizes(select_flat), c.expect_select);
    EXPECT_EQ(g.recognizes(join_flat), c.expect_join);
  } else {
    // With composition the flat forms are also in the language.
    EXPECT_EQ(g.recognizes(project_flat), c.expect_project);
    EXPECT_EQ(g.recognizes(select_flat), c.expect_select);
    EXPECT_EQ(g.recognizes(join_flat), c.expect_join);
  }
}

// --------------------------------------------------------- verdict table ---

/// k extents of one repository merged by R3: a left-deep join k levels
/// deep over a selection.
algebra::LogicalPtr merged_join(int k) {
  algebra::LogicalPtr tree = filter(get("e0", "x0"), parse("x0.a > 1"));
  for (int i = 1; i < k; ++i) {
    const std::string var = "x" + std::to_string(i);
    tree = join(tree, get("e" + std::to_string(i), var),
                parse("x0.a = " + var + ".a"));
  }
  return tree;
}

TEST(GrammarVerdicts, BoundedTableAgreesWithTheRecognizer) {
  // A client controls how many token shapes the mediator sees, so the
  // table is bounded. Feed it more distinct token strings than it holds,
  // twice over, and check every verdict against Earley.
  const Grammar grammar = CapabilitySet{.get = true,
                                        .project = true,
                                        .select = true,
                                        .join = true,
                                        .compose = true}
                              .to_grammar();
  constexpr int kTerminals = static_cast<int>(Terminal::PathPredicate) + 1;
  auto t = [](int i) { return static_cast<Terminal>(i); };
  std::vector<std::vector<Terminal>> sentences;
  for (int a = 0; a < kTerminals; ++a) {
    sentences.push_back({t(a)});
    for (int b = 0; b < kTerminals; ++b) {
      sentences.push_back({t(a), t(b)});
      for (int c = 0; c < kTerminals; ++c) {
        sentences.push_back({t(a), t(b), t(c)});
      }
    }
  }
  for (int k = 1; k <= 32; ++k) {
    std::vector<Terminal> tokens;
    ASSERT_TRUE(serialize(merged_join(k), tokens));
    sentences.push_back(std::move(tokens));
  }
  ASSERT_GT(sentences.size(), Grammar::kVerdictCapacity);

  size_t accepted = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::vector<Terminal>& tokens : sentences) {
      const bool expected = grammar.recognizes(tokens);
      EXPECT_EQ(grammar.verdict(tokens), expected);
      EXPECT_LE(grammar.cached_verdicts(), Grammar::kVerdictCapacity);
      if (expected) ++accepted;
    }
  }
  // Both verdicts occur: the merged joins are in the language.
  EXPECT_GE(accepted, 2u * 32u);
  EXPECT_TRUE(grammar.accepts(merged_join(32)));
}

TEST(GrammarVerdicts, CopiesShareOneTable) {
  const Grammar grammar = Grammar::parse(kComposing);
  const Grammar copy = grammar;
  std::vector<Terminal> tokens;
  ASSERT_TRUE(serialize(project(get("e", "x"), parse("x.a"), false), tokens));
  bool hit = true;
  EXPECT_TRUE(grammar.verdict(tokens, &hit));
  EXPECT_FALSE(hit);
  EXPECT_TRUE(copy.verdict(tokens, &hit));
  EXPECT_TRUE(hit);
  EXPECT_EQ(copy.cached_verdicts(), 1u);
  // The same text parsed again is another grammar with its own table.
  EXPECT_EQ(Grammar::parse(kComposing).cached_verdicts(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, CapabilityLattice,
    ::testing::Values(
        CapabilityCase{{.get = true}, true, false, false, false},
        CapabilityCase{{.get = true, .project = true}, true, true, false,
                       false},
        CapabilityCase{{.get = true, .project = true, .select = true},
                       true, true, true, false},
        CapabilityCase{{.get = true, .project = true, .select = true,
                        .join = true},
                       true, true, true, true},
        CapabilityCase{{.get = true, .project = true, .select = true,
                        .join = true, .compose = true},
                       true, true, true, true},
        CapabilityCase{{.get = true, .select = true, .compose = true},
                       true, false, true, false}));

}  // namespace
}  // namespace disco::grammar
