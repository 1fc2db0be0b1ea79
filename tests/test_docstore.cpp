// The semi-structured document source (src/sources/docstore/), its
// path-flattening wrapper, and the ingestion-boundary hazards the PR
// sweeps: NaN ordering, non-finite JSON numbers, duplicate keys, and
// nil-vs-missing consistency between indexed and scanned access paths.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/disco.hpp"
#include "oql/parser.hpp"

namespace disco {
namespace {

using algebra::filter;
using algebra::get;
using algebra::project;
using docstore::DocPath;
using oql::parse;

// ------------------------------------------------------------- DocPath ---

TEST(DocPathTest, ParseAndRoundTrip) {
  for (const char* text :
       {"a", "a.b", "a.b.c", "items[0]", "items[0].id", "items[*].id",
        "a.b[3][*].c", ""}) {
    EXPECT_EQ(DocPath::parse(text).to_text(), text);
  }
  EXPECT_TRUE(DocPath::parse("").whole_document());
  EXPECT_TRUE(DocPath::parse("items[*].id").has_wildcard());
  EXPECT_FALSE(DocPath::parse("items[0].id").has_wildcard());
}

TEST(DocPathTest, ParseErrors) {
  for (const char* text :
       {".", "a.", "a..b", "[0]", "a[", "a[x]", "a[1", "a[*", "a b", "a.1"}) {
    EXPECT_THROW(DocPath::parse(text), ExecutionError) << text;
  }
}

Value sample_doc() {
  // {id: 7, meta: {site: "river"}, samples: [{ph: 7.1}, {ph: 6.8}, 3]}
  return Value::strct(
      {{"id", Value::integer(7)},
       {"meta", Value::strct({{"site", Value::string("river")}})},
       {"samples",
        Value::list({Value::strct({{"ph", Value::real(7.1)}}),
                     Value::strct({{"ph", Value::real(6.8)}}),
                     Value::integer(3)})}});
}

TEST(DocPathTest, EvalMirrorsMediatorLeniency) {
  const Value doc = sample_doc();
  EXPECT_EQ(DocPath::parse("id").eval(doc), Value::integer(7));
  EXPECT_EQ(DocPath::parse("meta.site").eval(doc), Value::string("river"));
  EXPECT_EQ(DocPath::parse("").eval(doc), doc);
  // Missing field -> nil; nil propagates through deeper steps.
  EXPECT_TRUE(DocPath::parse("nope").eval(doc).is_null());
  EXPECT_TRUE(DocPath::parse("nope.deeper.still").eval(doc).is_null());
  EXPECT_TRUE(DocPath::parse("meta.city").eval(doc).is_null());
  // Out-of-range index -> nil; index into nil -> nil.
  EXPECT_EQ(DocPath::parse("samples[1].ph").eval(doc), Value::real(6.8));
  EXPECT_TRUE(DocPath::parse("samples[9]").eval(doc).is_null());
  EXPECT_TRUE(DocPath::parse("nope[0]").eval(doc).is_null());
  // Field over a non-struct / index over a non-list: type errors, same
  // as the mediator's Path eval.
  EXPECT_THROW(DocPath::parse("id.sub").eval(doc), ExecutionError);
  EXPECT_THROW(DocPath::parse("id[0]").eval(doc), ExecutionError);
}

TEST(DocPathTest, WildcardFansOutAndSkipsNonMatching) {
  const Value doc = sample_doc();
  // samples[*].ph: two struct elements match, the int element is skipped.
  EXPECT_EQ(DocPath::parse("samples[*].ph").eval(doc),
            Value::list({Value::real(7.1), Value::real(6.8)}));
  // Wildcard over a missing array: empty list, not an error.
  EXPECT_EQ(DocPath::parse("nope[*].x").eval(doc), Value::list({}));
  // Wildcard over a non-list is still a type error at the top level.
  EXPECT_THROW(DocPath::parse("id[*]").eval(doc), ExecutionError);
  // Whole-element wildcard keeps every element.
  EXPECT_EQ(DocPath::parse("samples[*]").eval(doc).size(), 3u);
}

TEST(DocPathTest, WithFieldsComposes) {
  const Value doc = sample_doc();
  DocPath base = DocPath::parse("meta");
  EXPECT_EQ(base.with_fields({"site"}).eval(doc), Value::string("river"));
  EXPECT_EQ(base.with_fields({"site"}).to_text(), "meta.site");
}

// ------------------------------------------------------------ DocStore ---

TEST(DocStoreTest, LoadJsonObjectsAndArrays) {
  docstore::DocStore store;
  docstore::DocCollection& c = store.create_collection("readings");
  EXPECT_EQ(c.load_json(R"({"id": 1, "meta": {"site": "river"}})"), 1u);
  EXPECT_EQ(c.load_json(R"([{"id": 2, "tags": ["a", "b"]},
                            {"id": 3, "v": 2.5}])"),
            2u);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(DocPath::parse("meta.site").eval(c.docs()[0]),
            Value::string("river"));
  EXPECT_EQ(DocPath::parse("tags[1]").eval(c.docs()[1]),
            Value::string("b"));
  EXPECT_EQ(store.stats().documents, 3u);
}

TEST(DocStoreTest, IngestionBoundaryRejections) {
  docstore::DocStore store;
  docstore::DocCollection& c = store.create_collection("r");
  // Malformed JSON and non-object documents.
  EXPECT_THROW(c.load_json("{"), ExecutionError);
  EXPECT_THROW(c.load_json("[1, 2]"), ExecutionError);
  EXPECT_THROW(c.load_json("\"text\""), ExecutionError);
  // Duplicate keys are rejected, not silently dropped.
  EXPECT_THROW(c.load_json(R"({"a": 1, "a": 2})"), ExecutionError);
  EXPECT_THROW(c.load_json(R"({"a": 1, "b": {"x": 1, "x": 2}})"),
               ExecutionError);
  // Non-finite numbers: the same hazard the CSV source closes. 1e999
  // overflows to inf in strtod; the strict parser rejects it.
  EXPECT_THROW(c.load_json(R"({"v": 1e999})"), ExecutionError);
  EXPECT_THROW(c.load_json(R"({"v": -1e999})"), ExecutionError);
  EXPECT_EQ(c.size(), 0u);  // nothing half-loaded
  // Programmatic inserts only accept struct documents.
  EXPECT_THROW(c.insert(Value::integer(1)), TypeError);
  // Store-level validation.
  EXPECT_THROW(store.create_collection("r"), ExecutionError);
  EXPECT_THROW(store.collection("nope"), ExecutionError);
}

TEST(DocStoreTest, HeterogeneousAndDeeplyNestedDocuments) {
  docstore::DocStore store;
  docstore::DocCollection& c = store.create_collection("r");
  c.load_json(R"([
    {"id": 1, "a": {"b": {"c": {"d": [1, [2, 3], {"e": 4}]}}}},
    {"id": 2, "a": "flat string"},
    {"id": 3}
  ])");
  EXPECT_EQ(DocPath::parse("a.b.c.d[2].e").eval(c.docs()[0]),
            Value::integer(4));
  EXPECT_EQ(DocPath::parse("a.b.c.d[1][0]").eval(c.docs()[0]),
            Value::integer(2));
  // Heterogeneous 'a': struct in doc 1, string in doc 2, missing in 3.
  EXPECT_THROW(DocPath::parse("a.b").eval(c.docs()[1]), ExecutionError);
  EXPECT_TRUE(DocPath::parse("a.b").eval(c.docs()[2]).is_null());
}

TEST(DocStoreTest, IndexAgreesWithForcedScan) {
  docstore::DocStore store;
  docstore::DocCollection& c = store.create_collection("r");
  for (int i = 0; i < 50; ++i) {
    c.insert(Value::strct(
        {{"id", Value::integer(i)},
         {"meta", i % 5 == 0
                      ? Value::strct({})  // meta.site missing -> nil
                      : Value::strct({{"site", Value::string(
                                                   "s" + std::to_string(i % 3))}})}}));
  }
  c.create_index("meta.site");
  EXPECT_TRUE(c.has_index("meta.site"));
  EXPECT_THROW(c.create_index("tags[*]"), ExecutionError);  // wildcard

  const DocPath path = DocPath::parse("meta.site");
  for (const Value& key :
       {Value::string("s0"), Value::string("s1"), Value::null(),
        Value::string("ghost")}) {
    bool used_index = false;
    std::vector<size_t> indexed = c.find_equal(path, key, &used_index);
    EXPECT_TRUE(used_index);
    store.set_use_indexes(false);
    std::vector<size_t> scanned = c.find_equal(path, key, &used_index);
    EXPECT_FALSE(used_index);
    store.set_use_indexes(true);
    EXPECT_EQ(indexed, scanned) << key.to_oql();
  }
  // Missing fields are indexed under nil: a nil probe answers without a
  // scan and finds exactly the site-less documents.
  EXPECT_EQ(c.find_equal(path, Value::null()).size(), 10u);
  // Inserts after create_index keep the index current.
  c.insert(Value::strct(
      {{"id", Value::integer(99)},
       {"meta", Value::strct({{"site", Value::string("ghost")}})}}));
  EXPECT_EQ(c.find_equal(path, Value::string("ghost")).size(), 1u);
}

TEST(DocStoreTest, NaNIsOneIndexKey) {
  // Programmatic NaN (the JSON boundary rejects textual non-finites) is
  // a first-class key: NaN == NaN under Value's total order, so an index
  // built over NaN values probes deterministically and agrees with a
  // forced scan.
  docstore::DocStore store;
  docstore::DocCollection& c = store.create_collection("r");
  for (int i = 0; i < 10; ++i) {
    c.insert(Value::strct(
        {{"id", Value::integer(i)},
         {"v", i % 3 == 0 ? Value::real(std::nan("")) : Value::real(i)}}));
  }
  c.create_index("v");
  const DocPath path = DocPath::parse("v");
  const Value nan = Value::real(std::numeric_limits<double>::quiet_NaN());
  std::vector<size_t> indexed = c.find_equal(path, nan);
  store.set_use_indexes(false);
  std::vector<size_t> scanned = c.find_equal(path, nan);
  store.set_use_indexes(true);
  EXPECT_EQ(indexed, (std::vector<size_t>{0, 3, 6, 9}));
  EXPECT_EQ(indexed, scanned);
}

// ---------------------------------------------------- capability grammar ---

TEST(DocGrammar, PathTerminalsSerializeAndSubsume) {
  std::vector<grammar::Terminal> tokens;
  // Nested chain -> PATHEQPREDICATE; flat chain -> EQPREDICATE.
  ASSERT_TRUE(grammar::serialize(
      filter(get("e", "x"), parse("x.meta.site = \"river\"")), tokens));
  EXPECT_EQ(tokens[2], grammar::Terminal::PathEqPredicate);
  tokens.clear();
  ASSERT_TRUE(grammar::serialize(
      filter(get("e", "x"), parse("x.meta.depth > 3")), tokens));
  EXPECT_EQ(tokens[2], grammar::Terminal::PathPredicate);
  tokens.clear();
  ASSERT_TRUE(grammar::serialize(
      project(get("e", "x"), parse("x.meta.site"), false), tokens));
  EXPECT_EQ(tokens[2], grammar::Terminal::Path);
  tokens.clear();
  ASSERT_TRUE(grammar::serialize(
      project(get("e", "x"), parse("x.site"), false), tokens));
  EXPECT_EQ(tokens[2], grammar::Terminal::Attribute);

  wrapper::DocWrapper doc;
  const grammar::Grammar path_grammar = doc.capabilities();
  // Accepts nested and flat equality selections, path projections, and
  // their compositions.
  EXPECT_TRUE(path_grammar.accepts(
      filter(get("e", "x"), parse("x.meta.site = \"river\""))));
  EXPECT_TRUE(path_grammar.accepts(filter(get("e", "x"), parse("x.id = 1"))));
  EXPECT_TRUE(path_grammar.accepts(
      project(filter(get("e", "x"), parse("x.meta.site = \"river\"")),
              parse("x.meta.depth"), false)));
  EXPECT_TRUE(path_grammar.accepts(get("e", "x")));
  // Rejects range predicates (flat or nested) and distinct projections
  // are refused at submit, not in the grammar.
  EXPECT_FALSE(path_grammar.accepts(
      filter(get("e", "x"), parse("x.meta.depth > 3"))));
  EXPECT_FALSE(
      path_grammar.accepts(filter(get("e", "x"), parse("x.id > 1"))));

  // Flat wrappers never admit the PATH* tokens: subsumption is one-way.
  const grammar::Grammar flat =
      grammar::CapabilitySet{.get = true, .project = true, .select = true,
                             .join = true, .compose = true}
          .to_grammar();
  EXPECT_TRUE(flat.accepts(filter(get("e", "x"), parse("x.id = 1"))));
  EXPECT_FALSE(flat.accepts(
      filter(get("e", "x"), parse("x.meta.site = \"river\""))));
  EXPECT_FALSE(
      flat.accepts(project(get("e", "x"), parse("x.meta.site"), false)));
}

// ----------------------------------------------------- wrapper submits ---

class DocWrapperTest : public ::testing::Test {
 protected:
  DocWrapperTest() {
    docstore::DocCollection& c = store_.create_collection("readings");
    c.load_json(R"([
      {"id": 1, "meta": {"site": "river", "depth": 2},
       "samples": [{"ph": 7.1}, {"ph": 6.8}]},
      {"id": 2, "meta": {"site": "lake"}, "samples": [{"ph": 9.0}]},
      {"id": 3, "samples": []},
      {"id": 4, "meta": {"site": "river"}}
    ])");
    c.create_index("meta.site");
    wrapper_.attach_store("rd", &store_);
    bindings_["readingsd"] = wrapper::ExtentBinding{"readings", &identity_};
  }

  wrapper::SubmitResult submit(const algebra::LogicalPtr& expr) {
    return wrapper_.submit(repo_, expr, bindings_);
  }

  docstore::DocStore store_{"docs"};
  wrapper::DocWrapper wrapper_;
  catalog::Repository repo_{"rd", "host", "docs", "3.0.0.9"};
  catalog::TypeMap identity_{"readings", {}};
  wrapper::BindingMap bindings_;
};

TEST_F(DocWrapperTest, GetReturnsWholeDocumentsAsEnvRows) {
  wrapper::SubmitResult r = submit(get("readingsd", "x"));
  ASSERT_EQ(r.status, wrapper::SubmitResult::Status::Ok);
  ASSERT_EQ(r.data.size(), 4u);
  const Value& row = r.data.items()[0].field("x");
  EXPECT_EQ(row.field("id"), Value::integer(1));
  EXPECT_EQ(DocPath::parse("meta.site").eval(row), Value::string("river"));
}

TEST_F(DocWrapperTest, PathEqualityUsesTheIndex) {
  wrapper::SubmitResult r = submit(
      filter(get("readingsd", "x"), parse("x.meta.site = \"river\"")));
  ASSERT_EQ(r.status, wrapper::SubmitResult::Status::Ok);
  EXPECT_EQ(r.data.size(), 2u);
  EXPECT_EQ(store_.stats().index_probes, 1u);
  EXPECT_EQ(store_.stats().scans, 0u);
}

TEST_F(DocWrapperTest, NilProbeFindsDocumentsMissingTheField) {
  // x.meta.site is nil for doc 3 (no meta at all). The index stores nil
  // keys, so the indexed answer equals the forced-scan answer.
  const auto expr = filter(get("readingsd", "x"), parse("x.meta.site = nil"));
  wrapper::SubmitResult indexed = submit(expr);
  ASSERT_EQ(indexed.status, wrapper::SubmitResult::Status::Ok);
  store_.set_use_indexes(false);
  wrapper::SubmitResult scanned = submit(expr);
  store_.set_use_indexes(true);
  EXPECT_EQ(indexed.data, scanned.data);
  ASSERT_EQ(indexed.data.size(), 1u);
  EXPECT_EQ(indexed.data.items()[0].field("x").field("id"),
            Value::integer(3));
}

TEST_F(DocWrapperTest, ProjectionFlattensPaths) {
  wrapper::SubmitResult r = submit(
      project(filter(get("readingsd", "x"), parse("x.meta.site = \"lake\"")),
              parse("struct(i: x.id, d: x.meta.depth)"), false));
  ASSERT_EQ(r.status, wrapper::SubmitResult::Status::Ok);
  ASSERT_EQ(r.data.size(), 1u);
  EXPECT_EQ(r.data.items()[0].field("i"), Value::integer(2));
  // meta.depth missing on doc 2 -> nil, exactly as the mediator would
  // evaluate it.
  EXPECT_TRUE(r.data.items()[0].field("d").is_null());
}

TEST_F(DocWrapperTest, MapFlattensThroughPathsIncludingWildcards) {
  catalog::TypeMap map("readings", {{"meta.site", "site"},
                                    {"samples[*].ph", "phs"},
                                    {"id", "id"}});
  bindings_["readingsflat"] = wrapper::ExtentBinding{"readings", &map};
  wrapper::SubmitResult r = submit(
      filter(get("readingsflat", "x"), parse("x.site = \"river\"")));
  ASSERT_EQ(r.status, wrapper::SubmitResult::Status::Ok);
  ASSERT_EQ(r.data.size(), 2u);
  const Value& row = r.data.items()[0].field("x");
  EXPECT_EQ(row.field("site"), Value::string("river"));
  EXPECT_EQ(row.field("phs"),
            Value::list({Value::real(7.1), Value::real(6.8)}));
  // Descending below a wildcard-mapped attribute is refused: the
  // mediator would type-error where DocPath would skip, so it must stay
  // a residual.
  wrapper::SubmitResult refused = submit(
      filter(get("readingsflat", "x"), parse("x.phs.deeper = 1")));
  EXPECT_EQ(refused.status, wrapper::SubmitResult::Status::Refused);
}

TEST_F(DocWrapperTest, RefusalsAreExplicit) {
  // Range predicate: rejected by the grammar.
  EXPECT_EQ(submit(filter(get("readingsd", "x"), parse("x.id > 1"))).status,
            wrapper::SubmitResult::Status::Refused);
  // Distinct projection: grammar-accepted shape, refused at submit.
  EXPECT_EQ(
      submit(project(get("readingsd", "x"), parse("x.id"), true)).status,
      wrapper::SubmitResult::Status::Refused);
  // Unknown collection.
  catalog::TypeMap ghost_map("ghost", {});
  wrapper::BindingMap bad;
  bad["g"] = wrapper::ExtentBinding{"ghost", &ghost_map};
  EXPECT_EQ(wrapper_.submit(repo_, get("g", "x"), bad).status,
            wrapper::SubmitResult::Status::Refused);
}

TEST_F(DocWrapperTest, CostModelReportsComputeTime) {
  wrapper_.set_cost_model({.enabled = true,
                           .base_s = 0.001,
                           .per_doc_scanned_s = 1e-4,
                           .per_index_probe_s = 1e-5});
  // Index probe: base + probe + per-candidate.
  wrapper::SubmitResult probed = submit(
      filter(get("readingsd", "x"), parse("x.meta.site = \"river\"")));
  EXPECT_NEAR(probed.compute_s, 0.001 + 1e-5 + 2 * 1e-4, 1e-12);
  // Full scan: base + 4 docs.
  wrapper::SubmitResult scanned = submit(get("readingsd", "x"));
  EXPECT_NEAR(scanned.compute_s, 0.001 + 4 * 1e-4, 1e-12);
  EXPECT_GT(scanned.compute_s, probed.compute_s);
}

TEST_F(DocWrapperTest, StatGaugesAggregate) {
  submit(get("readingsd", "x"));
  auto gauges = wrapper_.stat_gauges();
  uint64_t scans = 0, documents = 0;
  for (const auto& [name, v] : gauges) {
    if (name == "docstore.scans") scans = v;
    if (name == "docstore.documents") documents = v;
  }
  EXPECT_GE(scans, 1u);
  EXPECT_EQ(documents, 4u);
}

// ------------------------------------------------------------ federation ---

class DocWorld : public ::testing::Test {
 protected:
  explicit DocWorld(Mediator::Options options = {})
      : mediator_(std::move(options)) {
    docstore::DocCollection& c = store_.create_collection("readings");
    for (int i = 0; i < 60; ++i) {
      std::vector<std::pair<std::string, Value>> doc{
          {"id", Value::integer(i)}};
      if (i % 10 != 0) {
        doc.emplace_back(
            "meta",
            Value::strct({{"site", Value::string("s" + std::to_string(i % 3))},
                          {"depth", Value::integer(i % 7)}}));
      }
      doc.emplace_back(
          "samples",
          Value::list({Value::strct({{"ph", Value::real(7.0 + i % 4)}})}));
      c.insert(Value::strct(std::move(doc)));
    }
    c.create_index("meta.site");
    auto w = std::make_shared<wrapper::DocWrapper>();
    w->attach_store("rd", &store_);
    mediator_.register_wrapper("wd", std::move(w));
    mediator_.register_repository(
        catalog::Repository{"rd", "doc-host", "docs", "3.0.1.1"},
        net::LatencyModel{0.002, 0.0001, 0});
    mediator_.execute_odl(R"(
      interface Reading (extent readings) {
        attribute Long id;
        attribute Json meta;
        attribute Json samples; };
      extent readingsd of Reading wrapper wd repository rd
        map ((readings=readingsd));
    )");
  }

  docstore::DocStore store_{"docs"};
  Mediator mediator_;
};

TEST_F(DocWorld, NestedPathEqualityPushesDownToTheIndex) {
  Answer a = mediator_.query(
      "select x.id from x in readingsd where x.meta.site = \"s1\"");
  ASSERT_TRUE(a.complete());
  EXPECT_EQ(a.data().size(), 18u);
  EXPECT_EQ(store_.stats().index_probes, 1u);
  EXPECT_EQ(store_.stats().scans, 0u);
  // Only the matching rows crossed the simulated network.
  EXPECT_EQ(a.stats().run.rows_fetched, 18u);
}

TEST_F(DocWorld, ExplainShowsThePathPushdownDecision) {
  Mediator::ExplainReport report = mediator_.explain_report(
      "select x.id from x in readingsd where x.meta.site = \"s1\"");
  ASSERT_EQ(report.submits.size(), 1u);
  // The shipped expression carries the nested-path selection.
  EXPECT_NE(report.submits[0].remote.find("select(x.meta.site"),
            std::string::npos)
      << report.submits[0].remote;
  // Range predicates over paths stay mediator-side.
  std::string residual = mediator_.explain(
      "select x.id from x in readingsd where x.meta.depth > 3");
  EXPECT_NE(residual.find("mkfilter(x.meta.depth > 3"), std::string::npos)
      << residual;
}

TEST_F(DocWorld, PushdownOnAndOffAgree) {
  Mediator::Options off;
  off.optimizer.enable_select_pushdown = false;
  off.optimizer.enable_project_pushdown = false;
  Mediator plain(off);
  auto w = std::make_shared<wrapper::DocWrapper>();
  w->attach_store("rd", &store_);
  plain.register_wrapper("wd", std::move(w));
  plain.register_repository(
      catalog::Repository{"rd", "doc-host", "docs", "3.0.1.1"},
      net::LatencyModel{0.002, 0.0001, 0});
  plain.execute_odl(R"(
    interface Reading (extent readings) {
      attribute Long id;
      attribute Json meta;
      attribute Json samples; };
    extent readingsd of Reading wrapper wd repository rd
      map ((readings=readingsd));
  )");
  for (const char* q : {
           "select x.id from x in readingsd where x.meta.site = \"s2\"",
           "select x.meta.depth from x in readingsd where x.meta.site = "
           "\"s0\" and x.meta.depth = 3",
           "select struct(i: x.id, s: x.meta.site) from x in readingsd",
           "select x.id from x in readingsd where x.meta.site = nil",
           "select x.samples from x in readingsd where x.id = 12",
       }) {
    Answer pushed = mediator_.query(q);
    Answer residual = plain.query(q);
    ASSERT_TRUE(pushed.complete()) << q;
    ASSERT_TRUE(residual.complete()) << q;
    EXPECT_EQ(pushed.data(), residual.data()) << q;
  }
}

TEST_F(DocWorld, MixedDocRelationalJoin) {
  memdb::Database db("db");
  auto& t = db.create_table("sites", {{"site", memdb::ColumnType::Text},
                                      {"region", memdb::ColumnType::Text}});
  t.insert({Value::string("s0"), Value::string("north")});
  t.insert({Value::string("s1"), Value::string("south")});
  auto w = std::make_shared<wrapper::MemDbWrapper>();
  w->attach_database("rm", &db);
  mediator_.register_wrapper("wm", std::move(w));
  mediator_.register_repository(
      catalog::Repository{"rm", "h", "db", "3.0.1.2"});
  mediator_.execute_odl(R"(
    interface Site { attribute String site; attribute String region; };
    extent sites of Site wrapper wm repository rm;
  )");
  const std::string query =
      "select struct(i: x.id, r: y.region) from x in readingsd, y in sites "
      "where x.meta.site = y.site and x.meta.depth = 2";
  // The nested path is the hash key, not a nested-loop predicate.
  const std::string plan = mediator_.explain(query);
  EXPECT_NE(plan.find("hashjoin(x.meta.site = y.site"), std::string::npos)
      << plan;
  Answer a = mediator_.query(query);
  ASSERT_TRUE(a.complete());
  // depth == 2: i in {2, 9, 16, 23, 30, 37, 44, 51, 58} minus i%10==0
  // (no meta) -> {2, 9, 16, 23, 37, 44, 51, 58}; site s(i % 3), and only
  // s0 (north) and s1 (south) are in sites.
  auto row = [](int64_t i, const char* region) {
    return Value::strct(
        {{"i", Value::integer(i)}, {"r", Value::string(region)}});
  };
  EXPECT_EQ(a.data(), Value::bag({row(9, "north"), row(16, "south"),
                                  row(37, "south"), row(51, "north"),
                                  row(58, "south")}));
}

// Nested-key joins agree with the reference evaluator. Random readings
// carry `meta` as a struct, missing, nil or (in some worlds) a
// non-struct scalar, with `site` drawn from a small domain that includes
// nil; they join a memdb sites table that holds a nil site, and an empty
// twin of that table. The mediator's answer must be bag-equal to
// local-mode evaluation, or both must throw — with bind joins off and on.
// A guard conjunct ahead of the key keeps the nested loop from ever
// stepping into a scalar meta with id >= 3, so there a join that throws
// on its first bad key read disagrees with the evaluator.
class DocJoinProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  DocJoinProperty() {
    SplitMix64 rng(GetParam() * 7919);
    docstore::DocCollection& readings = store_.create_collection("readings");
    const int64_t docs = rng.next_in(8, 24);
    // A scalar meta makes every key read over it throw, in the evaluator
    // and in the join alike; the even seeds hold one.
    const int64_t scalar_at =
        GetParam() % 2 == 0 ? rng.next_in(0, docs - 1) : -1;
    for (int64_t i = 0; i < docs; ++i) {
      std::vector<std::pair<std::string, Value>> doc{
          {"id", Value::integer(i)}};
      const int64_t shape = rng.next_in(0, 3);
      if (i == scalar_at) {
        doc.emplace_back("meta", Value::integer(i));
      } else if (shape == 1) {
        doc.emplace_back("meta", Value::null());
      } else if (shape >= 2) {
        std::vector<std::pair<std::string, Value>> meta{
            {"depth", Value::integer(i % 5)}};
        const int64_t site = rng.next_in(0, 4);  // 3: nil, 4: missing
        if (site < 3) {
          meta.emplace_back("site", Value::string("s" + std::to_string(site)));
        } else if (site == 3) {
          meta.emplace_back("site", Value::null());
        }
        doc.emplace_back("meta", Value::strct(std::move(meta)));
      }  // shape 0: no meta at all
      readings.insert(Value::strct(std::move(doc)));
    }
    const std::vector<memdb::Column> columns{
        {"site", memdb::ColumnType::Text},
        {"region", memdb::ColumnType::Text},
        {"n", memdb::ColumnType::Int}};
    memdb::Table& sites = db_.create_table("sites", columns);
    db_.create_table("nosites", columns);
    sites.insert({Value::null(), Value::string("nowhere"), Value::integer(3)});
    // Many more sites than readings match, each three times: a bind join
    // pays off once the cost history has seen the whole table.
    for (int k = 0; k < 120; ++k) {
      sites.insert({Value::string("s" + std::to_string(k % 40)),
                    Value::string("r" + std::to_string(k)),
                    Value::integer(k % 4)});
    }
  }

  std::unique_ptr<Mediator> make_mediator(bool bind_join) {
    Mediator::Options options;
    options.optimizer.enable_bind_join = bind_join;
    auto m = std::make_unique<Mediator>(options);
    auto wd = std::make_shared<wrapper::DocWrapper>();
    wd->attach_store("rd", &store_);
    m->register_wrapper("wd", std::move(wd));
    m->register_repository(
        catalog::Repository{"rd", "doc-host", "docs", "3.0.1.1"},
        net::LatencyModel{0.002, 0.0001, 0});
    auto wm = std::make_shared<wrapper::MemDbWrapper>();
    wm->attach_database("rm", &db_);
    m->register_wrapper("wm", std::move(wm));
    m->register_repository(catalog::Repository{"rm", "h", "db", "3.0.1.2"},
                           net::LatencyModel{0.005, 0.001, 0});
    m->execute_odl(R"(
      interface Reading (extent readings) {
        attribute Long id;
        attribute Json meta; };
      extent readingsd of Reading wrapper wd repository rd
        map ((readings=readingsd));
      interface Site {
        attribute String site;
        attribute String region;
        attribute Long n; };
      extent sites of Site wrapper wm repository rm;
      extent nosites of Site wrapper wm repository rm;
    )");
    return m;
  }

  /// The distributed answer and local-mode evaluation of `select` are
  /// bag-equal, or both throw.
  static void expect_agreement(Mediator& m, const std::string& select) {
    std::optional<Value> distributed;
    std::optional<Value> local;
    try {
      Answer a = m.query(select);
      ASSERT_TRUE(a.complete()) << select;
      distributed = a.data();
    } catch (const DiscoError&) {
    }
    try {
      local = m.query("flatten(bag((" + select + ")))").data();
    } catch (const DiscoError&) {
    }
    ASSERT_EQ(distributed.has_value(), local.has_value()) << select;
    if (distributed.has_value()) {
      EXPECT_EQ(*distributed, *local) << select;
    }
  }

  docstore::DocStore store_{"docs"};
  memdb::Database db_{"db"};
};

TEST_P(DocJoinProperty, NestedKeyJoinsMatchLocalEvaluation) {
  for (bool bind_join : {false, true}) {
    std::unique_ptr<Mediator> m = make_mediator(bind_join);
    for (const std::string& from_where : {
             std::string("x in readingsd, y in sites where "
                         "x.meta.site = y.site"),
             std::string("y in sites, x in readingsd where "
                         "x.meta.site = y.site"),
             std::string("x in readingsd, y in nosites where "
                         "x.meta.site = y.site"),
             std::string("x in readingsd, y in sites where x.id < y.n and "
                         "x.meta.site = y.site")}) {
      const std::string select =
          "select struct(i: x.id, r: y.region) from " + from_where;
      expect_agreement(*m, select);
      // The first run taught the cost history how large sites is; with
      // bind joins on, the second run ships the readings' nested keys.
      if (from_where ==
          "x in readingsd, y in sites where x.meta.site = y.site") {
        const std::string plan = m->explain(select);
        EXPECT_NE(plan.find(bind_join ? "bindjoin(x.meta.site = y.site"
                                      : "hashjoin(x.meta.site = y.site"),
                  std::string::npos)
            << plan;
      }
      expect_agreement(*m, select);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DocJoinProperty,
                         ::testing::Range<uint64_t>(1, 13));

TEST_F(DocWorld, PartialAnswerResubmits) {
  mediator_.network().set_availability("rd",
                                       net::Availability::always_down());
  Answer a = mediator_.query(
      "select x.id from x in readingsd where x.meta.site = \"s1\"");
  ASSERT_FALSE(a.complete());
  mediator_.network().set_availability("rd", net::Availability::always_up());
  Answer b = mediator_.query(a.to_oql());
  ASSERT_TRUE(b.complete());
  EXPECT_EQ(b.data().size(), 18u);
}

TEST_F(DocWorld, NaNFederationIsDeterministicAndIndexConsistent) {
  // The acceptance scenario: a CSV source with a literal "nan" field and
  // a document source holding a real NaN double. Answers must be
  // deterministic and identical between indexed and forced-scan access.
  auto wc = std::make_shared<wrapper::CsvWrapper>();
  wc->attach_table("rc", csv::parse_csv("gauges",
                                        "gid,reading\n1,nan\n2,7.5\n"));
  mediator_.register_wrapper("wc", std::move(wc));
  mediator_.register_repository(
      catalog::Repository{"rc", "h", "csv", "3.0.1.3"});
  mediator_.execute_odl(R"(
    interface Gauge { attribute Short gid; attribute Json reading; };
    extent gauges of Gauge wrapper wc repository rc;
  )");
  // "nan" typed as String at ingestion: comparisons are deterministic.
  Answer csv_answer = mediator_.query(
      "select x.gid from x in gauges where x.reading = \"nan\"");
  ASSERT_TRUE(csv_answer.complete());
  EXPECT_EQ(csv_answer.data(), Value::bag({Value::integer(1)}));

  // A collection with programmatic NaN values, indexed on them.
  docstore::DocCollection& lab = store_.create_collection("lab");
  for (int i = 0; i < 12; ++i) {
    lab.insert(Value::strct(
        {{"id", Value::integer(i)},
         {"v", i % 4 == 0 ? Value::real(std::nan("")) : Value::real(i)},
         {"k", Value::integer(i % 2)}}));
  }
  lab.create_index("k");
  mediator_.execute_odl(R"(
    interface Lab { attribute Long id; attribute Double v;
                    attribute Long k; };
    extent labd of Lab wrapper wd repository rd
      map ((lab=labd));
  )");
  Answer indexed = mediator_.query(
      "select struct(i: x.id, v: x.v) from x in labd where x.k = 1");
  ASSERT_TRUE(indexed.complete());
  store_.set_use_indexes(false);
  Answer scanned = mediator_.query(
      "select struct(i: x.id, v: x.v) from x in labd where x.k = 1");
  store_.set_use_indexes(true);
  ASSERT_TRUE(scanned.complete());
  EXPECT_EQ(indexed.data(), scanned.data());
  EXPECT_EQ(indexed.data().size(), 6u);
  // distinct over NaN-valued attributes dedups (NaN == NaN in the total
  // order) instead of multiplying.
  Answer dedup = mediator_.query("select distinct x.v from x in labd");
  ASSERT_TRUE(dedup.complete());
  EXPECT_EQ(dedup.data().size(), 10u);  // 0..11 minus {0,4,8} plus one NaN
}

}  // namespace
}  // namespace disco
