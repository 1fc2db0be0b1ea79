// Static attribute checking (optimizer/typecheck.hpp) and the §2.1
// run-time row validation.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "fixtures.hpp"
#include "optimizer/typecheck.hpp"
#include "oql/parser.hpp"

namespace disco::optimizer {
namespace {

using disco::testing::PaperWorld;
using oql::parse;

class TypecheckTest : public ::testing::Test {
 protected:
  void check(const std::string& query) {
    check_attributes(parse(query), world_.mediator.catalog());
  }
  PaperWorld world_;
};

TEST_F(TypecheckTest, ValidQueriesPass) {
  EXPECT_NO_THROW(check("select x.name from x in person"));
  EXPECT_NO_THROW(check("select x.id from x in person0 "
                        "where x.salary > 10"));
  EXPECT_NO_THROW(check("select struct(a: x.name, b: y.salary) "
                        "from x in person0, y in person1"));
  EXPECT_NO_THROW(check("select x.name from x in union(person0, person1)"));
  EXPECT_NO_THROW(check("select x.name from x in person*"));
}

TEST_F(TypecheckTest, TyposRejected) {
  EXPECT_THROW(check("select x.nmae from x in person"), TypeError);
  EXPECT_THROW(check("select x.name from x in person0 where x.salry > 1"),
               TypeError);
  EXPECT_THROW(check("select struct(a: x.name, b: x.wages) "
                     "from x in person*"),
               TypeError);
}

TEST_F(TypecheckTest, NestedSubqueriesChecked) {
  EXPECT_NO_THROW(check(
      "select struct(n: x.name, t: sum(select z.salary from z in person "
      "where z.id = x.id)) from x in person0"));
  EXPECT_THROW(check("select struct(n: x.name, t: sum(select z.salry "
                     "from z in person where z.id = x.id)) "
                     "from x in person0"),
               TypeError);
}

TEST_F(TypecheckTest, ScalarAttributesAreTerminal) {
  EXPECT_THROW(check("select x.name.length from x in person"), TypeError);
}

TEST_F(TypecheckTest, UntypedDomainsSkipped) {
  // Variables over literal collections have no declared type.
  EXPECT_NO_THROW(check("select x.anything from x in bag(1, 2)"));
}

TEST_F(TypecheckTest, MetaExtentPseudoType) {
  EXPECT_NO_THROW(check("select x.wrapper from x in metaextent"));
  EXPECT_THROW(check("select x.owner from x in metaextent"), TypeError);
}

TEST_F(TypecheckTest, UnionDomainRequiresAttributeEverywhere) {
  world_.mediator.execute_odl(R"(
    interface Gadget { attribute String name; attribute Short weight; };
    extent gadget0 of Gadget wrapper w0 repository r0;
  )");
  // `name` exists on both Person and Gadget...
  EXPECT_NO_THROW(check("select x.name from x in union(person0, gadget0)"));
  // ...but `salary` only on Person.
  EXPECT_THROW(check("select x.salary from x in union(person0, gadget0)"),
               TypeError);
}

TEST_F(TypecheckTest, ShadowingRestoresOuterType) {
  // Inner x over gadgets, outer x over persons: after the inner select the
  // outer scope applies again.
  world_.mediator.execute_odl(R"(
    interface Gadget2 { attribute Short weight; };
    extent gadget2 of Gadget2 wrapper w0 repository r0;
  )");
  EXPECT_NO_THROW(check(
      "select struct(a: count(select x.weight from x in gadget2), "
      "b: x.salary) from x in person0"));
  EXPECT_THROW(check(
      "select struct(a: count(select x.salary from x in gadget2), "
      "b: x.salary) from x in person0"),
               TypeError);
}

TEST_F(TypecheckTest, MediatorRejectsTyposEndToEnd) {
  EXPECT_THROW(world_.mediator.query("select x.nmae from x in person"),
               TypeError);
  // Views are expanded first, so typos inside views surface too.
  world_.mediator.execute_odl(
      "define broken as select v.salry from v in person;");
  EXPECT_THROW(world_.mediator.query("broken"), TypeError);
}

TEST_F(TypecheckTest, CheckerCanBeDisabled) {
  Mediator::Options options;
  options.optimizer.static_typecheck = false;
  // Build a small world with the checker off: the typo only surfaces at
  // evaluation time, as in the paper.
  memdb::Database db("db");
  db.create_table("person0", {{"name", memdb::ColumnType::Text},
                              {"salary", memdb::ColumnType::Int}})
      .insert({Value::string("Mary"), Value::integer(200)});
  Mediator m(options);
  auto w = std::make_shared<wrapper::MemDbWrapper>();
  w->attach_database("r0", &db);
  m.register_wrapper("w0", std::move(w));
  m.register_repository(catalog::Repository{"r0", "h", "db", "1.1.1.1"});
  m.execute_odl(R"(
    interface Person { attribute String name; attribute Short salary; };
    extent person0 of Person wrapper w0 repository r0;
  )");
  EXPECT_THROW(m.query("select x.nmae from x in person0"), ExecutionError);
}

TEST(RowValidation, MismatchedSourceDataRejectedAtRuntime) {
  // §2.1: "At run-time, the wrapper checks that these types are indeed
  // the same." The source's salary column is Text, but the mediator
  // declared Short.
  memdb::Database db("db");
  auto& t = db.create_table("person0", {{"name", memdb::ColumnType::Text},
                                        {"salary", memdb::ColumnType::Text}});
  t.insert({Value::string("Mary"), Value::string("lots")});
  Mediator::Options options;
  options.validate_source_rows = true;
  Mediator m(options);
  auto w = std::make_shared<wrapper::MemDbWrapper>(
      grammar::CapabilitySet{.get = true});  // force env-shaped replies
  w->attach_database("r0", &db);
  m.register_wrapper("w0", std::move(w));
  m.register_repository(catalog::Repository{"r0", "h", "db", "1.1.1.1"});
  m.execute_odl(R"(
    interface Person { attribute String name; attribute Short salary; };
    extent person0 of Person wrapper w0 repository r0;
  )");
  EXPECT_THROW(m.query("select x.name from x in person0"), TypeError);

  // Without validation the bad value flows through silently.
  Mediator lax;
  auto w2 = std::make_shared<wrapper::MemDbWrapper>(
      grammar::CapabilitySet{.get = true});
  w2->attach_database("r0", &db);
  lax.register_wrapper("w0", std::move(w2));
  lax.register_repository(catalog::Repository{"r0", "h", "db", "1.1.1.1"});
  lax.execute_odl(R"(
    interface Person { attribute String name; attribute Short salary; };
    extent person0 of Person wrapper w0 repository r0;
  )");
  EXPECT_NO_THROW(lax.query("select x.name from x in person0"));
}

TEST(RowValidation, CachedRepliesAreValidatedBeforePublish) {
  // With the result cache on, an ill-typed reply must be rejected before
  // it is published: every run of the query throws, and nothing reaches
  // the cache for a later run to serve unchecked.
  memdb::Database db("db");
  auto& t = db.create_table("person0", {{"name", memdb::ColumnType::Text},
                                        {"salary", memdb::ColumnType::Text}});
  t.insert({Value::string("Mary"), Value::string("lots")});
  Mediator::Options options;
  options.validate_source_rows = true;
  options.cache.enabled = true;
  Mediator m(options);
  auto w = std::make_shared<wrapper::MemDbWrapper>(
      grammar::CapabilitySet{.get = true});
  w->attach_database("r0", &db);
  m.register_wrapper("w0", std::move(w));
  m.register_repository(catalog::Repository{"r0", "h", "db", "1.1.1.1"});
  m.execute_odl(R"(
    interface Person { attribute String name; attribute Short salary; };
    extent person0 of Person wrapper w0 repository r0;
  )");
  for (int run = 0; run < 3; ++run) {
    EXPECT_THROW(m.query("select x.name from x in person0"), TypeError)
        << "run " << run;
  }
  EXPECT_EQ(m.cache_stats().insertions, 0u);
}

TEST(RowValidation, ConformingRowsPass) {
  disco::testing::PaperWorld clean;
  Mediator::Options options;
  options.validate_source_rows = true;
  // Rebuild the paper world with validation on.
  memdb::Database db("db");
  auto& t = db.create_table("person0", {{"id", memdb::ColumnType::Int},
                                        {"name", memdb::ColumnType::Text},
                                        {"salary", memdb::ColumnType::Int}});
  t.insert({Value::integer(1), Value::string("Mary"),
            Value::integer(200)});
  Mediator m(options);
  auto w = std::make_shared<wrapper::MemDbWrapper>(
      grammar::CapabilitySet{.get = true});
  w->attach_database("r0", &db);
  m.register_wrapper("w0", std::move(w));
  m.register_repository(catalog::Repository{"r0", "h", "db", "1.1.1.1"});
  m.execute_odl(R"(
    interface Person { attribute Long id; attribute String name;
                       attribute Short salary; };
    extent person0 of Person wrapper w0 repository r0;
  )");
  Answer a = m.query("select x.name from x in person0");
  EXPECT_EQ(a.data(), Value::bag({Value::string("Mary")}));
}

}  // namespace
}  // namespace disco::optimizer
