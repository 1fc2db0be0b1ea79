// The Figure-1 architecture: applications talk to mediators, mediators
// talk to wrappers and to *other mediators*, a catalog oversees the
// system.
//
//   build/examples/federation
//
// Topology (a cut of Fig. 1):
//
//        application
//            |
//        mediator M2  ----------- wrapper wl --- local bonus db
//            |
//        mediator M1 (remote, via MediatorWrapper)
//       |             |
//    wrapper w0   wrapper w0
//       |             |
//     db r0         db r1
#include <iostream>

#include "core/disco.hpp"

int main() {
  using namespace disco;

  // ---- tier 1: M1 federates two person databases -------------------------
  memdb::Database db0("db0");
  auto& t0 = db0.create_table("person0", {{"id", memdb::ColumnType::Int},
                                          {"name", memdb::ColumnType::Text},
                                          {"salary", memdb::ColumnType::Int}});
  t0.insert({Value::integer(1), Value::string("Mary"), Value::integer(200)});
  memdb::Database db1("db1");
  auto& t1 = db1.create_table("person1", {{"id", memdb::ColumnType::Int},
                                          {"name", memdb::ColumnType::Text},
                                          {"salary", memdb::ColumnType::Int}});
  t1.insert({Value::integer(2), Value::string("Sam"), Value::integer(50)});

  Mediator m1;
  auto w0 = std::make_shared<wrapper::MemDbWrapper>();
  w0->attach_database("r0", &db0);
  w0->attach_database("r1", &db1);
  m1.register_wrapper("w0", std::move(w0));
  m1.register_repository(catalog::Repository{"r0", "rodin", "db", "1.0.0.1"});
  m1.register_repository(catalog::Repository{"r1", "ada", "db", "1.0.0.2"});
  m1.execute_odl(R"(
    interface Person (extent person) {
      attribute Long id;
      attribute String name;
      attribute Short salary; };
    extent person0 of Person wrapper w0 repository r0;
    extent person1 of Person wrapper w0 repository r1;
  )");

  // ---- tier 2: M2 sees M1 as just another data source ---------------------
  memdb::Database bonus_db("bonus");
  auto& bt = bonus_db.create_table("bonus",
                                   {{"who", memdb::ColumnType::Text},
                                    {"amount", memdb::ColumnType::Int}});
  bt.insert({Value::string("Mary"), Value::integer(25)});
  bt.insert({Value::string("Sam"), Value::integer(5)});

  Mediator m2;
  auto mediator_wrapper = std::make_shared<MediatorWrapper>(&m1);
  auto* mw = mediator_wrapper.get();
  m2.register_wrapper("wm", std::move(mediator_wrapper));
  m2.register_repository(
      catalog::Repository{"m1", "mediator-1", "disco", "2.0.0.1"},
      net::LatencyModel{0.005, 0.0001, 0});
  auto wl = std::make_shared<wrapper::MemDbWrapper>();
  wl->attach_database("rl", &bonus_db);
  m2.register_wrapper("wl", std::move(wl));
  m2.register_repository(catalog::Repository{"rl", "hr", "db", "2.0.0.2"});
  m2.execute_odl(R"(
    interface Employee (extent employees) {
      attribute String ename;
      attribute Short pay; };
    extent staff of Employee wrapper wm repository m1
      map ((person=staff),(name=ename),(salary=pay));
    interface Bonus { attribute String who; attribute Short amount; };
    extent bonus of Bonus wrapper wl repository rl;
  )");

  // Application query at tier 2, joining across the mediator boundary.
  const std::string query =
      "select struct(name: e.ename, total: e.pay + b.amount) "
      "from e in staff, b in bonus where e.ename = b.who";
  Answer a = m2.query(query);
  std::cout << "application query at M2:\n  " << query << "\n";
  std::cout << "answer:\n  " << a.data().to_oql() << "\n\n";
  std::cout << "OQL text M2 pushed down to M1 (renamed through the map):\n  "
            << mw->last_oql() << "\n\n";

  // The catalog component (C in Fig. 1): a SystemCatalog registers both
  // mediators and answers OQL questions about the federation itself.
  SystemCatalog catalog;
  catalog.register_mediator("m1", &m1);
  catalog.register_mediator("m2", &m2);
  std::cout << "catalog (C): extents per mediator:\n  "
            << catalog.query("select struct(m: e.mediator, e: e.name) "
                             "from e in extents")
                   .to_oql()
            << "\n";
  std::cout << "catalog (C): who serves type Person? ";
  for (const std::string& name : catalog.mediators_serving_type("Person")) {
    std::cout << name << " ";
  }
  std::cout << "\n\n";

  // Traffic per component: evidence of the Fig. 1 message flows.
  std::cout << "M1 endpoint traffic:\n";
  for (const char* repo : {"r0", "r1"}) {
    const auto& stats = m1.network().stats(repo);
    std::cout << "  " << repo << ": " << stats.calls << " calls, "
              << stats.rows << " rows\n";
  }
  const auto& m1stats = m2.network().stats("m1");
  std::cout << "M2 -> M1 link: " << m1stats.calls << " calls, "
            << m1stats.rows << " rows\n";
  return 0;
}
