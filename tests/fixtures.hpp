// Shared test world: the paper's running example (§1.2) — two repositories
// r0 and r1, each a memdb database with a person relation; r0 holds Mary
// (salary 200), r1 holds Sam (salary 50); one MiniSQL wrapper w0 serves
// both; extents person0/person1 of type Person.
#pragma once

#include <memory>

#include "core/disco.hpp"

namespace disco::testing {

struct PaperWorld {
  explicit PaperWorld(Mediator::Options options = {}) : mediator(options) {
    auto& p0 = db0.create_table("person0",
                                {{"id", memdb::ColumnType::Int},
                                 {"name", memdb::ColumnType::Text},
                                 {"salary", memdb::ColumnType::Int}});
    p0.insert({Value::integer(1), Value::string("Mary"),
               Value::integer(200)});
    auto& p1 = db1.create_table("person1",
                                {{"id", memdb::ColumnType::Int},
                                 {"name", memdb::ColumnType::Text},
                                 {"salary", memdb::ColumnType::Int}});
    p1.insert({Value::integer(2), Value::string("Sam"),
               Value::integer(50)});

    auto w0 = std::make_shared<wrapper::MemDbWrapper>();
    w0->attach_database("r0", &db0);
    w0->attach_database("r1", &db1);
    wrapper0 = w0.get();
    mediator.register_wrapper("w0", std::move(w0));

    mediator.register_repository(
        catalog::Repository{"r0", "rodin", "db", "123.45.6.7"},
        net::LatencyModel{0.010, 0.0001, 0});
    mediator.register_repository(
        catalog::Repository{"r1", "ada", "db", "123.45.6.8"},
        net::LatencyModel{0.020, 0.0001, 0});

    mediator.execute_odl(R"(
      interface Person (extent person) {
        attribute Long id;
        attribute String name;
        attribute Short salary; };
      extent person0 of Person wrapper w0 repository r0;
      extent person1 of Person wrapper w0 repository r1;
    )");
  }

  memdb::Database db0{"db0"};
  memdb::Database db1{"db1"};
  Mediator mediator;
  wrapper::MemDbWrapper* wrapper0 = nullptr;
};

// A heterogeneous world with one wrapper per kind of grammar: memdb `rm`
// (wrapper wm, full grammar) holds emp and dept; memdb `rg` (wg) holds
// staff behind a grammar that takes get and project but refuses select;
// key-value `rk` (wk) holds acct and takes equality selects; CSV `rc`
// (wc) holds sites and takes get only. emp and staff share the Emp
// interface, so the implicit extent `emps` spans two wrappers.
struct MixedWorld {
  explicit MixedWorld(Mediator::Options options = {}) : mediator(options) {
    auto& emp = db.create_table("emp", {{"id", memdb::ColumnType::Int},
                                        {"name", memdb::ColumnType::Text},
                                        {"dept", memdb::ColumnType::Int},
                                        {"salary", memdb::ColumnType::Int}});
    auto& staff =
        weak_db.create_table("staff", {{"id", memdb::ColumnType::Int},
                                       {"name", memdb::ColumnType::Text},
                                       {"dept", memdb::ColumnType::Int},
                                       {"salary", memdb::ColumnType::Int}});
    kvstore::KvCollection& acct = kv.create_collection("acct", "id");
    for (int i = 0; i < 40; ++i) {
      const std::string n = std::to_string(i);
      emp.insert({Value::integer(i), Value::string("e" + n),
                  Value::integer(i % 4), Value::integer(i * 10)});
      staff.insert({Value::integer(100 + i), Value::string("s" + n),
                    Value::integer(i % 4), Value::integer(i * 7)});
      acct.put(Value::strct(
          {{"id", Value::integer(i)}, {"owner", Value::string("o" + n)}}));
    }
    auto& dept = db.create_table("dept", {{"id", memdb::ColumnType::Int},
                                          {"dname", memdb::ColumnType::Text}});
    std::string sites = "id,city\n";
    for (int i = 0; i < 4; ++i) {
      dept.insert({Value::integer(i), Value::string("d" + std::to_string(i))});
      sites += std::to_string(i) + ",c" + std::to_string(i) + "\n";
    }

    auto wm = std::make_shared<wrapper::MemDbWrapper>();
    wm->attach_database("rm", &db);
    mediator.register_wrapper("wm", std::move(wm));
    auto wg = std::make_shared<wrapper::MemDbWrapper>();
    wg->set_grammar(grammar::Grammar::parse(
        "a :- b\n"
        "a :- c\n"
        "b :- get OPEN SOURCE CLOSE\n"
        "c :- project OPEN ATTRIBUTE COMMA SOURCE CLOSE\n"));
    wg->attach_database("rg", &weak_db);
    mediator.register_wrapper("wg", std::move(wg));
    auto wk = std::make_shared<wrapper::KvWrapper>();
    wk->attach_store("rk", &kv);
    mediator.register_wrapper("wk", std::move(wk));
    auto wc = std::make_shared<wrapper::CsvWrapper>();
    wc->attach_table("rc", csv::parse_csv("sites", sites));
    mediator.register_wrapper("wc", std::move(wc));
    for (const char* repo : {"rm", "rg", "rk", "rc"}) {
      mediator.register_repository(catalog::Repository{repo, "h", "db", "1"},
                                   net::LatencyModel{0.004, 1e-5, 0});
    }
    mediator.execute_odl(R"(
      interface Emp (extent emps) {
        attribute Long id; attribute String name;
        attribute Long dept; attribute Long salary; };
      interface Dept { attribute Long id; attribute String dname; };
      interface Acct { attribute Long id; attribute String owner; };
      interface Site { attribute Long id; attribute String city; };
      extent emp of Emp wrapper wm repository rm;
      extent staff of Emp wrapper wg repository rg;
      extent dept of Dept wrapper wm repository rm;
      extent acct of Acct wrapper wk repository rk;
      extent sites of Site wrapper wc repository rc;
    )");
  }

  memdb::Database db{"db"};
  memdb::Database weak_db{"weak"};
  kvstore::KvStore kv{"kv"};
  Mediator mediator;
};

}  // namespace disco::testing
