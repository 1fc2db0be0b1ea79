#include "world.hpp"

#include <functional>

#include "common/rng.hpp"

namespace perfbench {

using namespace disco;

namespace {

std::string num(uint64_t v) { return std::to_string(v); }

const std::vector<memdb::Column>& person_columns() {
  static const std::vector<memdb::Column> columns = {
      {"id", memdb::ColumnType::Int},    {"name", memdb::ColumnType::Text},
      {"dept", memdb::ColumnType::Int},  {"salary", memdb::ColumnType::Int},
      {"city", memdb::ColumnType::Text}};
  return columns;
}

const char* kInterfaces = R"(
  interface Person (extent person) {
    attribute Long id;
    attribute String name;
    attribute Long dept;
    attribute Long salary;
    attribute String city; };
  interface Archive {
    attribute Long id;
    attribute String name;
    attribute Long dept;
    attribute Long salary;
    attribute String city; };
  interface Site {
    attribute String site;
    attribute String region; };
  interface Dept {
    attribute Long dept;
    attribute String dname;
    attribute String region; };
  interface Account {
    attribute Long id;
    attribute String owner;
    attribute Long balance; };
  interface Reading {
    attribute Long id;
    attribute Json meta;
    attribute Json samples; };
)";

/// The extents over the generated sources, plus the ODL view.
std::string extents_odl(size_t repos) {
  std::string odl;
  for (size_t r = 0; r < repos; ++r) {
    odl += "extent person" + num(r) + " of Person wrapper wm repository r" +
           num(r) + ";\n";
  }
  odl += R"(
    extent archive of Archive wrapper wm repository rslow;
    extent sites of Site wrapper wm repository rsite;
    extent depts of Dept wrapper wc repository rcsv;
    extent accounts of Account wrapper wk repository rkv;
    extent readings of Reading wrapper wd repository rdoc;
    define staff as union(person2, person3);
  )";
  return odl;
}

struct RepositorySpec {
  std::string name;
  net::LatencyModel latency;
};

/// Simulated network per repository (seconds): base round trip plus a
/// per-row transfer cost. `rslow` is the slow repository of serve.
std::vector<RepositorySpec> repositories(size_t repos) {
  std::vector<RepositorySpec> out;
  for (size_t r = 0; r < repos; ++r) {
    out.push_back({"r" + num(r), {0.004, 5e-6, 0}});
  }
  out.push_back({"rslow", {0.040, 5e-6, 0}});
  out.push_back({"rsite", {0.004, 5e-6, 0}});
  out.push_back({"rscratch", {0.004, 5e-6, 0}});
  out.push_back({"rcsv", {0.006, 1e-5, 0}});
  out.push_back({"rkv", {0.002, 5e-6, 0}});
  out.push_back({"rdoc", {0.005, 5e-6, 0}});
  return out;
}

memdb::Database& add_db(World& world, const std::string& name) {
  world.dbs.push_back(std::make_unique<memdb::Database>(name));
  return *world.dbs.back();
}

void load_person_table(memdb::Database& db, const std::string& table_name,
                       const std::vector<memdb::Row>& rows, bool indexed) {
  memdb::Table& table = db.create_table(table_name, person_columns());
  table.insert_all(rows);
  if (indexed) {
    table.create_index(table_name + "_id", "id");
    table.create_index(table_name + "_salary", "salary");
  }
}

/// Binds wrappers over the world's sources to `m`, then registers the
/// repositories and the ODL. The measured mediator's wrappers report source
/// compute time, so the §3.3 cost history sees index probes and scans, not
/// only bytes on the wire; `decorate` may put a timing decorator in front
/// of each. With `flaky`, kFlakyRepository goes down on a schedule.
void register_federation(
    Mediator& m, World& world, size_t repos, bool measured, bool flaky,
    const std::function<std::shared_ptr<wrapper::Wrapper>(
        std::shared_ptr<wrapper::Wrapper>, Layer)>& decorate) {
  auto memdb = std::make_shared<wrapper::MemDbWrapper>();
  for (size_t r = 0; r < repos; ++r) {
    memdb->attach_database("r" + num(r), world.dbs[r].get());
  }
  memdb->attach_database("rslow", world.dbs[repos].get());
  memdb->attach_database("rsite", world.dbs[repos + 1].get());
  memdb->attach_database("rscratch", world.dbs[repos + 2].get());
  auto csv = std::make_shared<wrapper::CsvWrapper>();
  csv->attach_table("rcsv", world.depts);
  auto kv = std::make_shared<wrapper::KvWrapper>();
  kv->attach_store("rkv", &world.kv);
  auto doc = std::make_shared<wrapper::DocWrapper>();
  doc->attach_store("rdoc", &world.docs);
  if (measured) {
    memdb->set_cost_model(wrapper::MemDbWrapper::CostModel{.enabled = true});
    doc->set_cost_model(wrapper::DocWrapper::CostModel{.enabled = true});
    world.memdb = memdb;
  }
  m.register_wrapper("wm", decorate(memdb, Layer::Minisql));
  m.register_wrapper("wc", decorate(csv, Layer::Csv));
  m.register_wrapper("wk", decorate(kv, Layer::Kvstore));
  m.register_wrapper("wd", decorate(doc, Layer::Docstore));
  for (const RepositorySpec& spec : repositories(repos)) {
    net::Availability availability;
    if (flaky && spec.name == kFlakyRepository) {
      // Down 4 simulated seconds in every 6.
      availability = net::Availability::periodic(2, 4, 0);
    }
    m.register_repository(catalog::Repository{spec.name, spec.name + ".host",
                                              "db", "10.0.0.1"},
                          spec.latency, availability);
  }
  m.execute_odl(kInterfaces);
  m.execute_odl(extents_odl(repos));
}

Mediator::Options mediator_options(Workload workload, uint64_t seed) {
  Mediator::Options options;
  options.network_seed = seed;
  if (workload != Workload::Serve) return options;
  // The daemon: every subsystem on. Simulated latency is waited out in
  // real time, which keeps waiting the larger part of each query's
  // latency, so the host's speed moves it little.
  options.exec.workers = 4;
  options.exec.latency_scale = kServeLatencyScale;
  options.exec.call_deadline_s = 60;
  options.enable_plan_cache = true;
  options.session.workers = 4;
  options.cache.enabled = true;
  options.cache.max_bytes = 1u << 20;
  options.sched.enabled = true;
  options.sched.limits["rslow"] = 2;  // below the client count: calls queue
  options.sched.queue_capacity = 64;  // never full with three clients
  options.health.enabled = true;
  return options;
}

}  // namespace

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::Lookup: return "lookup";
    case Workload::Analytics: return "analytics";
    case Workload::Serve: return "serve";
  }
  return "?";
}

Inputs generate_inputs(uint64_t seed, const Scale& scale) {
  Inputs in;
  in.scale = scale;
  SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + 17);
  auto person_row = [&](size_t repo, size_t id) {
    return memdb::Row{Value::integer(static_cast<int64_t>(id)),
                      Value::string("p" + num(repo) + "_" + num(id)),
                      Value::integer(rng.next_in(0, 199)),
                      Value::integer(rng.next_in(0, 9999)),
                      Value::string("c" + num(rng.next_below(50)))};
  };
  in.person.resize(scale.repos);
  for (size_t r = 0; r < scale.repos; ++r) {
    in.person[r].reserve(scale.rows_per_repo);
    for (size_t i = 0; i < scale.rows_per_repo; ++i) {
      in.person[r].push_back(person_row(r, i));
    }
  }
  for (size_t i = 0; i < scale.archive_rows; ++i) {
    in.archive.push_back(person_row(99, i));
  }
  for (size_t s = 0; s < scale.sites; ++s) {
    in.sites.push_back(memdb::Row{Value::string("s" + num(s)),
                                  Value::string("g" + num(s % 13))});
  }
  for (size_t i = 0; i < scale.accounts; ++i) {
    in.accounts.push_back(Value::strct(
        {{"id", Value::integer(static_cast<int64_t>(i))},
         {"owner", Value::string("p0_" + num(rng.next_below(scale.rows_per_repo)))},
         {"balance", Value::integer(rng.next_in(0, 99999))}}));
  }
  in.depts_csv = "dept,dname,region\n";
  for (size_t d = 0; d < scale.depts; ++d) {
    in.depts_csv += num(d) + ",d" + num(d) + ",g" + num(rng.next_below(13)) +
                    "\n";
  }
  // Documents: a nested meta struct (site for the join, sensor for point
  // probes) and a samples array, so paths have real depth.
  const size_t sensors = std::max<size_t>(1, scale.docs / 10);
  in.readings_json = "[";
  for (size_t i = 0; i < scale.docs; ++i) {
    const uint64_t depth = rng.next_below(40);
    if (i > 0) in.readings_json += ",\n";
    in.readings_json +=
        "{\"id\": " + num(i) + ", \"meta\": {\"site\": \"s" +
        num(rng.next_below(scale.sites)) + "\", \"sensor\": \"n" +
        num(rng.next_below(sensors)) + "\", \"depth\": " + num(depth) +
        "}, \"samples\": [{\"ph\": " + num(6 + depth % 4) +
        ", \"t\": " + num(depth % 30) + "}, {\"ph\": " + num(7 + i % 3) +
        ", \"t\": " + num(i % 25) + "}]}";
  }
  in.readings_json += "]";
  return in;
}

World::~World() {
  if (server != nullptr) server->stop();
}

std::unique_ptr<World> build_world(const Inputs& in, Workload workload,
                                   uint64_t seed, SpanLog* trace) {
  auto world = std::make_unique<World>();
  const Scale& scale = in.scale;

  // Sources: ingestion and index builds.
  for (size_t r = 0; r < scale.repos; ++r) {
    load_person_table(add_db(*world, "db" + num(r)), "person" + num(r),
                      in.person[r], /*indexed=*/true);
  }
  load_person_table(add_db(*world, "slowdb"), "archive", in.archive, true);
  memdb::Table& sites = add_db(*world, "sitedb")
                            .create_table("sites",
                                          {{"site", memdb::ColumnType::Text},
                                           {"region", memdb::ColumnType::Text}});
  sites.insert_all(in.sites);
  load_person_table(add_db(*world, "scratchdb"), "scratch", {}, false);
  world->depts = csv::parse_csv("depts", in.depts_csv);
  docstore::DocCollection& readings =
      world->docs.create_collection("readings");
  readings.load_json(in.readings_json);
  readings.create_index("meta.sensor");
  readings.create_index("meta.site");
  kvstore::KvCollection& accounts =
      world->kv.create_collection("accounts", "id");
  for (const Value& row : in.accounts) accounts.put(row);

  world->mediator =
      std::make_unique<Mediator>(mediator_options(workload, seed));
  const bool all_threads = workload == Workload::Serve;
  register_federation(
      *world->mediator, *world, scale.repos, /*measured=*/true,
      /*flaky=*/workload == Workload::Lookup,
      [&](std::shared_ptr<wrapper::Wrapper> real,
          Layer layer) -> std::shared_ptr<wrapper::Wrapper> {
        if (trace == nullptr) return real;
        auto timer = std::make_shared<TimingWrapper>(std::move(real), layer,
                                                     trace, all_threads);
        world->timers.push_back(timer);
        return timer;
      });

  if (workload == Workload::Serve) {
    world->server = std::make_unique<server::Server>(*world->mediator);
    world->server->start();
  }
  return world;
}

void attach_reference(World& world, const Inputs& in) {
  world.reference = std::make_unique<Mediator>();
  register_federation(*world.reference, world, in.scale.repos,
                      /*measured=*/false, /*flaky=*/false,
                      [](std::shared_ptr<wrapper::Wrapper> real, Layer) {
                        return real;
                      });
}

std::string admin_odl(bool add) {
  return add ? "extent scratch of Person wrapper wm repository rscratch;"
             : "drop extent scratch;";
}

}  // namespace perfbench
