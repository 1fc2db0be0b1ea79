// Federation-scale catalog (src/fedcat/): epoch snapshots (registration
// concurrent with queries, epoch retirement), the sharded extent index,
// optimizer pruning (type pruning, grammar verdict tables, shape
// sharing), and hierarchical federations via MediatorSource — in-process
// and over the wire. The binary carries the `concurrency` ctest label:
// the registration-vs-query storm interleaves admin and query threads,
// and the verdict storm shares grammar verdict tables across threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "fedcat/extent_index.hpp"
#include "fedcat/mediator_source.hpp"
#include "fedcat/snapshot.hpp"
#include "fixtures.hpp"
#include "server/server.hpp"

namespace disco {
namespace {

using disco::testing::PaperWorld;

// ------------------------------------------------------- epoch snapshots ---

TEST(FedcatSnapshotTest, UpdatePublishesNewEpochAndOldOnesDrain) {
  fedcat::CatalogManager manager;
  EXPECT_EQ(manager.epoch(), 0u);
  EXPECT_EQ(manager.live_epochs(), 1u);

  // Pin epoch 0, as a long-running query would.
  fedcat::SnapshotPtr pinned = manager.snapshot();

  fedcat::UpdateScope scope =
      manager.update([](fedcat::CatalogManager::Draft& draft) {
        draft.catalog.define_repository(
            catalog::Repository{"r0", "host", "db", "1.2.3.4"});
        draft.scope.touch_repository("r0");
      });
  ASSERT_EQ(scope.repositories.size(), 1u);
  EXPECT_EQ(scope.repositories[0], "r0");
  EXPECT_FALSE(scope.types_changed);

  EXPECT_EQ(manager.epoch(), 1u);
  // The pinned epoch still reflects its own world...
  EXPECT_THROW(pinned->catalog.repository("r0"), CatalogError);
  // ...while the current one has the repository.
  EXPECT_EQ(manager.current_catalog().repository("r0").host, "host");
  EXPECT_EQ(manager.live_epochs(), 2u);

  // Dropping the pin retires epoch 0.
  pinned.reset();
  EXPECT_EQ(manager.live_epochs(), 1u);
  EXPECT_EQ(manager.retired_epochs(), 1u);
}

TEST(FedcatSnapshotTest, ThrowingUpdatePublishesNothing) {
  fedcat::CatalogManager manager;
  manager.update([](fedcat::CatalogManager::Draft& draft) {
    draft.catalog.define_repository(
        catalog::Repository{"r0", "host", "db", "1.2.3.4"});
  });
  EXPECT_THROW(
      manager.update([](fedcat::CatalogManager::Draft& draft) {
        draft.catalog.define_repository(
            catalog::Repository{"r1", "host", "db", "1.2.3.5"});
        throw ExecutionError("updater changed its mind");
      }),
      ExecutionError);
  // The failed update is invisible: epoch and content stand.
  EXPECT_EQ(manager.epoch(), 1u);
  EXPECT_THROW(manager.current_catalog().repository("r1"), CatalogError);
  EXPECT_EQ(manager.current_catalog().repository("r0").db_name, "db");
}

// ---------------------------------------------------------- extent index ---

TEST(FedcatIndexTest, ShardsByInterfaceAndCapabilitySignature) {
  PaperWorld world;
  const fedcat::SnapshotPtr snap = world.mediator.catalog_snapshot();
  const fedcat::ExtentIndex& index = snap->index;
  EXPECT_EQ(index.total_extents(), 2u);
  EXPECT_EQ(index.interface_count(), 1u);
  // One wrapper, one capability grammar -> one shard.
  EXPECT_EQ(index.shard_count(), 1u);
  ASSERT_EQ(index.extents_of_interface("Person").size(), 2u);
  EXPECT_TRUE(index.extents_of_interface("NoSuchType").empty());
  const std::string& signature = index.signature_of_wrapper("w0");
  EXPECT_FALSE(signature.empty());
  EXPECT_EQ(index.extents_with_signature(signature).size(), 2u);
}

// --------------------------------------- registration-vs-query concurrency ---

TEST(FedcatStormTest, SixteenThreadRegistrationVsQueryStorm) {
  PaperWorld world;
  constexpr int kAdmins = 8;
  constexpr int kReaders = 8;
  constexpr int kQueriesPerReader = 40;

  // Each admin thread brings its own database + wrapper, fully built
  // before the storm so the only contended state is the mediator's.
  std::vector<std::unique_ptr<memdb::Database>> databases;
  std::vector<std::shared_ptr<wrapper::MemDbWrapper>> wrappers;
  for (int i = 0; i < kAdmins; ++i) {
    auto db = std::make_unique<memdb::Database>("storm_db" + std::to_string(i));
    auto& table =
        db->create_table("person_t" + std::to_string(i),
                         {{"id", memdb::ColumnType::Int},
                          {"name", memdb::ColumnType::Text},
                          {"salary", memdb::ColumnType::Int}});
    table.insert({Value::integer(100 + i),
                  Value::string("Stormer" + std::to_string(i)),
                  Value::integer(10 * i)});
    auto wrapper = std::make_shared<wrapper::MemDbWrapper>();
    wrapper->attach_database("storm_r" + std::to_string(i), db.get());
    databases.push_back(std::move(db));
    wrappers.push_back(std::move(wrapper));
  }

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kAdmins + kReaders);
  for (int i = 0; i < kAdmins; ++i) {
    threads.emplace_back([&, i] {
      const std::string n = std::to_string(i);
      world.mediator.register_wrapper("storm_w" + n, wrappers[i]);
      world.mediator.register_repository(
          catalog::Repository{"storm_r" + n, "host" + n, "db", "10.0.0." + n});
      world.mediator.execute_odl("extent person_t" + n +
                                 " of Person wrapper storm_w" + n +
                                 " repository storm_r" + n + ";");
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int q = 0; q < kQueriesPerReader; ++q) {
        Answer a = world.mediator.query("select x.name from x in person");
        // Every answer is complete and sees *some* consistent epoch:
        // at least the two seed extents, at most seed + all admins.
        if (!a.complete() || a.data().size() < 2 ||
            a.data().size() > 2 + kAdmins) {
          failed = true;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed);

  // The settled world has every extent, and every superseded epoch has
  // drained: exactly the current snapshot is alive.
  Answer settled = world.mediator.query("select x.name from x in person");
  ASSERT_TRUE(settled.complete());
  EXPECT_EQ(settled.data().size(), 2u + kAdmins);
  EXPECT_EQ(world.mediator.live_epochs(), 1u);
  EXPECT_EQ(world.mediator.retired_epochs(), world.mediator.catalog_epoch());
}

// ------------------------------------------------- shared verdict tables ---

TEST(FedcatVerdictStormTest, EightThreadsShareEachGrammarsVerdicts) {
  // Each wrapper keeps one grammar, and its verdict table serves both the
  // optimizer's pushdown checks on the query threads and the wrapper's
  // §2.1 run-time re-checks on the pool workers (wall-clock mode).
  const char* const queries[] = {
      "select x.name from x in emp where x.salary > 300",
      "select a.owner from a in acct where a.id = 7",
      "select s.city from s in sites where s.id = 2",
      "select struct(n: e.name, d: d.dname) from e in emp, d in dept "
      "where e.dept = d.id and e.salary > 100",
      "select distinct x.dept from x in emp where x.salary > 50",
      "select x.name from x in staff where x.salary > 100",
      "select x.name from x in emps where x.salary < 100",
  };
  constexpr size_t kQueries = std::size(queries);
  disco::testing::MixedWorld reference;  // one thread, virtual time
  std::vector<Value> expected;
  for (const char* query : queries) {
    Answer answer = reference.mediator.query(query);
    ASSERT_TRUE(answer.complete()) << query;
    expected.push_back(answer.data());
  }

  Mediator::Options options;
  options.exec.workers = 2;
  options.exec.latency_scale = 0.001;
  disco::testing::MixedWorld world(options);
  constexpr int kThreads = 8;
  constexpr int kRounds = 14;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const size_t i = static_cast<size_t>(t + r) % kQueries;
        Answer answer = world.mediator.query(queries[i]);
        if (!answer.complete() || answer.data() != expected[i]) ++wrong;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(world.mediator.wrapper_by_name("wm")
                ->capabilities()
                .cached_verdicts(),
            0u);
}

// ------------------------------------------------------- optimizer pruning ---

Mediator::Options pruning_disabled() {
  Mediator::Options options;
  options.optimizer.prune = false;
  return options;
}

TEST(FedcatPruneTest, PruningOnAndOffAgreeOnAnswers) {
  PaperWorld pruned;
  PaperWorld exhaustive(pruning_disabled());
  for (const char* query :
       {"select x.name from x in person",
        "select x.name from x in person where x.salary > 60",
        "select struct(n: x.name, s: y.salary) from x in person, "
        "y in person where x.id = y.id"}) {
    Answer a = pruned.mediator.query(query);
    Answer b = exhaustive.mediator.query(query);
    ASSERT_TRUE(a.complete()) << query;
    ASSERT_TRUE(b.complete()) << query;
    EXPECT_EQ(a.data(), b.data()) << query;
  }
}

TEST(FedcatPruneTest, ExplainSurfacesPruningCounters) {
  PaperWorld world;
  // Implicit extent: both extents considered, none pruned; the two
  // branches have the same token shape, so the second branch's R1
  // consultations hit the memo.
  Mediator::ExplainReport report = world.mediator.explain_report(
      "select x.name from x in person where x.salary > 10");
  EXPECT_EQ(report.prune.extents_total, 2u);
  EXPECT_EQ(report.prune.extents_considered, 2u);
  EXPECT_EQ(report.prune.pruned_by_type, 0u);
  EXPECT_GT(report.prune.grammar_consultations, 0u);
  EXPECT_GT(report.prune.grammar_memo_hits, 0u);

  // With a second interface registered, resolving the implicit extent
  // `person` never touches the Gadget extent: pruned by type.
  world.mediator.execute_odl(
      "interface Gadget (extent gadgets) { attribute String name; };\n"
      "extent gadget0 of Gadget wrapper w0 repository r0;");
  report = world.mediator.explain_report(
      "select x.name from x in person where x.salary > 10");
  EXPECT_EQ(report.prune.extents_total, 3u);
  EXPECT_EQ(report.prune.extents_considered, 2u);
  EXPECT_EQ(report.prune.pruned_by_type, 1u);

  EXPECT_NE(world.mediator.explain("select x.name from x in person")
                .find("pruning:"),
            std::string::npos);
}

TEST(FedcatPruneTest, ShapeSharingAboveThresholdKeepsAnswers) {
  // A world wide enough to cross prune_share_threshold (default 64):
  // 72 single-row extents of one interface behind one wrapper.
  constexpr int kExtents = 72;
  memdb::Database db("wide_db");
  auto wrapper = std::make_shared<wrapper::MemDbWrapper>();
  std::string odl =
      "interface Person (extent person) {\n"
      "  attribute Long id;\n"
      "  attribute String name;\n"
      "  attribute Short salary; };\n";
  for (int i = 0; i < kExtents; ++i) {
    const std::string n = std::to_string(i);
    auto& table = db.create_table("p" + n,
                                  {{"id", memdb::ColumnType::Int},
                                   {"name", memdb::ColumnType::Text},
                                   {"salary", memdb::ColumnType::Int}});
    table.insert({Value::integer(i), Value::string("P" + n),
                  Value::integer(i)});
    odl += "extent p" + n + " of Person wrapper w repository rep" + n + ";\n";
  }

  auto build = [&](Mediator::Options options) {
    auto mediator = std::make_unique<Mediator>(options);
    mediator->register_wrapper("w", wrapper);
    for (int i = 0; i < kExtents; ++i) {
      const std::string n = std::to_string(i);
      wrapper->attach_database("rep" + n, &db);
      mediator->register_repository(
          catalog::Repository{"rep" + n, "h" + n, "db", "10.1.0." + n});
    }
    mediator->execute_odl(odl);
    return mediator;
  };
  auto pruned = build({});
  auto exhaustive = build(pruning_disabled());

  const std::string query =
      "select x.name from x in person where x.salary > 50";
  Mediator::ExplainReport report = pruned->explain_report(query);
  EXPECT_EQ(report.prune.extents_considered,
            static_cast<size_t>(kExtents));
  // Branches 2..N reuse branch 1's winning flags...
  EXPECT_GT(report.prune.variants_skipped, 0u);
  EXPECT_GT(report.prune.grammar_memo_hits, 0u);
  // ...and the answers agree with exhaustive enumeration.
  Answer a = pruned->query(query);
  Answer b = exhaustive->query(query);
  ASSERT_TRUE(a.complete());
  ASSERT_TRUE(b.complete());
  EXPECT_EQ(a.data(), b.data());
  EXPECT_LT(pruned->explain_report(query).prune.grammar_consultations,
            exhaustive->explain_report(query).prune.grammar_consultations);
}

// -------------------------------------------------- hierarchical mediators ---

/// Four single-row person sources: flat registers all four under one
/// root; hierarchical splits them across two child mediators composed
/// under a root via MediatorSource.
struct SplitWorld {
  SplitWorld() {
    for (int i = 0; i < 4; ++i) {
      const std::string n = std::to_string(i);
      databases.push_back(
          std::make_unique<memdb::Database>("split_db" + n));
      auto& table =
          databases.back()->create_table("person" + n,
                                         {{"id", memdb::ColumnType::Int},
                                          {"name", memdb::ColumnType::Text},
                                          {"salary", memdb::ColumnType::Int}});
      table.insert({Value::integer(i), Value::string("p" + n),
                    Value::integer(25 * (i + 1))});
    }
  }

  static constexpr const char* kInterface = R"(
    interface Person (extent person) {
      attribute Long id;
      attribute String name;
      attribute Short salary; };
  )";

  /// Registers sources [first, last] of this world on `mediator`.
  void attach_sources(Mediator& mediator, int first, int last) {
    auto wrapper = std::make_shared<wrapper::MemDbWrapper>();
    std::string odl = kInterface;
    for (int i = first; i <= last; ++i) {
      const std::string n = std::to_string(i);
      wrapper->attach_database("sr" + n, databases[i].get());
      odl += "extent person" + n + " of Person wrapper sw repository sr" + n +
             ";\n";
    }
    mediator.register_wrapper("sw", std::move(wrapper));
    for (int i = first; i <= last; ++i) {
      const std::string n = std::to_string(i);
      mediator.register_repository(
          catalog::Repository{"sr" + n, "host" + n, "db", "10.2.0." + n});
    }
    mediator.execute_odl(odl);
  }

  std::vector<std::unique_ptr<memdb::Database>> databases;
};

/// Composes `child` under `root` as extent `extent_name` of Person; the
/// child's whole implicit extent `person` appears as one root extent.
void compose(Mediator& root, const std::string& extent_name,
             std::shared_ptr<wrapper::Wrapper> source,
             const std::string& repository) {
  root.register_wrapper("m_" + extent_name, std::move(source));
  root.register_repository(
      catalog::Repository{repository, "child-host", "disco", "10.3.0.1"});
  root.execute_odl("extent " + extent_name + " of Person wrapper m_" +
                   extent_name + " repository " + repository +
                   " map ((person=" + extent_name + "));");
}

std::vector<Value> sorted_items(const Value& bag) {
  std::vector<Value> items = bag.items();
  std::sort(items.begin(), items.end());
  return items;
}

TEST(FedcatHierarchyTest, TwoLevelFederationMatchesFlatAnswers) {
  SplitWorld world;

  Mediator flat;
  world.attach_sources(flat, 0, 3);

  Mediator child_a, child_b, root;
  world.attach_sources(child_a, 0, 1);
  world.attach_sources(child_b, 2, 3);
  root.execute_odl(SplitWorld::kInterface);
  compose(root, "west", fedcat::MediatorSource::in_process(&child_a), "ca");
  compose(root, "east", fedcat::MediatorSource::in_process(&child_b), "cb");

  // Scan and filter: branch order is source registration order on both
  // sides, so the answers are byte-identical, not just set-equal.
  for (const char* query :
       {"select x.name from x in person",
        "select x.name from x in person where x.salary > 30",
        "select struct(n: x.name, s: x.salary) from x in person"}) {
    Answer f = flat.query(query);
    Answer h = root.query(query);
    ASSERT_TRUE(f.complete()) << query;
    ASSERT_TRUE(h.complete()) << query;
    EXPECT_EQ(f.data(), h.data()) << query;
  }

  // Cross-child join: the same rows modulo physical emission order.
  const char* join =
      "select struct(a: x.name, b: y.name) from x in person, y in person "
      "where x.id = y.id";
  Answer f = flat.query(join);
  Answer h = root.query(join);
  ASSERT_TRUE(f.complete());
  ASSERT_TRUE(h.complete());
  EXPECT_EQ(sorted_items(f.data()), sorted_items(h.data()));
}

TEST(FedcatHierarchyTest, ChildOutageSurfacesAtTheRoot) {
  SplitWorld world;
  Mediator child, root;
  world.attach_sources(child, 0, 1);
  root.execute_odl(SplitWorld::kInterface);
  compose(root, "west", fedcat::MediatorSource::in_process(&child), "ca");

  // A *source* outage inside the child makes the child's answer partial;
  // the root's MediatorSource refuses to splice it (documented limit).
  child.network().set_availability("sr0", net::Availability::always_down());
  EXPECT_THROW(root.query("select x.name from x in person"), ExecutionError);

  // The child mediator's own endpoint going dark is an ordinary §4
  // partial at the root, in root names.
  child.network().set_availability("sr0", net::Availability::always_up());
  root.network().set_availability("ca", net::Availability::always_down());
  Answer partial = root.query("select x.name from x in person");
  ASSERT_FALSE(partial.complete());
  root.network().set_availability("ca", net::Availability::always_up());
  Answer resumed = root.query(partial.to_oql());
  ASSERT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.data().size(), 2u);
}

TEST(FedcatHierarchyTest, RemoteChildOverTheWireMatchesInProcess) {
  SplitWorld world;

  // The child runs behind a real daemon: wall-clock mode with session
  // workers, so subscribed queries complete via pushes.
  Mediator::Options child_options;
  child_options.exec.workers = 2;
  child_options.exec.latency_scale = 0.001;
  child_options.exec.call_deadline_s = 5.0;
  child_options.session.workers = 2;
  Mediator child(child_options);
  world.attach_sources(child, 0, 1);
  server::Server daemon(child, {});
  daemon.start();

  Mediator in_process_child;
  world.attach_sources(in_process_child, 0, 1);

  Mediator remote_root, local_root;
  remote_root.execute_odl(SplitWorld::kInterface);
  local_root.execute_odl(SplitWorld::kInterface);
  compose(remote_root, "west",
          fedcat::MediatorSource::connect("127.0.0.1", daemon.port(),
                                          /*deadline_s=*/10.0),
          "ca");
  compose(local_root, "west",
          fedcat::MediatorSource::in_process(&in_process_child), "ca");

  for (const char* query :
       {"select x.name from x in person",
        "select struct(n: x.name, s: x.salary) from x in person "
        "where x.salary > 30"}) {
    Answer remote = remote_root.query(query);
    Answer local = local_root.query(query);
    ASSERT_TRUE(remote.complete()) << query;
    ASSERT_TRUE(local.complete()) << query;
    EXPECT_EQ(remote.data(), local.data()) << query;
  }
  daemon.stop();
}

}  // namespace
}  // namespace disco
