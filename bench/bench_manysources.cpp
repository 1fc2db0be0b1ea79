// Experiment: federation-scale catalogs (src/fedcat/, DESIGN.md).
//
// The paper's title problem is scaling the *number* of heterogeneous
// sources. This harness grows the catalog to 1,000 / 5,000 / 10,000
// registered extents and measures the machinery this repo added for
// that regime:
//
//   * build          — batched registration: one ODL batch = one epoch,
//                      so standing up 10k extents is O(N), not O(N^2);
//   * hot-type plan  — planning latency for a query over a small
//                      interface while the catalog grows around it; the
//                      interface index makes this flat (sub-linear in
//                      catalog size), which is the acceptance bar;
//   * union plan     — planning a union over *all* N extents with
//                      pruning (grammar memo + shape sharing) on vs
//                      off: same winning plans, far fewer variants;
//   * hierarchy      — the same N extents behind 16 child mediators:
//                      the root plans over 16 extents instead of N, and
//                      the answers match the flat federation;
//   * registration   — extents registered while query threads run: the
//                      epoch swap never blocks a reader.
//
//   build/bench/bench_manysources [BENCH_manysources.json] [--smoke]
//
// --smoke shrinks the extent counts for CI; acceptance ratios are only
// enforced on the full run.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fedcat/mediator_source.hpp"
#include "worlds.hpp"

namespace {

using namespace disco;
using disco::bench::Stopwatch;

constexpr size_t kHotExtents = 8;

const char* kInterfaces = R"(
  interface Person (extent person) {
    attribute Long id;
    attribute String name;
    attribute Short salary; };
  interface Hot (extent hot) {
    attribute String name; };
)";

/// One table per extent, all in a single database attached under every
/// repository name — the data is a prop; the catalog is the workload.
struct SharedData {
  explicit SharedData(size_t n_extents) : db("many") {
    for (size_t i = 0; i < n_extents; ++i) {
      auto& table = db.create_table("person" + std::to_string(i),
                                    {{"id", memdb::ColumnType::Int},
                                     {"name", memdb::ColumnType::Text},
                                     {"salary", memdb::ColumnType::Int}});
      table.insert({Value::integer(static_cast<int64_t>(i)),
                    Value::string("p" + std::to_string(i)),
                    Value::integer(static_cast<int64_t>(i % 1000))});
    }
    for (size_t i = 0; i < kHotExtents; ++i) {
      auto& table = db.create_table("hot" + std::to_string(i),
                                    {{"name", memdb::ColumnType::Text}});
      table.insert({Value::string("h" + std::to_string(i))});
    }
    // Tables for the registration storm exist up front, so the storm
    // itself touches only the mediator's catalog.
    for (size_t i = 0; i < 64; ++i) {
      db.create_table("reg" + std::to_string(i),
                      {{"id", memdb::ColumnType::Int},
                       {"name", memdb::ColumnType::Text},
                       {"salary", memdb::ColumnType::Int}});
    }
  }
  memdb::Database db;
};

std::string repository_stmt(const std::string& repo) {
  return repo + " := Repository(host=\"" + repo +
         "\", name=\"db\", address=\"10.0.0.1\");\n";
}

/// A flat mediator over extents [first, last) of `data`, registered in
/// ONE ODL batch (a single catalog epoch).
std::unique_ptr<Mediator> flat_mediator(SharedData& data, size_t first,
                                        size_t last, bool with_hot,
                                        Mediator::Options options) {
  auto mediator = std::make_unique<Mediator>(options);
  auto wrapper = std::make_shared<wrapper::MemDbWrapper>();
  std::string odl = kInterfaces;
  for (size_t i = first; i < last; ++i) {
    const std::string n = std::to_string(i);
    wrapper->attach_database("r" + n, &data.db);
    odl += repository_stmt("r" + n);
    odl += "extent person" + n + " of Person wrapper w0 repository r" + n +
           ";\n";
  }
  if (with_hot) {
    for (size_t i = 0; i < kHotExtents; ++i) {
      const std::string n = std::to_string(i);
      wrapper->attach_database("hr" + n, &data.db);
      odl += repository_stmt("hr" + n);
      odl += "extent hot" + n + " of Hot wrapper w0 repository hr" + n +
             ";\n";
    }
  }
  mediator->register_wrapper("w0", std::move(wrapper));
  mediator->execute_odl(odl);
  return mediator;
}

/// The same [0, n) extents split across `children` child mediators
/// composed under one root via MediatorSource.
struct Hierarchy {
  std::vector<std::unique_ptr<Mediator>> children;
  std::unique_ptr<Mediator> root;
};

Hierarchy hierarchical_mediator(SharedData& data, size_t n, size_t n_children,
                                Mediator::Options options) {
  Hierarchy out;
  out.root = std::make_unique<Mediator>(options);
  std::string odl = kInterfaces;
  for (size_t c = 0; c < n_children; ++c) {
    const size_t first = c * n / n_children;
    const size_t last = (c + 1) * n / n_children;
    out.children.push_back(
        flat_mediator(data, first, last, /*with_hot=*/false, options));
    const std::string name = "child" + std::to_string(c);
    out.root->register_wrapper(
        "m_" + name, fedcat::MediatorSource::in_process(
                         out.children.back().get()));
    odl += repository_stmt("c" + std::to_string(c));
    odl += "extent " + name + " of Person wrapper m_" + name +
           " repository c" + std::to_string(c) + " map ((person=" + name +
           "));\n";
  }
  out.root->execute_odl(odl);
  return out;
}

double plan_ms(const Mediator& mediator, const std::string& query,
               int repeats, optimizer::PruneStats* stats = nullptr) {
  Mediator::ExplainReport report;
  mediator.explain_report(query);  // warm-up: lazy init off the clock
  Stopwatch watch;
  for (int i = 0; i < repeats; ++i) {
    report = mediator.explain_report(query);
  }
  const double ms = watch.seconds() / repeats * 1e3;
  if (stats != nullptr) *stats = report.prune;
  return ms;
}

struct Point {
  size_t n = 0;
  double build_ms = 0;
  double hot_plan_ms = 0;
  double union_plan_on_ms = 0;
  double union_plan_off_ms = 0;
  double union_speedup = 0;
  unsigned long long variants_skipped = 0;
  unsigned long long consultations_on = 0;
  unsigned long long consultations_off = 0;
  double hier_plan_ms = 0;
  size_t flat_rows = 0;
  size_t hier_rows = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }
  const std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{100, 200}
            : std::vector<size_t>{1000, 5000, 10000};
  const size_t kChildren = 16;
  const int kPlanRepeats = smoke ? 2 : 3;
  const char* kHotQuery = "select x.name from x in hot";
  const char* kUnionQuery =
      "select x.name from x in person where x.salary > 500";

  Mediator::Options on_options;
  on_options.optimizer.max_branches = 16384;
  Mediator::Options off_options = on_options;
  off_options.optimizer.prune = false;

  std::printf("federation-scale catalog: %zu..%zu extents%s\n\n",
              sizes.front(), sizes.back(), smoke ? " (smoke)" : "");

  bool ok = true;
  std::vector<Point> points;
  for (size_t n : sizes) {
    Point point;
    point.n = n;
    SharedData data(n);

    Stopwatch build_watch;
    auto flat = flat_mediator(data, 0, n, /*with_hot=*/true, on_options);
    point.build_ms = build_watch.seconds() * 1e3;

    point.hot_plan_ms = plan_ms(*flat, kHotQuery, kPlanRepeats);

    optimizer::PruneStats on_stats;
    point.union_plan_on_ms =
        plan_ms(*flat, kUnionQuery, kPlanRepeats, &on_stats);
    point.variants_skipped = on_stats.variants_skipped;
    point.consultations_on = on_stats.grammar_consultations;

    auto exhaustive =
        flat_mediator(data, 0, n, /*with_hot=*/true, off_options);
    optimizer::PruneStats off_stats;
    point.union_plan_off_ms =
        plan_ms(*exhaustive, kUnionQuery, /*repeats=*/1, &off_stats);
    point.consultations_off = off_stats.grammar_consultations;
    point.union_speedup = point.union_plan_off_ms / point.union_plan_on_ms;

    Hierarchy hier = hierarchical_mediator(data, n, kChildren, on_options);
    point.hier_plan_ms = plan_ms(*hier.root, kUnionQuery, kPlanRepeats);

    // The answers, not just the latencies, must agree: flat federation,
    // pruned and exhaustive, and the 16-child hierarchy.
    Answer flat_answer = flat->query(kUnionQuery);
    Answer exhaustive_answer = exhaustive->query(kUnionQuery);
    Answer hier_answer = hier.root->query(kUnionQuery);
    point.flat_rows = flat_answer.data().size();
    point.hier_rows = hier_answer.data().size();
    if (!flat_answer.complete() || !hier_answer.complete() ||
        flat_answer.data() != exhaustive_answer.data() ||
        point.flat_rows != point.hier_rows) {
      std::printf("ANSWER MISMATCH at n=%zu (flat %zu rows, hier %zu)\n", n,
                  point.flat_rows, point.hier_rows);
      ok = false;
    }

    std::printf("n=%-6zu build %8.1f ms | hot plan %7.3f ms | "
                "union plan on %8.2f ms / off %8.2f ms (%.1fx, "
                "%llu variants shared) | 16-child root plan %7.3f ms\n",
                n, point.build_ms, point.hot_plan_ms, point.union_plan_on_ms,
                point.union_plan_off_ms, point.union_speedup,
                point.variants_skipped, point.hier_plan_ms);
    points.push_back(point);
  }

  // ---- registration vs queries --------------------------------------------
  // Readers hammer the hot extents while the main thread registers new
  // extents; every query must complete and every registration lands
  // without waiting for a quiet moment.
  const size_t kRegistrations = smoke ? 8 : 32;
  SharedData storm_data(sizes.front());
  auto storm =
      flat_mediator(storm_data, 0, sizes.front(), /*with_hot=*/true,
                    on_options);
  std::atomic<bool> stop{false};
  std::atomic<size_t> queries_done{0};
  std::atomic<size_t> query_errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        try {
          if (storm->query(kHotQuery).data().size() != kHotExtents) {
            query_errors.fetch_add(1);
          }
          queries_done.fetch_add(1);
        } catch (...) {
          query_errors.fetch_add(1);
        }
      }
    });
  }
  double reg_total_ms = 0, reg_max_ms = 0;
  size_t done_before = 0;
  for (size_t i = 0; i < kRegistrations; ++i) {
    // A registration takes well under a millisecond: without this wait
    // the whole storm can finish before either reader completes a query.
    // Each one starts only after some query completed since the last.
    while (queries_done.load() <= done_before && query_errors.load() == 0) {
      std::this_thread::yield();
    }
    const std::string n = std::to_string(i);
    Stopwatch watch;
    storm->execute_odl("extent reg" + n +
                       " of Person wrapper w0 repository r0;");
    const double ms = watch.seconds() * 1e3;
    reg_total_ms += ms;
    reg_max_ms = std::max(reg_max_ms, ms);
    done_before = queries_done.load();
  }
  stop = true;
  for (std::thread& reader : readers) reader.join();
  const double reg_mean_ms = reg_total_ms / kRegistrations;
  std::printf("\nregistration storm (n=%zu catalog): %zu registrations, "
              "mean %.2f ms, max %.2f ms; %zu queries completed alongside, "
              "%zu errors; live epochs after drain: %zu\n",
              sizes.front(), kRegistrations, reg_mean_ms, reg_max_ms,
              queries_done.load(), query_errors.load(),
              storm->live_epochs());
  if (query_errors.load() != 0 || queries_done.load() < kRegistrations) {
    ok = false;
  }

  // ---- acceptance ---------------------------------------------------------
  // Sub-linear planning: a 10x bigger catalog may not cost 10x on the
  // hot-type plan; 3x is the generous bar (full run only — smoke sizes
  // are noise-dominated). Pruning must also beat exhaustive planning on
  // the all-extents union.
  const Point& small = points.front();
  const Point& large = points.back();
  const double growth = large.hot_plan_ms / small.hot_plan_ms;
  if (!smoke) {
    std::printf("\nhot-type planning growth %zu -> %zu extents: %.2fx "
                "(bar: <= 3x)\n",
                small.n, large.n, growth);
    if (growth > 3.0) ok = false;
    if (large.union_speedup < 1.0) ok = false;
  }

  if (json_path != nullptr) {
    FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::printf("cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"manysources\",\n"
                 "  \"smoke\": %s,\n"
                 "  \"children\": %zu,\n"
                 "  \"points\": [\n",
                 smoke ? "true" : "false", kChildren);
    for (size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::fprintf(
          out,
          "    {\"extents\": %zu, \"build_ms\": %.1f, "
          "\"hot_plan_ms\": %.3f, \"union_plan_on_ms\": %.2f, "
          "\"union_plan_off_ms\": %.2f, \"union_speedup\": %.1f, "
          "\"variants_shared\": %llu, \"grammar_consultations_on\": %llu, "
          "\"grammar_consultations_off\": %llu, \"hier_plan_ms\": %.3f, "
          "\"rows\": %zu}%s\n",
          p.n, p.build_ms, p.hot_plan_ms, p.union_plan_on_ms,
          p.union_plan_off_ms, p.union_speedup, p.variants_skipped,
          p.consultations_on, p.consultations_off, p.hier_plan_ms,
          p.flat_rows, i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n"
                 "  \"hot_plan_growth\": %.2f,\n"
                 "  \"registration\": {\"count\": %zu, \"mean_ms\": %.2f, "
                 "\"max_ms\": %.2f, \"queries_alongside\": %zu, "
                 "\"query_errors\": %zu}\n"
                 "}\n",
                 growth, kRegistrations, reg_mean_ms, reg_max_ms,
                 queries_done.load(), query_errors.load());
    std::fclose(out);
    std::printf("wrote %s\n", json_path);
  }

  std::printf("%s\n", ok ? "manysources OK" : "manysources FAILED");
  return ok ? 0 : 1;
}
