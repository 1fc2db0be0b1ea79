// Wrapper for memdb data sources — the reproduction's WrapperPostgres
// (§2.1). The DBI work the paper describes is all here:
//
//   * advertise a capability grammar (configurable, so the pushdown
//     experiments can sweep {get} ⊂ {get,project} ⊂ ... ⊂ full),
//   * translate logical expressions from the mediator's algebra into the
//     source's own language (MiniSQL *text* — the query really crosses a
//     language boundary and is re-parsed by the source),
//   * apply the extent type maps in both directions (§2.2.2),
//   * reformat the source's answer into mediator objects (§1.1).
#pragma once

#include <memory>
#include <mutex>

#include "sources/memdb/database.hpp"
#include "sources/memdb/engine.hpp"
#include "wrapper/wrapper.hpp"

namespace disco::wrapper {

class MemDbWrapper : public Wrapper {
 public:
  /// Defaults to the full capability set with composition.
  explicit MemDbWrapper(grammar::CapabilitySet capabilities =
                            grammar::CapabilitySet{.get = true,
                                                   .project = true,
                                                   .select = true,
                                                   .join = true,
                                                   .compose = true});

  /// Binds the database reachable as `repository_name`. One wrapper can
  /// serve many repositories of the same kind, like w0 serving r0 and r1
  /// in the paper.
  void attach_database(const std::string& repository_name,
                       memdb::Database* database);

  /// Replaces the advertised grammar (e.g. a hand-written one from
  /// Grammar::parse, like the paper's §3.2 examples).
  void set_grammar(grammar::Grammar grammar);

  /// Optional source-compute cost model. When enabled, submit() reports
  /// SubmitResult::compute_s derived from the engine's per-query counters,
  /// so the mediator's cost history observes that an indexed selection is
  /// cheaper than a full scan of the same extent. Disabled by default:
  /// existing virtual-latency experiments price transfer only.
  struct CostModel {
    bool enabled = false;
    double base_s = 0;                  ///< fixed per-query overhead
    double per_row_scanned_s = 1e-7;    ///< per candidate row examined
    double per_index_probe_s = 2e-6;    ///< per index descent (log n-ish)
  };
  void set_cost_model(CostModel model) { cost_model_ = model; }

  grammar::Grammar capabilities() const override;
  SubmitResult submit(const catalog::Repository& repository,
                      const algebra::LogicalPtr& expr,
                      const BindingMap& bindings) override;
  std::string kind() const override { return "minisql"; }
  /// stats() as memdb.* gauges for Mediator::obs_snapshot().
  std::vector<std::pair<std::string, uint64_t>> stat_gauges() const override;

  /// The last MiniSQL text shipped to a source — observable evidence that
  /// translation crossed the language boundary. For tests and benches.
  /// Snapshot: submit() may run concurrently on executor threads.
  std::string last_sql() const {
    std::lock_guard<std::mutex> lock(last_sql_mutex_);
    return last_sql_;
  }

  /// Engine counters accumulated over every submit() since construction
  /// (the engine itself resets per query; the wrapper is the accumulator).
  /// Feeds the mediator's `memdb.*` observability gauges.
  memdb::Engine::Stats stats() const {
    std::lock_guard<std::mutex> lock(last_sql_mutex_);
    return stats_;
  }

 private:
  grammar::Grammar grammar_;
  std::unordered_map<std::string, memdb::Database*> databases_;
  CostModel cost_model_;
  mutable std::mutex last_sql_mutex_;
  std::string last_sql_;
  memdb::Engine::Stats stats_;
};

}  // namespace disco::wrapper
