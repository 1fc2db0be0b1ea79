// Wrapper for semi-structured document sources (src/sources/docstore/).
//
// The heterogeneity stretch of §2.2: the underlying "server" speaks
// documents, not relations. The wrapper flattens mediator attributes
// through DocPath expressions taken from the extent's type map —
// `map ((meta.site=site),("samples[*].ph"=phs))` reads each document's
// meta.site into the flat attribute `site` and collects every sample's
// ph into the List-valued `phs` — while unmapped (identity) extents
// surface whole documents as struct rows with nested structure intact.
//
// Its capability grammar advertises the PATH* terminals: path
// projection and path-equality selection push down (served by the
// store's DocPath indexes when present), and everything else — range
// predicates over paths, distinct, joins — stays mediator-side as §4
// residuals. Flat wrappers never see the PATH* tokens (grammar
// subsumption is one-way), so the same query over a relational twin
// plans without change.
#pragma once

#include <mutex>
#include <unordered_map>

#include "sources/docstore/doc_store.hpp"
#include "wrapper/wrapper.hpp"

namespace disco::wrapper {

class DocWrapper : public Wrapper {
 public:
  DocWrapper();

  /// Binds the store reachable as `repository_name`; one wrapper can
  /// serve many document repositories.
  void attach_store(const std::string& repository_name,
                    docstore::DocStore* store);

  /// Replaces the advertised grammar (capability-sweep experiments).
  void set_grammar(grammar::Grammar grammar);

  /// Optional source-compute cost model, mirroring MemDbWrapper's: when
  /// enabled, submit() reports compute_s from documents examined and
  /// index probes, so the cost history can tell an indexed path probe
  /// from a whole-collection scan.
  struct CostModel {
    bool enabled = false;
    double base_s = 0;
    double per_doc_scanned_s = 1e-7;
    double per_index_probe_s = 2e-6;
  };
  void set_cost_model(CostModel model) { cost_model_ = model; }

  grammar::Grammar capabilities() const override;
  SubmitResult submit(const catalog::Repository& repository,
                      const algebra::LogicalPtr& expr,
                      const BindingMap& bindings) override;
  std::string kind() const override { return "docstore"; }
  /// Attached stores' access-path counters as docstore.* gauges.
  std::vector<std::pair<std::string, uint64_t>> stat_gauges() const override;

 private:
  grammar::Grammar grammar_;
  std::unordered_map<std::string, docstore::DocStore*> stores_;
  CostModel cost_model_;
};

}  // namespace disco::wrapper
