// The mediator query optimizer (§3 of the paper).
//
// "The query optimizer searches for the best way to execute a query ...
//  by transforming the query into several alternative expressions ...
//  Each expression has an associated estimated cost. The expression with
//  the lowest estimated cost is then executed by the run time system."
//
// Pipeline: OQL --translate--> logical branches --rewrite+cost--> physical
// plan. The DISCO-specific rewrites move work into submit operators, and
// every such rewrite "consults the wrapper interface with a call to the
// submit-functionality method" (§3.2) — i.e. checks the candidate against
// the wrapper's capability grammar:
//
//   R1  select pushdown   select(p, submit(r, X))  => submit(r, select(p, X))
//   R2  project pushdown  project(a, submit(r, X)) => submit(r, project(a, X))
//   R3  join merge        join(submit(r, A), submit(r, B), p)
//                                                  => submit(r, join(A, B, p))
//
// Alternatives are enumerated per branch over the {R1, R2, R3} on/off
// lattice, each distinct variant built once (a combination that repeats
// a twin whose rewrite took no effect is skipped), costed with the
// learned cost model (cost.hpp), and the cheapest is kept. Enumeration
// and costing are separate steps (plan_template.hpp): enumerate() builds
// every variant once per query shape, bind() prices them for one query's
// literals and chooses.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.hpp"
#include "grammar/capability.hpp"
#include "obs/trace.hpp"
#include "optimizer/cost.hpp"
#include "optimizer/translate.hpp"
#include "physical/plan.hpp"
#include "wrapper/wrapper.hpp"

namespace disco::optimizer {

struct OptimizerOptions {
  bool enable_select_pushdown = true;
  bool enable_project_pushdown = true;
  bool enable_join_merge = true;
  /// Reject attribute typos against the catalog's interfaces before
  /// planning (optimizer/typecheck.hpp). The paper's own checking is
  /// wrapper-side at run time (§2.1); disable to match it exactly.
  bool static_typecheck = true;
  /// Extension (§6.2): consider bind joins for two-source equi joins —
  /// ship the build side's keys into the probe side's submit. Off by
  /// default: it is not in the paper's Prototype-0 plan space.
  bool enable_bind_join = false;
  /// When false, skip cost comparison and always prefer maximal pushdown
  /// (what the 0/1 default cost implies anyway). Used for ablation.
  bool cost_based = true;
  size_t max_branches = 4096;
  /// Federation-scale pruning (src/fedcat/): read capability-grammar
  /// verdicts from each grammar's verdict table (Grammar::verdict), keyed
  /// by token shape (exact — the terminal alphabet erases extent names,
  /// so same-shaped candidates share one Earley run, across queries
  /// too), and above prune_share_threshold branches let
  /// identically-shaped branches reuse the first branch's winning
  /// pushdown flags instead of re-enumerating the whole {R1,R2,R3}
  /// lattice. The shape covers the per-leaf wrapper grammars and the
  /// repository/wrapper co-location pattern, so sharing can only diverge
  /// from exhaustive search when per-repository *cost* differences would
  /// flip a winner — the classic pruning trade at 1,000+ sources. With
  /// prune off every consultation runs Earley, so pruned-vs-exhaustive
  /// comparisons (bench_manysources) still set the table against the
  /// recognizer.
  bool prune = true;
  /// Branch count above which same-shaped branches share pushdown
  /// choices. High enough that every hand-built test world enumerates
  /// exhaustively.
  size_t prune_share_threshold = 64;
  /// Record every capability-grammar consultation (R1/R2/R3, bind-join
  /// probe) and every costed plan variant into Result::decisions /
  /// Result::candidates. Off by default — the explain path turns it on.
  bool record_decisions = false;
};

/// One capability-grammar consultation during pushdown rewriting (§3.2:
/// "consults the wrapper interface with a call to the submit-
/// functionality method"). Recorded when
/// OptimizerOptions::record_decisions is set — only for the variant the
/// optimizer finally chose.
struct PushdownDecision {
  std::string rule;        ///< "R1 select-pushdown", "R2 project-pushdown",
                           ///< "R3 join-merge", "bind-join probe"
  std::string repository;
  std::string wrapper;
  std::string expr;        ///< the candidate submit body (algebra text)
  bool accepted = false;   ///< grammar verdict
};

/// One costed alternative from the per-branch {R1, R2, R3} lattice.
struct PlanCandidate {
  std::string logical;  ///< algebra text of the variant
  Cost cost;
  bool push_select = false;
  bool push_project = false;
  bool merge_joins = false;
  bool bind_join = false;
  bool chosen = false;
};

struct QueryShape;
struct PlanTemplate;

/// Answers each estimate and availability once, so that bindings priced
/// side by side see one history and one health reading while sources keep
/// recording. Plan-check builds compare a template hit with a fresh
/// optimize through one.
class PricingMemo {
 public:
  CostHistory::Estimate estimate(const CostHistory& history,
                                 const std::string& repository,
                                 const std::string& text,
                                 const std::string& signature);
  double availability(
      const std::function<double(const std::string&)>& health,
      const std::string& repository);

 private:
  std::map<std::string, CostHistory::Estimate> estimates_;
  std::map<std::string, double> availability_;
};

class Optimizer {
 public:
  using WrapperResolver =
      std::function<wrapper::Wrapper*(const std::string&)>;
  /// Availability estimate for a repository in [0, 1] (session
  /// subsystem's EWMA; 0 for an open circuit, 1 for an unseen source).
  using HealthFn = std::function<double(const std::string& repository)>;

  Optimizer(const catalog::Catalog* catalog, WrapperResolver wrappers,
            const CostHistory* history, OptimizerOptions options = {});

  /// Makes costing health-aware: the network time of an exec / bind-join
  /// leaf is divided by its repository's availability (floored), so
  /// plans that lean on flaky or open-circuit sources price their
  /// expected retries and residual round-trips and the optimizer steers
  /// toward healthier alternatives. Empty fn restores neutral costing.
  void set_health(HealthFn health) { health_ = std::move(health); }

  struct Result {
    /// Plan-mode physical plan; null in local mode.
    physical::PhysicalPtr plan;
    /// Materialization plans for auxiliary collections (nested-subquery
    /// extents), by name.
    std::vector<std::pair<std::string, physical::PhysicalPtr>> aux;
    std::vector<std::pair<std::string, physical::PhysicalPtr>> aux_closures;
    /// Local-mode expression (evaluated by the mediator); null otherwise.
    oql::ExprPtr local;
    /// View-expanded query.
    oql::ExprPtr expanded;
    size_t plans_considered = 0;
    Cost estimated;
    /// Extent-pruning and grammar-memo counters for this optimization.
    PruneStats prune;
    /// Grammar consultations of the *chosen* variants (empty unless
    /// OptimizerOptions::record_decisions).
    std::vector<PushdownDecision> decisions;
    /// Every costed alternative (empty unless record_decisions).
    std::vector<PlanCandidate> candidates;
  };

  /// enumerate() then bind(). `obs` (optional) records a typecheck
  /// sub-span and one "candidate" instant per costed variant under the
  /// caller's optimize span.
  Result optimize(const oql::ExprPtr& query,
                  obs::ObsContext obs = {}) const;

  /// Everything before pricing, for `shape`'s query: translation,
  /// typecheck, branch decomposition and every branch's distinct
  /// variants. Cost keys carry their slots' spans when `shape` is keyed.
  std::shared_ptr<const PlanTemplate> enumerate(const QueryShape& shape,
                                                obs::ObsContext obs = {}) const;

  /// Prices `plan`'s variants for `shape`'s literals with the current
  /// history and health, chooses as a fresh optimize does, and builds the
  /// winners with those literals. `shape` is the query `plan` was built
  /// from, or one with the same template key. `memo` (optional) answers
  /// repeated estimates once.
  Result bind(const PlanTemplate& plan, const QueryShape& shape,
              obs::ObsContext obs = {}, PricingMemo* memo = nullptr) const;

  /// Costs an arbitrary physical plan with the current history — exposed
  /// for tests and the optimizer benches.
  Cost cost(const physical::PhysicalPtr& plan) const;

  /// Implementation rules only (submit=>exec etc.), no rewriting. Used
  /// for aux plans and by tests that want the naive plan costed.
  physical::PhysicalPtr implement(const algebra::LogicalPtr& node) const;

 /// Capability grammar of a wrapper object, by name (used by the
  /// pushdown rules; public for tests).
  grammar::Grammar capability_for(const std::string& wrapper_name) const;
  const std::string& wrapper_of_extent(const std::string& extent) const;

 private:

  const catalog::Catalog* catalog_;
  WrapperResolver wrappers_;
  const CostHistory* history_;
  OptimizerOptions options_;
  HealthFn health_;
};

/// True when `expr` is a predicate some wrapper could evaluate:
/// comparisons between bound-variable paths (flat var.attr or nested
/// var.doc.a.b chains) and scalar literals, combined with and/or/not.
/// The capability grammar abstracts predicates as PREDICATE/PATH*
/// terminals — nested chains serialize to the PATH* forms, which only
/// path-capable wrappers advertise, so flat sources reject them at the
/// grammar check and they stay mediator-side (wrappers still re-check
/// and refuse at run time).
bool is_pushable_predicate(const oql::ExprPtr& expr,
                           const std::set<std::string>& vars);

/// True when `expr` is a projection expressible at a source: a
/// var-rooted path chain or struct(f1: <chain>, ...).
bool is_pushable_projection(const oql::ExprPtr& expr,
                            const std::set<std::string>& vars);

}  // namespace disco::optimizer
