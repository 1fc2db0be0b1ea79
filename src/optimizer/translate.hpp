// OQL -> logical algebra translation (§3.2 of the paper).
//
// "When the query optimizer transforms an OQL query into a logical
//  expression, references to extents are transformed into the submit
//  operator" — and queries over a type's implicit extent distribute over
//  the union of its registered extents, reproducing the paper's example:
//
//    select x.name from x in person
//      => union(project(x.name, submit(r0, get(person0, x))),
//               project(x.name, submit(r1, get(person1, x))))
//
// Two translation modes:
//
//  * plan mode — the query is a select (or a union of selects /
//    constants) whose from-domains are extent-like: every combination of
//    per-binding data sources becomes one branch
//    Project(Filter(Join(...)))); partial evaluation then works at branch
//    granularity (§4).
//  * local mode — anything else (aggregates at top level, flatten over
//    selects, domains that are path expressions, ...): the expression is
//    evaluated by the mediator's evaluator after materializing every
//    extent it references. Unavailability then makes the *whole* query
//    the residual answer.
//
// In both modes, extent references inside nested subqueries (the §2.2.3
// reconciliation views) become *auxiliary collections*: named fetch plans
// the runtime materializes before evaluating the main plan.
#pragma once

#include <string>
#include <vector>

#include "algebra/logical.hpp"
#include "catalog/catalog.hpp"
#include "oql/ast.hpp"

namespace disco::optimizer {

/// Counters for federation-scale extent pruning (src/fedcat/): how much
/// of the registered world the planner actually touched, and how much
/// capability-grammar work was saved by verdict tables and shape sharing.
/// Filled by translate() (type pruning) and Optimizer::optimize()
/// (grammar verdicts / variant sharing); surfaced by explain_report().
struct PruneStats {
  /// Extents registered in the catalog when planning started.
  size_t extents_total = 0;
  /// Extent leaves the plan actually ranges over.
  size_t extents_considered = 0;
  /// Extents skipped because their interface cannot satisfy a queried
  /// implicit extent or closure (wrong type).
  size_t pruned_by_type = 0;
  /// Capability-grammar consultations asked during pushdown rewriting.
  size_t grammar_consultations = 0;
  /// Consultations answered from the grammar's verdict table (no Earley
  /// run). The table outlives a query, so hits count verdicts derived by
  /// earlier optimizations and run-time re-checks too.
  size_t grammar_memo_hits = 0;
  /// Branch plan variants never built because an identically-shaped
  /// branch already chose the winning pushdown flags.
  size_t variants_skipped = 0;
};

struct TranslationUnit {
  /// Plan mode: the logical plan (union of branches). Null in local mode.
  algebra::LogicalPtr plan;
  /// Local mode: the expression the mediator evaluates itself. Null in
  /// plan mode.
  oql::ExprPtr local;
  /// Auxiliary collections: name -> fetch plan producing a bag of rows.
  std::vector<std::pair<std::string, algebra::LogicalPtr>> aux;
  /// Same, for `name*` closure references.
  std::vector<std::pair<std::string, algebra::LogicalPtr>> aux_closures;
  /// View-expanded original query; the whole-query residual in local
  /// mode, and the basis of explain output.
  oql::ExprPtr expanded;
  /// Type-pruning counters (extents_total / considered / pruned_by_type).
  PruneStats prune;

  bool is_plan_mode() const { return plan != nullptr; }
};

/// Translates `query`. Throws CatalogError for unknown names and
/// ExecutionError when the branch product explodes past `max_branches`.
TranslationUnit translate(const oql::ExprPtr& query,
                          const catalog::Catalog& catalog,
                          size_t max_branches = 4096);

/// Same, for a query whose views expand_views() already expanded.
TranslationUnit translate_expanded(const oql::ExprPtr& expanded,
                                   const catalog::Catalog& catalog,
                                   size_t max_branches = 4096);

/// Expands view references (define ... as ..., §2.2.3) until none remain.
/// Cycle-free by catalog construction.
oql::ExprPtr expand_views(const oql::ExprPtr& query,
                          const catalog::Catalog& catalog);

/// Builds the fetch plan for one extent-like name: a union over data
/// sources of project(x, submit(r, get(e, x))). Used for aux collections
/// and by tests.
algebra::LogicalPtr fetch_plan(const std::string& name,
                               const catalog::Catalog& catalog,
                               bool closure);

}  // namespace disco::optimizer
