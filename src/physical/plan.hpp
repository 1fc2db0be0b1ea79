// Physical plans (§3.3 of the paper).
//
// "The logical expression is transformed into a physical expression using
//  implementation rules. The submit logical operator is implemented by the
//  exec physical algorithm."
//
// The paper's example physical expression
//   mkunion(exec(field(r0), project(name, get(person0))),
//           mkproj(name, exec(field(r1), get(person1))))
// maps to: Union(Exec{r0, project(...)}, Project(Exec{r1, get(...)})).
//
// Every node records the *logical* expression it computes. That is the
// mechanism behind §4: "each physical operation has a corresponding
// logical operation, and each logical operation has a corresponding OQL
// expression" — when an exec times out, the runtime lifts the node's
// logical form into the partial answer.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algebra/logical.hpp"

namespace disco::physical {

enum class POp {
  Exec,     ///< call a wrapper: implements submit (§3.3)
  Const,    ///< materialized data
  Filter,   ///< mediator-side predicate
  Project,  ///< mediator-side projection (the paper's mkproj)
  HashJoin,
  NestedLoopJoin,
  /// Bind join (extension; §6.2 "future work ... extend the logical
  /// model"): evaluate the build side, then ship its distinct join keys
  /// into the probe side's submit as a disjunctive filter. The closest
  /// expressible cousin of the semijoin the paper notes `submit` cannot
  /// perform (it never moves data *between* sources — the keys travel
  /// mediator -> source, which RPC semantics allows).
  BindJoin,
  Union,    ///< the paper's mkunion
};

const char* to_string(POp op);

/// One input's side of an equi-join key: a path rooted on a variable of
/// that input, flat (`x.id`) or nested (`x.meta.site`). The optimizer
/// decides the key once; the runtime reads keys only through it.
struct EquiKey {
  std::string var;                 ///< the root variable
  std::vector<std::string> steps;  ///< field steps below it, at least one
  oql::ExprPtr expr;               ///< the path expression it came from

  /// The key of a variable-rooted path chain; nullopt for any other
  /// expression.
  static std::optional<EquiKey> of(const oql::ExprPtr& expr);
  /// The key's value in an env row struct(var: row, ...), stepped under
  /// the evaluator's path rules (oql::path_step): nil propagates, a
  /// missing field reads as nil, a step over a non-struct value throws
  /// ExecutionError.
  const Value& read(const Value& env) const;
};

struct Physical;
using PhysicalPtr = std::shared_ptr<const Physical>;

struct Physical {
  POp op;

  /// Logical equivalent of this whole subtree; set by the planner, used
  /// for partial-answer reconstruction and the cost history key.
  algebra::LogicalPtr logical;

  // Exec
  std::string repository;
  std::string wrapper;            ///< wrapper object name
  algebra::LogicalPtr remote;     ///< expression shipped to the wrapper
  algebra::CostKeyPtr remote_key;  ///< `remote` rendered once

  // Const
  Value data;

  // Filter / Join predicate; Project projection (OQL over env vars).
  oql::ExprPtr predicate;
  oql::ExprPtr projection;
  bool distinct = false;

  // Hash join / bind join: the equi key of each input.
  EquiKey left_key, right_key;
  /// BindJoin: past this many distinct build-side keys the probe side is
  /// fetched whole instead (the disjunction would dwarf the data).
  size_t max_bind_keys = 100;
  /// BindJoin: canonical shape of the probe submit — `remote` with a
  /// single placeholder key bound on `right_key`'s path, mirroring how the
  /// runtime composes the real probe. Cost-history observations of a
  /// probe that shipped keys are recorded under this shape (one that
  /// shipped none, under `remote`), so the optimizer can later estimate
  /// "what does one bound probe cost at this source" — the §3.3 closed
  /// loop that notices indexed probes returning in near-constant time.
  algebra::LogicalPtr probe_shape;
  algebra::CostKeyPtr probe_key;  ///< `probe_shape` rendered once

  PhysicalPtr child;
  PhysicalPtr left, right;
  std::vector<PhysicalPtr> children;

  /// Estimated cost, filled in by the optimizer (for explain output).
  double estimated_time_s = 0;
  double estimated_rows = 0;
};

/// `remote_key` is `remote`'s cost key when the caller already rendered
/// it (a plan template does); null renders it here.
PhysicalPtr make_exec(std::string repository, std::string wrapper,
                      algebra::LogicalPtr remote,
                      algebra::LogicalPtr logical,
                      algebra::CostKeyPtr remote_key = nullptr);
PhysicalPtr make_const(Value data, algebra::LogicalPtr logical);
PhysicalPtr make_filter(PhysicalPtr child, oql::ExprPtr predicate,
                        algebra::LogicalPtr logical);
PhysicalPtr make_project(PhysicalPtr child, oql::ExprPtr projection,
                         bool distinct, algebra::LogicalPtr logical);
/// Hash join on `left_key = right_key`; `logical` is the join whose
/// predicate the nested loop evaluates when a key read throws.
PhysicalPtr make_hash_join(PhysicalPtr left, PhysicalPtr right,
                           EquiKey left_key, EquiKey right_key,
                           oql::ExprPtr residual_predicate,
                           algebra::LogicalPtr logical);
PhysicalPtr make_nl_join(PhysicalPtr left, PhysicalPtr right,
                         oql::ExprPtr predicate, algebra::LogicalPtr logical);
/// Bind join: `remote` is the probe side's base expression (a get, or a
/// filter over a get, in mediator name space) executed at
/// `repository`/`wrapper` with the build side's keys appended as a
/// disjunctive equality filter on `right_key`'s path. `probe_shape` is the
/// canonical one-key probe expression used as the cost history record
/// key for probe observations that shipped keys. `logical` is the branch's
/// filtered join, whose predicate the nested loop evaluates when a key
/// read throws. Null keys are rendered here, as in make_exec.
PhysicalPtr make_bind_join(PhysicalPtr left, std::string repository,
                           std::string wrapper, algebra::LogicalPtr remote,
                           algebra::LogicalPtr probe_shape,
                           EquiKey left_key, EquiKey right_key,
                           oql::ExprPtr residual_predicate,
                           algebra::LogicalPtr logical,
                           algebra::CostKeyPtr remote_key = nullptr,
                           algebra::CostKeyPtr probe_key = nullptr);
PhysicalPtr make_union(std::vector<PhysicalPtr> children,
                       algebra::LogicalPtr logical);

/// "mkunion(exec(field(r0), ...), mkproj(...))"-style text for explain
/// output and tests.
std::string to_physical_string(const PhysicalPtr& plan);

}  // namespace disco::physical
