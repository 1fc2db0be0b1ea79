// The mediator's logical algebra (§3.1–3.2 of the paper).
//
// The query optimizer turns OQL into trees of these operators. The
// DISCO-specific operator is submit(source, expr): "the meaning of expr is
// located at source" (§3.2). A submit's argument stays in the *mediator*
// name space; the exec physical algorithm applies the extent's type map
// when the call actually reaches the wrapper (§3.3).
//
// Tuple model: every non-Project operator produces a bag of *environment
// structs* — structs with one field per from-binding variable, e.g.
// get(person0, x) emits struct(x: <Person row>). Predicates and
// projections are ordinary OQL expressions over those variables, so
// Filter/Project evaluate them with the oql::Evaluator and the
// reconstruction of a partial answer back into OQL (§4) is direct.
//
// The paper's example translation (§3.2)
//     select x.name from x in person
//   =>
//     union(project(name, submit(r0, get(person0))),
//           project(name, submit(r1, get(person1))))
// is exactly what optimizer/translate.cpp produces over this algebra:
// queries distribute over the union of a type's extents, one branch per
// combination of data sources.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "oql/ast.hpp"
#include "oql/printer.hpp"
#include "value/value.hpp"

namespace disco::algebra {

enum class LOp {
  Get,     ///< rows of one extent, wrapped as struct(var: row)
  Const,   ///< materialized data (literal domains, embedded answers)
  Filter,  ///< predicate over the environment (the paper's `select` op)
  Project, ///< per-environment projection expression; terminal env -> value
  Join,    ///< merge of two disjoint environments + optional predicate
  Union,   ///< bag union of same-shaped children
  Submit,  ///< locate the child expression at a repository (§3.2)
};

const char* to_string(LOp op);

struct Logical;
using LogicalPtr = std::shared_ptr<const Logical>;

struct Logical {
  LOp op;

  // Get
  std::string extent;  ///< extent name (mediator name space)
  std::string var;     ///< binding variable introduced by the extent
  // Const
  Value data;
  // Filter / Join predicate, over the environment variables.
  oql::ExprPtr predicate;
  // Project
  oql::ExprPtr projection;
  bool distinct = false;
  // Submit
  std::string repository;

  // Children: child for unary ops (Filter/Project/Submit), left/right for
  // Join, children for Union.
  LogicalPtr child;
  LogicalPtr left, right;
  std::vector<LogicalPtr> children;
};

// -- factories ---------------------------------------------------------------
LogicalPtr get(std::string extent, std::string var);
LogicalPtr constant(Value data);
LogicalPtr filter(LogicalPtr child, oql::ExprPtr predicate);
LogicalPtr project(LogicalPtr child, oql::ExprPtr projection, bool distinct);
LogicalPtr join(LogicalPtr left, LogicalPtr right, oql::ExprPtr predicate);
LogicalPtr union_of(std::vector<LogicalPtr> children);
LogicalPtr submit(std::string repository, LogicalPtr child);

/// Algebraic text form matching the paper's notation, e.g.
/// "project(x.name, submit(r0, get(person0, x)))". Used by explain output,
/// tests, and as the exact-match cost-history key (§3.3).
std::string to_algebra_string(const LogicalPtr& expr);

/// Cost-model signature: like to_algebra_string but with every literal
/// constant masked as '?'. Two calls that differ only in constants share a
/// signature — the paper's "close match" (§3.3).
std::string signature(const LogicalPtr& expr);

/// The signature's masking of one printed OQL fragment: numbers and
/// quoted strings become '?'. Stable and constant-insensitive, not
/// reversible. `nil`, `true`, `false` and a number's sign stay as printed.
std::string mask_literals(const std::string& text);

/// The two §3.3 cost-history keys of one shipped expression, rendered
/// once. Plan nodes carry one per source call, so estimating, recording
/// and the result cache's lookup read it instead of rendering the tree
/// again.
struct CostKey {
  std::string text;       ///< to_algebra_string: exact matches, cache key
  std::string signature;  ///< signature: close matches
};
using CostKeyPtr = std::shared_ptr<const CostKey>;

/// `literals` (optional) receives the span of every literal in the key's
/// text, in print order: where a plan template splices another query's
/// literals into a key it rendered once.
CostKeyPtr cost_key(const LogicalPtr& expr,
                    std::vector<oql::LiteralSpan>* literals = nullptr);

/// Binding variables produced by this subtree, in join order.
std::vector<std::string> bound_vars(const LogicalPtr& expr);

/// Repositories mentioned by submit nodes under `expr`.
std::vector<std::string> repositories(const LogicalPtr& expr);

/// Extents mentioned by get nodes under `expr`.
std::vector<std::string> extents(const LogicalPtr& expr);

/// Deep structural equality (via to_algebra_string).
bool equal(const LogicalPtr& a, const LogicalPtr& b);

}  // namespace disco::algebra
