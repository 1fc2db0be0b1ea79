// Batch-at-a-time operator kernels over `vec::Table` (src/vec/).
//
// Predicates and projections are compiled once per operator against the
// input schema into small programs; compilation declines (nullopt) on
// anything outside the vectorizable subset, and the runtime then keeps
// the row path for that operator — per-operator graceful fallback, never
// a behavior change. Every kernel reproduces the row path's observable
// semantics exactly (the differential harness in
// tests/test_vec_differential.cpp is the proof obligation):
//
//   * comparisons follow oql::Evaluator's compare_result — Eq/Ne are
//     total under Value::compare's kind ranks, ordering a nil or
//     mixed-kind pair throws the same ExecutionError;
//   * and/or/not mirror the evaluator's short-circuit by evaluating each
//     subterm only on the rows the row path would reach (masked
//     evaluation), so data-dependent errors fire for the same rows;
//   * hash join equals POp::HashJoin output as a bag (build right,
//     probe left in order, equality recheck after the hash);
//   * aggregation mirrors eval_call: sum is Int iff every item is Int,
//     avg is always real, empty sum/avg are Int 0 / real 0, empty
//     min/max decline so the evaluator can throw its own error.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "algebra/logical.hpp"
#include "catalog/catalog.hpp"
#include "oql/ast.hpp"
#include "vec/batch.hpp"

namespace disco::vec {

/// One compiled predicate node. Comparisons reference input columns by
/// index and hold literals by value; And/Or/Not combine masks.
struct PredNode {
  enum class Kind { Const, Cmp, And, Or, Not };

  Kind kind = Kind::Const;
  bool const_value = false;  // Const

  // Cmp: left/right operand is a column (index >= 0) or `*_lit`.
  oql::BinaryOp op = oql::BinaryOp::Eq;
  int left_col = -1;
  int right_col = -1;
  Value left_lit;
  Value right_lit;

  std::unique_ptr<PredNode> a, b;  // And/Or operands, Not operand in `a`
};

struct PredicateProgram {
  std::unique_ptr<PredNode> root;
};

/// Compiles a predicate against `schema` (Env shape: operands are
/// var.attr paths and scalar literals, combined with =/!=/</<=/>/>=,
/// and/or/not). nullopt for anything else.
std::optional<PredicateProgram> compile_predicate(const oql::ExprPtr& expr,
                                                  const Schema& schema);

/// Evaluates the program over `batch`, restricted to rows whose bit is
/// set in `candidates` (the short-circuit mask); returns the pass mask.
/// Throws ExecutionError exactly where the row path would.
std::vector<uint8_t> eval_predicate(const PredicateProgram& program,
                                    const ColumnBatch& batch,
                                    const std::vector<uint8_t>& candidates);

/// A compiled projection: each output column is one input column; the
/// whole program is column-pointer shuffling (zero copies per batch).
struct ProjectionProgram {
  Schema out_schema;
  std::vector<int> cols;  ///< input column index per output column
};

/// Compiles `select <expr>` shapes against an Env schema: `x` (the whole
/// var as a Flat struct), `x.attr` (Scalar), `struct(n1: x.a, ...)`
/// (Flat). nullopt otherwise.
std::optional<ProjectionProgram> compile_projection(const oql::ExprPtr& expr,
                                                    const Schema& schema);

// -- kernels ---------------------------------------------------------------

/// Gathers the rows passing `program`. Batches whose every row passes are
/// shared, not copied.
Table filter_table(const Table& in, const PredicateProgram& program);

/// Applies a projection batch-wise (shares column vectors).
Table project_table(const Table& in, const ProjectionProgram& program);

/// First-occurrence deduplication by whole-row equality; equality and
/// the resulting multiset match Value::set over the rebuilt rows (order
/// differs — set sorts — which bag semantics cannot observe).
Table distinct_table(const Table& in, size_t batch_rows);

/// Equi hash join: builds on `right`, probes `left` in row order, then
/// applies the optional residual program (compiled against the merged
/// schema). The merged schema is left's columns followed by right's
/// (exactly merge_envs). Both inputs must share the Env shape.
Table hash_join_tables(const Table& left, const Table& right, int left_col,
                       int right_col, const PredicateProgram* residual,
                       size_t batch_rows);

/// Batch-wise union merge: splices `part`'s batches onto `into` when the
/// layouts agree (an empty part always merges). False means the caller
/// must fall back to row concatenation.
bool concat_tables(Table* into, Table&& part);

/// Aggregates a Scalar-shaped table, mirroring oql::Evaluator::eval_call
/// ("sum", "count", "min", "max", "avg"). nullopt when this kernel
/// cannot reproduce the evaluator exactly (non-scalar shape, nulls or
/// non-numerics under sum/avg, empty min/max — the caller re-evaluates
/// on the row path, which also reproduces the evaluator's errors).
std::optional<Value> aggregate_table(const Table& table,
                                     const std::string& fn);

// -- static eligibility (explain) -------------------------------------------

/// The Env schema an exec leaf's reply will have, derived from the
/// remote expression's get nodes and the catalog's interfaces — the
/// static mirror of what from_rows infers from actual rows. nullopt for
/// replies that are not env-shaped (project-topped remotes).
std::optional<Schema> static_schema(const algebra::LogicalPtr& remote,
                                    const catalog::Catalog& catalog);

}  // namespace disco::vec
