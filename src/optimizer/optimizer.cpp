#include "optimizer/optimizer.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "common/error.hpp"
#include "optimizer/plan_template.hpp"
#include "optimizer/typecheck.hpp"
#include "oql/printer.hpp"

namespace disco::optimizer {

namespace {

using algebra::LogicalPtr;
using algebra::LOp;
using physical::PhysicalPtr;

// Mediator-side CPU cost per row for one operator application, and the
// default selectivities of the textbook cost model (§3.1's "usual" cost
// functions; the paper leaves the constants open).
constexpr double kCpuPerRow = 2e-6;
constexpr double kFilterSelectivity = 0.5;
constexpr double kJoinSelectivity = 0.25;

// Floor for the health divisor: an open circuit (availability 0) prices
// a source call at 1/kMinAvailability times its healthy estimate rather
// than infinity, so such plans stay comparable (everything down is still
// a valid — partial — answer).
constexpr double kMinAvailability = 0.05;

/// Folds one more union input into `total`: the inputs' exec calls run
/// in parallel (§4), so network time composes by max; CPU and rows add.
void add_union_input(Cost& total, const Cost& input) {
  total.net_s = std::max(total.net_s, input.net_s);
  total.cpu_s += input.cpu_s;
  total.rows += input.rows;
}

/// A source call whose key text a binding rewrote: the texts to price it
/// under (empty: the plan's own).
struct BoundText {
  const physical::Physical* node;
  std::string remote;
  std::string probe;
};

class Coster {
 public:
  Coster(const CostHistory* history, const Optimizer::HealthFn* health,
         PricingMemo* memo = nullptr)
      : history_(history), health_(health), memo_(memo) {}

  /// Prices the source calls in `texts` under their bound texts; null
  /// restores the plans' own keys.
  void use_texts(const std::vector<BoundText>* texts) { texts_ = texts; }

  Cost cost(const PhysicalPtr& node) const {
    switch (node->op) {
      case physical::POp::Exec: {
        CostHistory::Estimate est = estimate(*node, /*probe=*/false);
        return Cost{source_time(node->repository, est.time_s), 0,
                    std::max(est.rows, 0.0)};
      }
      case physical::POp::Const:
        return Cost{0, 0, static_cast<double>(node->data.size())};
      case physical::POp::Filter: {
        Cost in = cost(node->child);
        return Cost{in.net_s, in.cpu_s + in.rows * kCpuPerRow,
                    in.rows * kFilterSelectivity};
      }
      case physical::POp::Project: {
        Cost in = cost(node->child);
        return Cost{in.net_s, in.cpu_s + in.rows * kCpuPerRow, in.rows};
      }
      case physical::POp::HashJoin: {
        Cost l = cost(node->left);
        Cost r = cost(node->right);
        return Cost{std::max(l.net_s, r.net_s),
                    l.cpu_s + r.cpu_s + (l.rows + r.rows) * kCpuPerRow,
                    l.rows * r.rows * kJoinSelectivity};
      }
      case physical::POp::NestedLoopJoin: {
        Cost l = cost(node->left);
        Cost r = cost(node->right);
        double pairs = l.rows * r.rows;
        double rows = node->predicate == nullptr
                          ? pairs
                          : pairs * kJoinSelectivity;
        return Cost{std::max(l.net_s, r.net_s),
                    l.cpu_s + r.cpu_s + pairs * kCpuPerRow, rows};
      }
      case physical::POp::BindJoin: {
        Cost l = cost(node->left);
        double probe_time = 0;
        double probe_rows = 0;
        bool observed_probe = false;
        // Prefer a direct observation of the bound probe: the runtime
        // records probes that shipped keys under the plan's canonical
        // probe_shape, so once a bind join has run the model knows
        // exactly what one key-bound fetch costs here (near-constant for
        // an indexed source, a full scan's worth otherwise).
        if (history_ != nullptr) {
          CostHistory::Estimate probe_est = estimate(*node, /*probe=*/true);
          if (probe_est.basis == CostHistory::Basis::Exact ||
              probe_est.basis == CostHistory::Basis::Close) {
            probe_time = source_time(node->repository, probe_est.time_s);
            probe_rows = probe_est.rows;
            observed_probe = true;
          }
        }
        if (!observed_probe) {
          CostHistory::Estimate est = estimate(*node, /*probe=*/false);
          // The key disjunction narrows the probe to roughly one row per
          // build key; scale the base estimate accordingly.
          double selectivity =
              est.rows > 0 ? std::min(1.0, l.rows / est.rows) : 1.0;
          probe_time = source_time(node->repository, est.time_s) * selectivity;
          probe_rows = est.rows * selectivity;
        }
        // Sequential: keys can only ship after the build side is in.
        return Cost{l.net_s + probe_time,
                    l.cpu_s + (l.rows + probe_rows) * kCpuPerRow,
                    std::max(l.rows, 1.0) * kJoinSelectivity *
                        std::max(probe_rows, 1.0)};
      }
      case physical::POp::Union: {
        Cost total = cost(node->children.front());
        for (size_t i = 1; i < node->children.size(); ++i) {
          add_union_input(total, cost(node->children[i]));
        }
        return total;
      }
    }
    throw InternalError("corrupt plan in coster");
  }

 private:
  /// §3.3's learned estimate of one source call (a bind join's probe
  /// shape with `probe`), under its bound text when it has one.
  CostHistory::Estimate estimate(const physical::Physical& node,
                                 bool probe) const {
    if (history_ == nullptr) return CostHistory::Estimate{};
    const algebra::CostKey& key = probe ? *node.probe_key : *node.remote_key;
    const std::string* text = &key.text;
    if (texts_ != nullptr) {
      for (const BoundText& bound : *texts_) {
        if (bound.node != &node) continue;
        const std::string& rewritten = probe ? bound.probe : bound.remote;
        if (!rewritten.empty()) text = &rewritten;
        break;
      }
    }
    if (memo_ != nullptr) {
      return memo_->estimate(*history_, node.repository, *text,
                             key.signature);
    }
    return history_->estimate(node.repository, *text, key.signature);
  }

  /// Expected network time of one source call given its health: §3.3's
  /// learned estimate stretched by 1/availability (the expected number
  /// of rounds a source answering with probability p needs is 1/p).
  double source_time(const std::string& repository, double time_s) const {
    if (health_ == nullptr || !*health_) return time_s;
    double availability = memo_ != nullptr
                              ? memo_->availability(*health_, repository)
                              : (*health_)(repository);
    return time_s / std::max(availability, kMinAvailability);
  }

  const CostHistory* history_;
  const Optimizer::HealthFn* health_;
  PricingMemo* memo_;
  const std::vector<BoundText>* texts_ = nullptr;
};

/// One from-binding of a branch after decomposition.
struct Leaf {
  std::string var;
  const catalog::MetaExtent* extent = nullptr;  ///< null for const leaves
  LogicalPtr const_node;                        ///< when extent == null
  std::vector<oql::ExprPtr> pushable_preds;
  std::vector<oql::ExprPtr> local_preds;  ///< single-var but not pushable
};

struct BranchParts {
  std::vector<Leaf> leaves;
  std::vector<oql::ExprPtr> join_preds;   ///< multi-leaf-var predicates
  std::vector<oql::ExprPtr> other_preds;  ///< reference aux collections
  oql::ExprPtr projection;
  bool distinct = false;
};

void collect_leaves(const LogicalPtr& node,
                    const catalog::Catalog& catalog,
                    std::vector<Leaf>& out) {
  switch (node->op) {
    case LOp::Join:
      collect_leaves(node->left, catalog, out);
      collect_leaves(node->right, catalog, out);
      internal_check(node->predicate == nullptr,
                     "translator branches carry predicates in the filter");
      return;
    case LOp::Submit: {
      internal_check(node->child->op == LOp::Get,
                     "translator submit must wrap a get");
      Leaf leaf;
      leaf.var = node->child->var;
      leaf.extent = &catalog.extent(node->child->extent);
      out.push_back(std::move(leaf));
      return;
    }
    case LOp::Const: {
      Leaf leaf;
      leaf.const_node = node;
      // Recover the variable from the env shape.
      if (!node->data.items().empty()) {
        leaf.var = node->data.items().front().fields().front().first;
      }
      out.push_back(std::move(leaf));
      return;
    }
    default:
      throw InternalError("unexpected operator in branch join tree: " +
                          std::string(to_string(node->op)));
  }
}

BranchParts decompose_branch(const LogicalPtr& branch,
                             const catalog::Catalog& catalog) {
  internal_check(branch->op == LOp::Project,
                 "translator branches are project-topped");
  BranchParts parts;
  parts.projection = branch->projection;
  parts.distinct = branch->distinct;
  LogicalPtr body = branch->child;
  std::vector<oql::ExprPtr> conjuncts;
  if (body->op == LOp::Filter) {
    conjuncts = oql::split_conjuncts(body->predicate);
    body = body->child;
  }
  collect_leaves(body, catalog, parts.leaves);

  std::set<std::string> leaf_vars;
  std::map<std::string, Leaf*> by_var;
  for (Leaf& leaf : parts.leaves) {
    leaf_vars.insert(leaf.var);
    by_var[leaf.var] = &leaf;
  }
  for (const oql::ExprPtr& conjunct : conjuncts) {
    std::set<std::string> fv = oql::free_names(conjunct);
    bool all_leaf_vars = std::all_of(
        fv.begin(), fv.end(),
        [&leaf_vars](const std::string& v) { return leaf_vars.contains(v); });
    if (!all_leaf_vars) {
      parts.other_preds.push_back(conjunct);
    } else if (fv.size() == 1) {
      Leaf* leaf = by_var[*fv.begin()];
      if (leaf->extent != nullptr &&
          is_pushable_predicate(conjunct, {leaf->var})) {
        leaf->pushable_preds.push_back(conjunct);
      } else {
        leaf->local_preds.push_back(conjunct);
      }
    } else {
      parts.join_preds.push_back(conjunct);
    }
  }
  return parts;
}

/// A source-access unit during plan construction: one submit (possibly
/// covering several merged leaves) or one constant, plus the predicates
/// the mediator still has to apply above it.
struct Unit {
  LogicalPtr node;  ///< submit(...) or const
  std::set<std::string> vars;
  std::vector<oql::ExprPtr> mediator_preds;
  // For submit units:
  std::string repository;
  std::string wrapper;
  LogicalPtr inner;  ///< expression inside the submit
};

/// The wrapper grammars one optimize() call consults, by wrapper name.
///
/// At federation scale one implicit-extent query fans out over thousands
/// of branches whose submit candidates differ only in extent names — and
/// grammar::serialize erases extent names (every extent is the SOURCE
/// terminal), so one Earley run answers them all. Verdicts come from the
/// grammar's own table (Grammar::verdict), which the wrapper's run-time
/// re-check reads too and which outlives this call; it is keyed by token
/// string and therefore exact: it can never change a verdict, only skip
/// recomputing it. Without `use_verdicts` every consultation runs Earley.
class GrammarCache {
 public:
  GrammarCache(const Optimizer& optimizer, bool use_verdicts,
               PruneStats* stats)
      : optimizer_(optimizer), use_verdicts_(use_verdicts), stats_(stats) {}

  const grammar::Grammar& grammar_for(const std::string& wrapper) {
    auto it = grammars_.find(wrapper);
    if (it == grammars_.end()) {
      it = grammars_.emplace(wrapper, optimizer_.capability_for(wrapper))
               .first;
    }
    return it->second;
  }

  /// The grammar text of a wrapper — the capability signature extents
  /// shard by (fedcat::ExtentIndex uses the same form).
  const std::string& signature_of(const std::string& wrapper) {
    return grammar_for(wrapper).to_text();
  }

  bool accepts(const std::string& wrapper, const LogicalPtr& expr) {
    ++stats_->grammar_consultations;
    const grammar::Grammar& g = grammar_for(wrapper);
    std::vector<grammar::Terminal> tokens;
    if (!grammar::serialize(expr, tokens)) return false;
    if (!use_verdicts_) return g.recognizes(tokens);
    bool hit = false;
    const bool ok = g.verdict(tokens, &hit);
    if (hit) ++stats_->grammar_memo_hits;
    return ok;
  }

 private:
  const Optimizer& optimizer_;
  bool use_verdicts_;
  PruneStats* stats_;
  std::map<std::string, grammar::Grammar> grammars_;
};

}  // namespace

namespace {

/// True for a path chain rooted in one of `vars`: x.attr, x.doc.a.b, ...
/// Depth-1 chains serialize to ATTRIBUTE/PREDICATE terminals; deeper
/// ones to the PATH* terminals that only path-capable wrappers (the
/// docstore) advertise — flat wrappers reject them at the grammar check
/// and the predicate stays mediator-side.
bool is_var_path(const oql::ExprPtr& e, const std::set<std::string>& vars) {
  const oql::Expr* cursor = e.get();
  if (cursor == nullptr || cursor->kind != oql::ExprKind::Path) return false;
  while (cursor->kind == oql::ExprKind::Path) {
    cursor = cursor->child.get();
    if (cursor == nullptr) return false;
  }
  return cursor->kind == oql::ExprKind::Ident && vars.contains(cursor->name);
}

/// An equi-join's key pair and the conjuncts left over.
struct EquiJoin {
  physical::EquiKey left_key, right_key;
  std::vector<oql::ExprPtr> residual;
};

/// §3.1's equi-join implementation rule, decided here for every join
/// algorithm: the first `=` conjunct between a path rooted on a `left`
/// variable and a path rooted on a `right` one, flat or nested, becomes
/// the key pair; the other conjuncts stay the residual, in their order.
/// nullopt when no conjunct qualifies.
std::optional<EquiJoin> find_equi_key(
    const std::vector<oql::ExprPtr>& conjuncts,
    const std::set<std::string>& left_vars,
    const std::set<std::string>& right_vars) {
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const oql::ExprPtr& conjunct = conjuncts[i];
    if (conjunct->kind != oql::ExprKind::Binary ||
        conjunct->binary_op != oql::BinaryOp::Eq) {
      continue;
    }
    std::optional<physical::EquiKey> a = physical::EquiKey::of(conjunct->left);
    std::optional<physical::EquiKey> b =
        physical::EquiKey::of(conjunct->right);
    if (!a.has_value() || !b.has_value()) continue;
    if (right_vars.contains(a->var)) std::swap(a, b);
    if (!left_vars.contains(a->var) || !right_vars.contains(b->var)) continue;
    EquiJoin join{*std::move(a), *std::move(b), {}};
    for (size_t j = 0; j < conjuncts.size(); ++j) {
      if (j != i) join.residual.push_back(conjuncts[j]);
    }
    return join;
  }
  return std::nullopt;
}

std::set<std::string> vars_of(const LogicalPtr& node) {
  std::vector<std::string> vars = algebra::bound_vars(node);
  return {vars.begin(), vars.end()};
}

}  // namespace

bool is_pushable_predicate(const oql::ExprPtr& expr,
                           const std::set<std::string>& vars) {
  using oql::BinaryOp;
  using oql::ExprKind;
  if (expr == nullptr) return false;
  switch (expr->kind) {
    case ExprKind::Unary:
      return expr->unary_op == oql::UnaryOp::Not &&
             is_pushable_predicate(expr->child, vars);
    case ExprKind::Binary: {
      switch (expr->binary_op) {
        case BinaryOp::And:
        case BinaryOp::Or:
          return is_pushable_predicate(expr->left, vars) &&
                 is_pushable_predicate(expr->right, vars);
        case BinaryOp::Eq:
        case BinaryOp::Ne:
        case BinaryOp::Lt:
        case BinaryOp::Le:
        case BinaryOp::Gt:
        case BinaryOp::Ge: {
          auto operand_ok = [&vars](const oql::ExprPtr& e) {
            if (e->kind == ExprKind::Literal) {
              return !e->literal.is_collection() &&
                     e->literal.kind() != ValueKind::Struct;
            }
            return is_var_path(e, vars);
          };
          return operand_ok(expr->left) && operand_ok(expr->right);
        }
        default:
          return false;
      }
    }
    default:
      return false;
  }
}

bool is_pushable_projection(const oql::ExprPtr& expr,
                            const std::set<std::string>& vars) {
  using oql::ExprKind;
  if (expr == nullptr) return false;
  auto path_ok = [&vars](const oql::ExprPtr& e) {
    return is_var_path(e, vars);
  };
  if (path_ok(expr)) return true;
  if (expr->kind == ExprKind::StructCtor) {
    for (const auto& [name, field] : expr->struct_fields) {
      if (!path_ok(field)) return false;
    }
    return !expr->struct_fields.empty();
  }
  return false;
}

Optimizer::Optimizer(const catalog::Catalog* catalog,
                     WrapperResolver wrappers, const CostHistory* history,
                     OptimizerOptions options)
    : catalog_(catalog),
      wrappers_(std::move(wrappers)),
      history_(history),
      options_(options) {
  internal_check(catalog_ != nullptr, "optimizer needs a catalog");
  internal_check(static_cast<bool>(wrappers_),
                 "optimizer needs a wrapper resolver");
}

grammar::Grammar Optimizer::capability_for(
    const std::string& wrapper_name) const {
  wrapper::Wrapper* wrapper = wrappers_(wrapper_name);
  if (wrapper == nullptr) {
    throw InternalError("no wrapper object named '" + wrapper_name + "'");
  }
  return wrapper->capabilities();
}

const std::string& Optimizer::wrapper_of_extent(
    const std::string& extent) const {
  return catalog_->extent(extent).wrapper;
}

namespace {

/// Renders the cost keys of a template's source calls: each key as built,
/// and where the template's slot literals sit in its text.
class KeyRenderer {
 public:
  explicit KeyRenderer(const PlanTemplate& plan) : plan_(plan) {}

  algebra::CostKeyPtr render(const LogicalPtr& remote, KeyTemplate& out) {
    literals_.clear();
    out.key = algebra::cost_key(remote, &literals_);
    out.spans.clear();
    for (const oql::LiteralSpan& span : literals_) {
      const int64_t slot = plan_.slot_of(span.literal);
      if (slot >= 0) {
        out.spans.push_back({static_cast<uint32_t>(span.begin),
                             static_cast<uint32_t>(span.end),
                             static_cast<uint32_t>(slot)});
      } else if (!span.literal->literal.is_collection() &&
                 span.literal->literal.kind() != ValueKind::Struct) {
        // A scalar literal that is no slot: another query of this shape
        // could not rewrite it, so the template serves only its own.
        complete_ = false;
      }
    }
    return out.key;
  }

  /// False once a key held a scalar literal that is no slot.
  bool complete() const { return complete_; }

 private:
  const PlanTemplate& plan_;
  std::vector<oql::LiteralSpan> literals_;
  bool complete_ = true;
};

/// Implementation rules (submit => exec etc.). With `keys`, every source
/// call's key is rendered by it, and those holding a slot are appended to
/// `out`.
PhysicalPtr implement_plan(const Optimizer& optimizer, const LogicalPtr& node,
                           KeyRenderer* keys, std::vector<SourceKeys>* out) {
  switch (node->op) {
    case LOp::Submit: {
      std::vector<std::string> extent_names = algebra::extents(node);
      internal_check(!extent_names.empty(), "submit without extents");
      const std::string& wrapper =
          optimizer.wrapper_of_extent(extent_names.front());
      if (keys == nullptr) {
        return physical::make_exec(node->repository, wrapper, node->child,
                                   node);
      }
      SourceKeys source;
      algebra::CostKeyPtr key = keys->render(node->child, source.remote);
      PhysicalPtr exec = physical::make_exec(node->repository, wrapper,
                                             node->child, node, std::move(key));
      if (!source.remote.spans.empty()) {
        source.node = exec.get();
        out->push_back(std::move(source));
      }
      return exec;
    }
    case LOp::Const:
      return physical::make_const(node->data, node);
    case LOp::Filter:
      return physical::make_filter(
          implement_plan(optimizer, node->child, keys, out), node->predicate,
          node);
    case LOp::Project:
      return physical::make_project(
          implement_plan(optimizer, node->child, keys, out), node->projection,
          node->distinct, node);
    case LOp::Union: {
      std::vector<PhysicalPtr> children;
      children.reserve(node->children.size());
      for (const LogicalPtr& child : node->children) {
        children.push_back(implement_plan(optimizer, child, keys, out));
      }
      return physical::make_union(std::move(children), node);
    }
    case LOp::Join: {
      PhysicalPtr left = implement_plan(optimizer, node->left, keys, out);
      PhysicalPtr right = implement_plan(optimizer, node->right, keys, out);
      // Implementation rule: an equi-conjunct turns the join into a hash
      // join.
      std::optional<EquiJoin> equi =
          find_equi_key(oql::split_conjuncts(node->predicate),
                        vars_of(node->left), vars_of(node->right));
      if (equi.has_value()) {
        return physical::make_hash_join(
            std::move(left), std::move(right), std::move(equi->left_key),
            std::move(equi->right_key), oql::conjoin(equi->residual), node);
      }
      return physical::make_nl_join(std::move(left), std::move(right),
                                    node->predicate, node);
    }
    case LOp::Get:
      throw InternalError("bare get outside a submit cannot be implemented");
  }
  throw InternalError("corrupt logical expression in implement");
}

}  // namespace

physical::PhysicalPtr Optimizer::implement(const LogicalPtr& node) const {
  return implement_plan(*this, node, nullptr, nullptr);
}

namespace {

/// The three pushdown rewrites as bits. A branch variant requests a set of
/// them and BranchPlanner::build reports the set that took effect. R1 is
/// the high bit so that counting the rewrites a variant leaves *off*
/// upward from 0 walks the {R1, R2, R3} lattice with R1 varied slowest.
constexpr unsigned kR1 = 4;  ///< select pushdown
constexpr unsigned kR2 = 2;  ///< project pushdown
constexpr unsigned kR3 = 1;  ///< join merge

/// One built pushdown variant of a branch.
struct Variant {
  LogicalPtr logical;
  /// The rewrites that changed the plan: R1 moved some predicate into a
  /// submit, R3 merged some join, R2 moved the projection. These bits
  /// determine the variant: R1's verdicts do not depend on the other
  /// flags, R3's depend only on R1's outcome and R2's on both, and a
  /// requested rewrite that took no effect leaves the plan exactly as
  /// not requesting it would.
  unsigned effects = 0;
};

/// Builds one pushdown variant of a branch: its optimized logical form
/// (physical conversion happens through Optimizer::implement).
class BranchPlanner {
 public:
  /// `decisions` (nullable) receives one PushdownDecision per capability
  /// grammar consultation made while building variants. `grammars` is
  /// shared across every variant and branch of one optimize() call.
  BranchPlanner(const Optimizer& optimizer, const catalog::Catalog& catalog,
                const OptimizerOptions& options, GrammarCache* grammars,
                std::vector<PushdownDecision>* decisions = nullptr)
      : optimizer_(optimizer),
        catalog_(catalog),
        options_(options),
        grammars_(grammars),
        decisions_(decisions) {}

  Variant build(const BranchParts& parts, bool push_select,
                bool push_project, bool merge_joins) const {
    std::vector<Unit> units;
    for (const Leaf& leaf : parts.leaves) {
      units.push_back(make_unit(leaf, push_select));
    }
    if (merge_joins) {
      units = merge_adjacent(std::move(units), parts);
    }
    units = reorder_connected(std::move(units), parts);

    // Apply mediator-side per-unit predicates.
    for (Unit& unit : units) {
      if (!unit.mediator_preds.empty()) {
        unit.node = algebra::filter(unit.node,
                                    oql::conjoin(unit.mediator_preds));
        unit.mediator_preds.clear();
        unit.inner = nullptr;  // no longer a bare submit
      }
    }

    // Left-deep mediator joins; join predicates attach as soon as both
    // sides are bound.
    std::vector<bool> used(parts.join_preds.size(), false);
    // Predicates consumed inside merged submits are marked by text.
    for (size_t i = 0; i < parts.join_preds.size(); ++i) {
      if (consumed_.contains(oql::to_oql(parts.join_preds[i]))) {
        used[i] = true;
      }
    }
    LogicalPtr tree = units.front().node;
    std::set<std::string> bound = units.front().vars;
    for (size_t u = 1; u < units.size(); ++u) {
      std::set<std::string> combined = bound;
      combined.insert(units[u].vars.begin(), units[u].vars.end());
      std::vector<oql::ExprPtr> applicable;
      for (size_t i = 0; i < parts.join_preds.size(); ++i) {
        if (used[i]) continue;
        std::set<std::string> fv = oql::free_names(parts.join_preds[i]);
        bool ok = std::all_of(fv.begin(), fv.end(),
                              [&combined](const std::string& v) {
                                return combined.contains(v);
                              });
        if (ok) {
          applicable.push_back(parts.join_preds[i]);
          used[i] = true;
        }
      }
      tree = algebra::join(tree, units[u].node, oql::conjoin(applicable));
      bound = std::move(combined);
    }

    std::vector<oql::ExprPtr> top = parts.other_preds;
    for (size_t i = 0; i < parts.join_preds.size(); ++i) {
      if (!used[i]) top.push_back(parts.join_preds[i]);
    }
    if (!top.empty()) {
      tree = algebra::filter(tree, oql::conjoin(top));
    }

    // R2: project pushdown — only when the whole branch is one clean
    // submit and the projection is expressible at the source.
    if (push_project && units.size() == 1 && top.empty() &&
        tree->op == LOp::Submit && !parts.distinct &&
        is_pushable_projection(parts.projection, units.front().vars)) {
      LogicalPtr pushed = algebra::project(tree->child, parts.projection,
                                           false);
      const bool accepted = grammars_->accepts(units.front().wrapper, pushed);
      record("R2 project-pushdown", units.front().repository,
             units.front().wrapper, pushed, accepted);
      if (accepted) {
        return {algebra::submit(units.front().repository, pushed),
                effects_ | kR2};
      }
    }
    return {algebra::project(tree, parts.projection, parts.distinct),
            effects_};
  }

 private:
  Unit make_unit(const Leaf& leaf, bool push_select) const {
    Unit unit;
    unit.vars.insert(leaf.var);
    if (leaf.extent == nullptr) {
      unit.node = leaf.const_node;
      unit.mediator_preds = leaf.local_preds;
      unit.mediator_preds.insert(unit.mediator_preds.end(),
                                 leaf.pushable_preds.begin(),
                                 leaf.pushable_preds.end());
      return unit;
    }
    unit.repository = leaf.extent->repository;
    unit.wrapper = leaf.extent->wrapper;
    LogicalPtr inner = algebra::get(leaf.extent->name, leaf.var);
    unit.mediator_preds = leaf.local_preds;
    if (push_select && !leaf.pushable_preds.empty()) {
      LogicalPtr candidate =
          algebra::filter(inner, oql::conjoin(leaf.pushable_preds));
      // R1 consults the wrapper interface (§3.2).
      const bool accepted = grammars_->accepts(unit.wrapper, candidate);
      record("R1 select-pushdown", unit.repository, unit.wrapper, candidate,
             accepted);
      if (accepted) {
        inner = candidate;
        effects_ |= kR1;
      } else {
        unit.mediator_preds.insert(unit.mediator_preds.end(),
                                   leaf.pushable_preds.begin(),
                                   leaf.pushable_preds.end());
      }
    } else {
      unit.mediator_preds.insert(unit.mediator_preds.end(),
                                 leaf.pushable_preds.begin(),
                                 leaf.pushable_preds.end());
    }
    unit.inner = inner;
    unit.node = algebra::submit(unit.repository, inner);
    return unit;
  }

  /// Greedy join ordering: keep the first unit, then repeatedly prefer a
  /// unit connected to the bound variables by some join predicate, so
  /// left-deep joins chain on predicates instead of degenerating into
  /// cross products (e.g. `from x in a, y in b, z in c where a.id = c.id
  /// and b.id = c.id` joins a-c before b).
  std::vector<Unit> reorder_connected(std::vector<Unit> units,
                                      const BranchParts& parts) const {
    if (units.size() <= 2) return units;
    std::vector<Unit> ordered;
    ordered.push_back(std::move(units.front()));
    units.erase(units.begin());
    std::set<std::string> bound = ordered.front().vars;
    while (!units.empty()) {
      size_t pick = 0;
      bool found = false;
      for (size_t u = 0; u < units.size() && !found; ++u) {
        for (const oql::ExprPtr& pred : parts.join_preds) {
          if (consumed_.contains(oql::to_oql(pred))) continue;
          std::set<std::string> fv = oql::free_names(pred);
          std::set<std::string> combined = bound;
          combined.insert(units[u].vars.begin(), units[u].vars.end());
          bool connects =
              !fv.empty() &&
              std::all_of(fv.begin(), fv.end(),
                          [&combined](const std::string& v) {
                            return combined.contains(v);
                          }) &&
              // ... and actually spans old and new variables.
              std::any_of(fv.begin(), fv.end(),
                          [&units, u](const std::string& v) {
                            return units[u].vars.contains(v);
                          }) &&
              std::any_of(fv.begin(), fv.end(),
                          [&bound](const std::string& v) {
                            return bound.contains(v);
                          });
          if (connects) {
            pick = u;
            found = true;
            break;
          }
        }
      }
      bound.insert(units[pick].vars.begin(), units[pick].vars.end());
      ordered.push_back(std::move(units[pick]));
      units.erase(units.begin() + static_cast<long>(pick));
    }
    return ordered;
  }

  /// R3: merges adjacent submit units that live in the same repository
  /// behind the same wrapper, when the composed join is in the wrapper's
  /// language. Join predicates consumed here are recorded in consumed_.
  std::vector<Unit> merge_adjacent(std::vector<Unit> units,
                                   const BranchParts& parts) const {
    std::vector<Unit> out;
    for (Unit& next : units) {
      if (!out.empty()) {
        Unit& prev = out.back();
        bool mergeable = prev.inner != nullptr && next.inner != nullptr &&
                         prev.repository == next.repository &&
                         prev.wrapper == next.wrapper &&
                         prev.mediator_preds.empty() &&
                         next.mediator_preds.empty();
        if (mergeable) {
          std::set<std::string> combined = prev.vars;
          combined.insert(next.vars.begin(), next.vars.end());
          std::vector<oql::ExprPtr> link;
          for (const oql::ExprPtr& pred : parts.join_preds) {
            std::string text = oql::to_oql(pred);
            if (consumed_.contains(text)) continue;
            std::set<std::string> fv = oql::free_names(pred);
            bool ok = !fv.empty() &&
                      std::all_of(fv.begin(), fv.end(),
                                  [&combined](const std::string& v) {
                                    return combined.contains(v);
                                  }) &&
                      is_pushable_predicate(pred, combined);
            if (ok) link.push_back(pred);
          }
          LogicalPtr merged =
              algebra::join(prev.inner, next.inner, oql::conjoin(link));
          const bool accepted = grammars_->accepts(prev.wrapper, merged);
          record("R3 join-merge", prev.repository, prev.wrapper, merged,
                 accepted);
          if (accepted) {
            prev.inner = merged;
            effects_ |= kR3;
            prev.node = algebra::submit(prev.repository, merged);
            prev.vars = std::move(combined);
            for (const oql::ExprPtr& pred : link) {
              consumed_.insert(oql::to_oql(pred));
            }
            continue;
          }
        }
      }
      out.push_back(std::move(next));
    }
    return out;
  }

  void record(const char* rule, const std::string& repository,
              const std::string& wrapper, const LogicalPtr& expr,
              bool accepted) const {
    if (decisions_ == nullptr) return;
    decisions_->push_back({rule, repository, wrapper,
                           algebra::to_algebra_string(expr), accepted});
  }

  const Optimizer& optimizer_;
  const catalog::Catalog& catalog_;
  const OptimizerOptions& options_;
  GrammarCache* grammars_;
  std::vector<PushdownDecision>* decisions_;
  mutable std::set<std::string> consumed_;
  mutable unsigned effects_ = 0;
};

/// Extension: builds a bind-join plan for a two-source equi-join branch,
/// or returns null when the shape does not qualify. `decisions`
/// (nullable) receives the probe-side capability consultation; `keys` and
/// `out` are implement_plan's.
physical::PhysicalPtr try_bind_join(const Optimizer& optimizer,
                                    GrammarCache& grammars,
                                    const BranchParts& parts,
                                    const LogicalPtr& branch_logical,
                                    std::vector<PushdownDecision>* decisions,
                                    KeyRenderer* keys,
                                    std::vector<SourceKeys>* out) {
  if (parts.leaves.size() != 2) return nullptr;
  const Leaf& build = parts.leaves[0];
  const Leaf& probe = parts.leaves[1];
  if (build.extent == nullptr || probe.extent == nullptr) return nullptr;
  if (!probe.local_preds.empty()) return nullptr;

  std::optional<EquiJoin> equi =
      find_equi_key(parts.join_preds, {build.var}, {probe.var});
  if (!equi.has_value()) return nullptr;
  std::vector<oql::ExprPtr> residual = parts.other_preds;
  residual.insert(residual.end(), equi->residual.begin(),
                  equi->residual.end());
  const oql::ExprPtr probe_key = equi->right_key.expr;

  // Probe base expression; its wrapper must take a (composed) filter —
  // the bind predicate is appended at run time.
  LogicalPtr probe_base = algebra::get(probe.extent->name, probe.var);
  if (!probe.pushable_preds.empty()) {
    probe_base = algebra::filter(probe_base,
                                 oql::conjoin(probe.pushable_preds));
  }
  LogicalPtr probe_with_bind = algebra::filter(
      probe_base->op == LOp::Filter ? probe_base->child : probe_base,
      oql::binary(oql::BinaryOp::Eq, probe_key, probe_key));
  const bool probe_ok =
      grammars.accepts(probe.extent->wrapper, probe_with_bind);
  if (decisions != nullptr) {
    decisions->push_back({"bind-join probe", probe.extent->repository,
                          probe.extent->wrapper,
                          algebra::to_algebra_string(probe_with_bind),
                          probe_ok});
  }
  if (!probe_ok) {
    return nullptr;
  }

  // Build side: its own little plan (with select pushdown when legal).
  LogicalPtr build_inner = algebra::get(build.extent->name, build.var);
  std::vector<oql::ExprPtr> build_mediator = build.local_preds;
  if (!build.pushable_preds.empty()) {
    LogicalPtr candidate = algebra::filter(
        build_inner, oql::conjoin(build.pushable_preds));
    if (grammars.accepts(build.extent->wrapper, candidate)) {
      build_inner = candidate;
    } else {
      build_mediator.insert(build_mediator.end(),
                            build.pushable_preds.begin(),
                            build.pushable_preds.end());
    }
  }
  LogicalPtr build_logical =
      algebra::submit(build.extent->repository, build_inner);
  physical::PhysicalPtr build_plan =
      implement_plan(optimizer, build_logical, keys, out);
  if (!build_mediator.empty()) {
    LogicalPtr filtered =
        algebra::filter(build_logical, oql::conjoin(build_mediator));
    build_plan = physical::make_filter(build_plan,
                                       oql::conjoin(build_mediator),
                                       filtered);
  }

  // Canonical one-key probe shape: probe_base with a single placeholder
  // equality on the bind key, composed exactly as the runtime composes
  // the real (literal-laden) probe. Cost-history observations of probe
  // calls are recorded under this shape, and the Coster estimates the
  // probe side from it — the §3.3 loop that notices indexed probes
  // returning in near-constant time.
  oql::ExprPtr placeholder =
      oql::binary(oql::BinaryOp::Eq, probe_key, probe_key);
  LogicalPtr probe_shape =
      probe_base->op == LOp::Filter
          ? algebra::filter(probe_base->child,
                            oql::binary(oql::BinaryOp::And,
                                        probe_base->predicate, placeholder))
          : algebra::filter(probe_base, placeholder);

  // Residual form of the join itself (below the projection): when either
  // side is unavailable the Project node above re-wraps it (§4).
  internal_check(branch_logical->op == LOp::Project,
                 "bind join candidates come from project-topped branches");
  SourceKeys source;
  algebra::CostKeyPtr remote_key;
  algebra::CostKeyPtr shape_key;
  if (keys != nullptr) {
    remote_key = keys->render(probe_base, source.remote);
    shape_key = keys->render(probe_shape, source.probe);
  }
  physical::PhysicalPtr joined = physical::make_bind_join(
      std::move(build_plan), probe.extent->repository,
      probe.extent->wrapper, probe_base, probe_shape,
      std::move(equi->left_key), std::move(equi->right_key),
      oql::conjoin(residual), branch_logical->child, std::move(remote_key),
      std::move(shape_key));
  if (!source.remote.spans.empty() || !source.probe.spans.empty()) {
    source.node = joined.get();
    out->push_back(std::move(source));
  }
  return physical::make_project(std::move(joined), parts.projection,
                                parts.distinct, branch_logical);
}

}  // namespace

Cost Optimizer::cost(const physical::PhysicalPtr& plan) const {
  return Coster(history_, &health_).cost(plan);
}

CostHistory::Estimate PricingMemo::estimate(const CostHistory& history,
                                            const std::string& repository,
                                            const std::string& text,
                                            const std::string& signature) {
  std::string key = repository;
  key += '\0';
  key += text;
  auto it = estimates_.find(key);
  if (it == estimates_.end()) {
    it = estimates_
             .emplace(std::move(key),
                      history.estimate(repository, text, signature))
             .first;
  }
  return it->second;
}

double PricingMemo::availability(
    const std::function<double(const std::string&)>& health,
    const std::string& repository) {
  auto it = availability_.find(repository);
  if (it == availability_.end()) {
    it = availability_.emplace(repository, health(repository)).first;
  }
  return it->second;
}

namespace {

/// The variant a fresh optimize keeps among `costs` (one per variant, in
/// order): the cheapest and, among equals, the first — or, for lattice
/// variants with costing off, the last.
size_t choose(const TemplateBranch& branch, const std::vector<Cost>& costs,
              bool cost_based) {
  size_t best = 0;
  for (size_t i = 1; i < costs.size(); ++i) {
    const double c = costs[i].total();
    const double b = costs[best].total();
    if (c < b || (c == b && !cost_based && !branch.variants[i].bind_join)) {
      best = i;
    }
  }
  return best;
}

}  // namespace

Optimizer::Result Optimizer::optimize(const oql::ExprPtr& query,
                                      obs::ObsContext obs) const {
  const QueryShape shape = shape_of(query, *catalog_, /*keyed=*/false);
  return bind(*enumerate(shape, obs), shape, obs);
}

std::shared_ptr<const PlanTemplate> Optimizer::enumerate(
    const QueryShape& shape, obs::ObsContext obs) const {
  auto plan = std::make_shared<PlanTemplate>();
  plan->expanded = shape.expanded;
  plan->slots = shape.slots;
  plan->printed = shape.printed;
  // Slot spans in cost keys matter only to a template that other queries
  // of its shape bind: a keyed one.
  std::optional<KeyRenderer> renderer;
  if (!shape.key.empty()) {
    plan->slot_index.reserve(shape.slots.size());
    for (size_t i = 0; i < shape.slots.size(); ++i) {
      plan->slot_index.emplace_back(shape.slots[i].get(),
                                    static_cast<uint32_t>(i));
    }
    std::sort(plan->slot_index.begin(), plan->slot_index.end());
    renderer.emplace(*plan);
  }
  KeyRenderer* keys = renderer.has_value() ? &*renderer : nullptr;

  TranslationUnit unit =
      translate_expanded(shape.expanded, *catalog_, options_.max_branches);
  if (options_.static_typecheck) {
    obs::ScopedSpan typecheck(obs, "typecheck", "optimizer");
    check_attributes(unit.expanded, *catalog_);
  }
  plan->prune = unit.prune;
  for (const auto& [name, aux] : unit.aux) {
    plan->aux.emplace_back(name, implement(aux));
  }
  for (const auto& [name, aux] : unit.aux_closures) {
    plan->aux_closures.emplace_back(name, implement(aux));
  }
  if (!unit.is_plan_mode()) {
    plan->local = unit.local;
    return plan;
  }

  std::vector<LogicalPtr> branches;
  if (unit.plan->op == LOp::Union) {
    branches = unit.plan->children;
  } else {
    branches.push_back(unit.plan);
  }
  plan->branches.reserve(branches.size());

  GrammarCache grammar_cache(*this, options_.prune, &plan->prune);
  const bool record = options_.record_decisions;

  // Shape sharing: above the threshold, branches with an identical shape
  // key reuse the first such branch's winning pushdown flags instead of
  // re-enumerating the {R1, R2, R3} lattice. The key captures everything
  // the rewrite rules can see — wrapper grammar texts, the repository /
  // wrapper co-location pattern (R3 merges need both equal), and the
  // predicate / projection texts — so a shared branch builds the same
  // *structural* winner; only per-repository cost differences are traded
  // away. The representative's winner is priced here, as bind() will
  // price it, which ties the template to those prices: it is not reused.
  struct ShapeChoice {
    bool push_select = false;
    bool push_project = false;
    bool merge_joins = false;
    bool bind_join = false;
    size_t variants_costed = 0;  ///< what the representative enumerated
  };
  std::unordered_map<std::string, ShapeChoice> shape_memo;
  const bool share = options_.prune &&
                     branches.size() > options_.prune_share_threshold;
  Coster coster(history_, &health_);
  auto shape_key = [&](const BranchParts& parts) {
    std::string key;
    std::map<std::string, size_t> repo_ids;
    std::map<std::string, size_t> wrapper_ids;
    for (const Leaf& leaf : parts.leaves) {
      if (leaf.extent == nullptr) {
        key += "c|";
      } else {
        const size_t repo =
            repo_ids.emplace(leaf.extent->repository, repo_ids.size())
                .first->second;
        const size_t wrap =
            wrapper_ids.emplace(leaf.extent->wrapper, wrapper_ids.size())
                .first->second;
        key += 'e';
        key += std::to_string(repo);
        key += '.';
        key += std::to_string(wrap);
        key += ':';
        key += grammar_cache.signature_of(leaf.extent->wrapper);
        key += '|';
      }
      for (const oql::ExprPtr& pred : leaf.pushable_preds) {
        key += 'p' + oql::to_oql(pred) + ';';
      }
      for (const oql::ExprPtr& pred : leaf.local_preds) {
        key += 'l' + oql::to_oql(pred) + ';';
      }
    }
    for (const oql::ExprPtr& pred : parts.join_preds) {
      key += 'j' + oql::to_oql(pred) + ';';
    }
    for (const oql::ExprPtr& pred : parts.other_preds) {
      key += 'o' + oql::to_oql(pred) + ';';
    }
    key += parts.distinct ? "D" : "d";
    key += oql::to_oql(parts.projection);
    return key;
  };
  // Builds the lattice variant with these flags.
  auto build_variant = [&](const BranchParts& parts, bool push_select,
                           bool push_project, bool merge_joins) {
    TemplateVariant variant;
    BranchPlanner planner(*this, *catalog_, options_, &grammar_cache,
                          record ? &variant.decisions : nullptr);
    Variant built =
        planner.build(parts, push_select, push_project, merge_joins);
    variant.logical = built.logical;
    variant.plan = implement_plan(*this, built.logical, keys, &variant.keys);
    variant.push_select = push_select;
    variant.push_project = push_project;
    variant.merge_joins = merge_joins;
    return std::pair{std::move(variant), built.effects};
  };

  for (const LogicalPtr& branch : branches) {
    TemplateBranch& out = plan->branches.emplace_back();
    if (branch->op == LOp::Const) {
      out.constant = true;
      TemplateVariant constant;
      constant.plan = physical::make_const(branch->data, branch);
      constant.logical = branch;
      out.variants.push_back(std::move(constant));
      continue;
    }
    BranchParts parts = decompose_branch(branch, *catalog_);

    std::string key;
    const ShapeChoice* shared = nullptr;
    if (share) {
      key = shape_key(parts);
      auto it = shape_memo.find(key);
      if (it != shape_memo.end()) shared = &it->second;
    }

    if (shared != nullptr && shared->bind_join) {
      // The representative's winner was a bind join; the qualification
      // tests and grammar verdicts are all shape-covered, so this should
      // qualify too — but fall back to full enumeration if it does not.
      TemplateVariant variant;
      variant.bind_join = true;
      variant.logical = branch;
      variant.plan = try_bind_join(*this, grammar_cache, parts, branch,
                                   record ? &variant.decisions : nullptr,
                                   keys, &variant.keys);
      if (variant.plan != nullptr) {
        out.variants.push_back(std::move(variant));
        plan->prune.variants_skipped += shared->variants_costed - 1;
      } else {
        shared = nullptr;
      }
    } else if (shared != nullptr) {
      out.variants.push_back(build_variant(parts, shared->push_select,
                                           shared->push_project,
                                           shared->merge_joins)
                                 .first);
      plan->prune.variants_skipped += shared->variants_costed - 1;
    }
    if (shared != nullptr) continue;

    // The {R1, R2, R3} lattice, each rewrite requested before it is left
    // off: `off` holds the rewrites a combination leaves off, so 0
    // requests all three and 7 none. A combination that leaves rewrite
    // f off repeats its twin that requests f whenever the twin showed
    // that f took no effect; it is skipped and inherits the twin's
    // effects. Every combination built is then a new variant, met in
    // the order a full walk of the lattice would meet it, so candidate
    // flags and tie-breaks stay those of the full walk.
    std::array<std::optional<unsigned>, 8> effects_of;
    for (unsigned off = 0; off < effects_of.size(); ++off) {
      const bool push_select = (off & kR1) == 0;
      const bool push_project = (off & kR2) == 0;
      const bool merge_joins = (off & kR3) == 0;
      if ((push_select && !options_.enable_select_pushdown) ||
          (push_project && !options_.enable_project_pushdown) ||
          (merge_joins && !options_.enable_join_merge)) {
        continue;
      }
      for (unsigned rewrite : {kR1, kR2, kR3}) {
        if ((off & rewrite) == 0) continue;
        const std::optional<unsigned>& twin = effects_of[off & ~rewrite];
        if (twin.has_value() && (*twin & rewrite) == 0) {
          effects_of[off] = twin;
          break;
        }
      }
      if (effects_of[off].has_value()) continue;  // a repeat
      auto [variant, effects] =
          build_variant(parts, push_select, push_project, merge_joins);
      effects_of[off] = effects;
      out.variants.push_back(std::move(variant));
      if (!options_.cost_based) break;  // maximal pushdown first
    }
    if (options_.enable_bind_join) {
      TemplateVariant variant;
      variant.bind_join = true;
      // The logical form stays the original branch: bind join is a
      // physical strategy for the same logical join. The probe-side
      // consultation is worth explaining even when the bind join loses
      // or never qualifies.
      variant.logical = branch;
      variant.plan = try_bind_join(*this, grammar_cache, parts, branch,
                                   record ? &out.bind_decisions : nullptr,
                                   keys, &variant.keys);
      if (variant.plan != nullptr) out.variants.push_back(std::move(variant));
    }
    internal_check(!out.variants.empty(), "no plan produced for branch");
    if (share) {
      std::vector<Cost> costs;
      for (const TemplateVariant& variant : out.variants) {
        costs.push_back(coster.cost(variant.plan));
      }
      const TemplateVariant& winner =
          out.variants[choose(out, costs, options_.cost_based)];
      shape_memo.emplace(
          std::move(key),
          ShapeChoice{winner.push_select, winner.push_project,
                      winner.merge_joins, winner.bind_join,
                      out.variants.size()});
    }
  }
  plan->reusable = !share && keys != nullptr && keys->complete();
  return plan;
}

Optimizer::Result Optimizer::bind(const PlanTemplate& plan,
                                  const QueryShape& shape, obs::ObsContext obs,
                                  PricingMemo* memo) const {
  Result result;
  result.expanded = shape.expanded;
  result.prune = plan.prune;
  result.aux = plan.aux;
  result.aux_closures = plan.aux_closures;
  if (plan.local != nullptr) {
    result.local = shape.expanded;
    return result;
  }

  SlotBinding binding(plan, shape);
  Coster coster(history_, &health_, memo);
  const bool record = options_.record_decisions;
  std::vector<PhysicalPtr> physical_branches;
  physical_branches.reserve(plan.branches.size());
  std::vector<LogicalPtr> chosen_logical;
  chosen_logical.reserve(plan.branches.size());
  std::vector<Cost> branch_costs;
  branch_costs.reserve(plan.branches.size());
  std::vector<Cost> costs;
  std::vector<BoundText> texts;

  for (const TemplateBranch& branch : plan.branches) {
    binding.next_branch();
    costs.clear();
    const size_t first_candidate = result.candidates.size();
    for (const TemplateVariant& variant : branch.variants) {
      texts.clear();
      if (!binding.identity()) {
        for (const SourceKeys& source : variant.keys) {
          texts.push_back({source.node, binding.splice(source.remote),
                           binding.splice(source.probe)});
        }
      }
      coster.use_texts(texts.empty() ? nullptr : &texts);
      costs.push_back(coster.cost(variant.plan));
      ++result.plans_considered;
      // Candidate text is rendered only for a reader: explain's record or
      // a listening trace.
      if (branch.constant || (!record && !obs)) continue;
      const std::string logical_text =
          algebra::to_algebra_string(binding.logical(variant.logical));
      if (record) {
        result.candidates.push_back(
            {logical_text, costs.back(), variant.push_select,
             variant.push_project, variant.merge_joins, variant.bind_join,
             false});
      }
      if (obs) {
        const uint64_t event =
            obs.trace->instant(obs.span, "candidate", "optimizer");
        obs.trace->tag(event, "logical", logical_text);
        obs.trace->tag(event, "total_s", costs.back().total());
      }
    }
    coster.use_texts(nullptr);
    const size_t best = choose(branch, costs, options_.cost_based);
    const TemplateVariant& winner = branch.variants[best];
    if (record && !branch.constant) {
      result.candidates[first_candidate + best].chosen = true;
      result.decisions.insert(result.decisions.end(),
                              winner.decisions.begin(),
                              winner.decisions.end());
      result.decisions.insert(result.decisions.end(),
                              branch.bind_decisions.begin(),
                              branch.bind_decisions.end());
    }
    physical_branches.push_back(binding.plan(winner.plan, winner.keys));
    chosen_logical.push_back(binding.logical(winner.logical));
    branch_costs.push_back(costs[best]);
  }

  LogicalPtr overall = algebra::union_of(chosen_logical);
  result.plan = physical::make_union(std::move(physical_branches), overall);
  // The plan is the union of the branches just costed: fold their costs
  // as the Coster folds a union instead of costing the plan again.
  result.estimated = branch_costs.front();
  for (size_t i = 1; i < branch_costs.size(); ++i) {
    add_union_input(result.estimated, branch_costs[i]);
  }
  return result;
}

}  // namespace disco::optimizer
