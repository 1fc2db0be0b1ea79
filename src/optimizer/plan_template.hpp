// Plan templates: enumerate each query shape once, price every query.
//
// §3.3 has the optimizer derive alternative expressions and price each
// one from recorded exec calls, with close matches keyed on the
// constant-masked expression. Which alternatives exist depends only on a
// query's *shape*: capability verdicts are keyed on terminal strings,
// which carry no literals, and the signature masks them. Literals only
// change prices. So Optimizer::optimize is split in two:
//
//  * enumeration (Optimizer::enumerate) — translation, typecheck, branch
//    decomposition and the distinct {R1, R2, R3} and bind-join variants
//    of every branch, built once per shape into a PlanTemplate;
//  * binding (Optimizer::bind) — one query's literals spliced into each
//    variant's pre-rendered cost keys, every variant priced with the
//    current history and health, the winners chosen exactly as a fresh
//    optimize chooses, and only the winners' physical nodes rebuilt with
//    the query's literals.
//
// optimize() is enumerate-then-bind, so a template hit and a fresh
// optimize run one code path. Nothing in a template is ever stale on cost
// grounds: every use is priced.
//
// The slots of a query are the scalar literals of its top-level selects'
// where-clauses and projections (and of selects nested there). Literals
// the planner reads by value — constant from-domains, constant union
// arms, a constant whole query, a local-mode query — never become slots:
// such a query gets no key and is optimized afresh every time.
//
// A key is the view-expanded query with each slot written as its value
// kind, its masked text (what it contributes to a cost signature: `nil`,
// `true`, `false` and a number's sign survive masking) and the first
// earlier slot that prints equal to it — BranchPlanner matches consumed
// join predicates by their text, so which slots are equal is part of the
// shape. Then what each name resolved to in the catalog: (extent,
// interface, repository, wrapper) per source. No epoch: an admin update
// that leaves a query's sources as they were costs it no rebuild, and one
// that changes them changes its key.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "optimizer/optimizer.hpp"

namespace disco::optimizer {

/// A query as a plan template reads it.
struct QueryShape {
  /// The view-expanded query.
  oql::ExprPtr expanded;
  /// Its slots, in print order.
  std::vector<oql::ExprPtr> slots;
  /// Each slot's printed text (keyed shapes only).
  std::vector<std::string> printed;
  /// The template-table key; empty when the shape was not keyed or the
  /// query reads literals or the catalog by value while planning.
  std::string key;
};

/// Expands `query`'s views and marks its slots; with `keyed`, also renders
/// its template key.
QueryShape shape_of(const oql::ExprPtr& query, const catalog::Catalog& catalog,
                    bool keyed);

/// One source call's cost key as a template built it, and where each of
/// the template's slots sits in its text.
struct KeyTemplate {
  struct Span {
    uint32_t begin;
    uint32_t end;
    uint32_t slot;
  };
  algebra::CostKeyPtr key;
  std::vector<Span> spans;
};

/// The keys of one source call (Exec, or BindJoin with its probe shape)
/// whose text holds a slot.
struct SourceKeys {
  const physical::Physical* node = nullptr;
  KeyTemplate remote;
  KeyTemplate probe;  ///< BindJoin only
};

/// One pushdown variant of a branch, built for the template's literals.
struct TemplateVariant {
  physical::PhysicalPtr plan;
  /// The logical form a winner contributes (a bind join's is the branch).
  algebra::LogicalPtr logical;
  bool push_select = false;
  bool push_project = false;
  bool merge_joins = false;
  bool bind_join = false;
  /// Grammar consultations made building it (record_decisions only).
  std::vector<PushdownDecision> decisions;
  /// Source calls whose key text a binding rewrites.
  std::vector<SourceKeys> keys;
};

struct TemplateBranch {
  /// In the order a fresh optimize meets them: the lattice walk's
  /// variants, then the bind join.
  std::vector<TemplateVariant> variants;
  /// The bind-join probe consultation, explained whichever variant wins
  /// (record_decisions only).
  std::vector<PushdownDecision> bind_decisions;
  /// A constant branch: priced and counted, never a candidate.
  bool constant = false;
};

/// Everything Optimizer::optimize derives before pricing, for one query.
struct PlanTemplate {
  /// The query it was built from, whose literal nodes its plans hold.
  oql::ExprPtr expanded;
  std::vector<oql::ExprPtr> slots;
  std::vector<std::string> printed;
  /// (slot literal node, slot), sorted by node.
  std::vector<std::pair<const oql::Expr*, uint32_t>> slot_index;
  std::vector<std::pair<std::string, physical::PhysicalPtr>> aux;
  std::vector<std::pair<std::string, physical::PhysicalPtr>> aux_closures;
  /// Local mode's expression; null in plan mode.
  oql::ExprPtr local;
  /// Counters of the enumeration that built it.
  PruneStats prune;
  std::vector<TemplateBranch> branches;
  /// Whether another query of its shape may bind it: false in local mode,
  /// when same-shaped branches shared pushdown choices (the shared flags
  /// follow the representative's prices), and when a cost key held a
  /// scalar literal that is no slot.
  bool reusable = false;

  /// The slot whose literal `literal` is; -1 for none.
  int64_t slot_of(const oql::Expr* literal) const;
};

/// One query's literals bound into a template: splices them into the
/// template's cost keys and substitutes them into the plans a binding
/// keeps. A node is rewritten once: within a branch, every tree the
/// binding returns shares the copy.
class SlotBinding {
 public:
  SlotBinding(const PlanTemplate& plan, const QueryShape& shape);

  /// True when every slot prints as the template's own, so its plans and
  /// keys serve unchanged.
  bool identity() const { return identity_; }

  /// `key`'s text with this query's literals; empty when it holds no slot.
  std::string splice(const KeyTemplate& key) const;
  oql::ExprPtr expr(const oql::ExprPtr& expr);
  algebra::LogicalPtr logical(const algebra::LogicalPtr& node);
  /// `plan` rebuilt with this query's literals; `keys` are the template's
  /// key templates for its source calls.
  physical::PhysicalPtr plan(const physical::PhysicalPtr& plan,
                             const std::vector<SourceKeys>& keys);
  /// Branches share no logical node: forgets the last branch's rewrites,
  /// so lookups stay short on wide unions.
  void next_branch() { logicals_.clear(); }

 private:
  algebra::CostKeyPtr bound_key(const KeyTemplate& key) const;
  /// Slot `slot`'s printed literal: the shape's, when it was keyed.
  const std::string& printed(size_t slot) const;

  const PlanTemplate& plan_;
  const QueryShape& shape_;
  bool identity_ = true;
  /// Printed slots of an unkeyed shape; empty when the shape's serve.
  std::vector<std::string> printed_;
  std::vector<std::pair<const oql::Expr*, oql::ExprPtr>> exprs_;
  std::vector<std::pair<const algebra::Logical*, algebra::LogicalPtr>>
      logicals_;
};

/// The mediator's bounded table of plan templates, shared by every query.
/// Lookups take a shared lock; templates are built outside it. Past
/// kCapacity entries the kDropBatch least recently used go together.
class TemplateTable {
 public:
  static constexpr size_t kCapacity = 4096;
  static constexpr size_t kDropBatch = 512;

  struct Stats {
    uint64_t hits = 0;    ///< lookups that found a template
    uint64_t builds = 0;  ///< enumerations on the query path
    uint64_t drops = 0;   ///< templates dropped (evicted or cleared)
  };

  /// The template under `key`, or null. Counts a hit when found.
  std::shared_ptr<const PlanTemplate> find(const std::string& key) const;
  /// Bumped by clear(). A builder reads it before enumerating.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  /// Keeps `plan` under `key` unless a template is there already, or the
  /// table was cleared since `generation` (the plan may predate that).
  void insert(const std::string& key, std::shared_ptr<const PlanTemplate> plan,
              uint64_t generation);
  void count_build() { builds_.fetch_add(1, std::memory_order_relaxed); }
  /// Drops every template (an interface definition changed what queries
  /// mean).
  void clear();
  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const PlanTemplate> plan;
    mutable std::atomic<uint64_t> used{0};
  };

  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  mutable std::atomic<uint64_t> clock_{0};
  std::atomic<uint64_t> generation_{0};
  mutable std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> builds_{0};
  std::atomic<uint64_t> drops_{0};
};

}  // namespace disco::optimizer
