#include "optimizer/plan_template.hpp"

#include <algorithm>
#include <charconv>
#include <mutex>

#include "common/error.hpp"
#include "optimizer/translate.hpp"

namespace disco::optimizer {

namespace {

bool is_scalar(const Value& value) {
  return !value.is_collection() && value.kind() != ValueKind::Struct;
}

/// A from-domain translation resolves through the catalog alone: a name,
/// a closure, or a union of those.
bool resolves_by_name(const oql::Expr& domain) {
  switch (domain.kind) {
    case oql::ExprKind::Ident:
    case oql::ExprKind::ExtentClosure:
      return true;
    case oql::ExprKind::Call:
      if (domain.name != "union") return false;
      return std::all_of(domain.args.begin(), domain.args.end(),
                         [](const oql::ExprPtr& arg) {
                           return resolves_by_name(*arg);
                         });
    default:
      return false;
  }
}

/// A select translation plans from its shape alone: every from-domain
/// resolves by name, so no literal is read while planning.
bool plans_by_shape(const oql::Expr& select) {
  return select.kind == oql::ExprKind::Select &&
         std::all_of(select.from.begin(), select.from.end(),
                     [](const oql::Binding& binding) {
                       return resolves_by_name(*binding.domain);
                     });
}

/// Walks a query collecting its slots and, when keyed, writes its key:
/// a prefix code of the structure (every name length-prefixed), each
/// non-slot literal as printed, each slot as its kind, masked text and
/// first equal earlier slot; then the names' catalog resolution.
class ShapeWriter {
 public:
  ShapeWriter(QueryShape& shape, bool keyed) : shape_(shape), keyed_(keyed) {}

  /// `slots`: literals here are slots (where-clauses and projections).
  void walk(const oql::ExprPtr& node, bool slots) {
    const oql::Expr& e = *node;
    switch (e.kind) {
      case oql::ExprKind::Literal:
        if (slots && is_scalar(e.literal)) {
          slot(node);
        } else {
          tag('L');
          text(e.literal.to_oql());
        }
        return;
      case oql::ExprKind::Ident:
        tag('I');
        text(e.name);
        note(e.name, idents_);
        return;
      case oql::ExprKind::ExtentClosure:
        tag('*');
        text(e.name);
        note(e.name, closures_);
        return;
      case oql::ExprKind::Path:
        tag('.');
        text(e.name);
        walk(e.child, slots);
        return;
      case oql::ExprKind::Unary:
        tag(e.unary_op == oql::UnaryOp::Not ? '!' : '-');
        walk(e.child, slots);
        return;
      case oql::ExprKind::Binary:
        tag('B');
        tag(static_cast<char>('a' + static_cast<int>(e.binary_op)));
        walk(e.left, slots);
        walk(e.right, slots);
        return;
      case oql::ExprKind::Call:
        tag('F');
        text(e.name);
        number(e.args.size());
        for (const oql::ExprPtr& arg : e.args) walk(arg, slots);
        return;
      case oql::ExprKind::StructCtor:
        tag('S');
        number(e.struct_fields.size());
        for (const auto& [field, value] : e.struct_fields) {
          text(field);
          walk(value, slots);
        }
        return;
      case oql::ExprKind::Select:
        tag(e.distinct ? 'D' : 'Q');
        walk(e.projection, slots);
        number(e.from.size());
        for (const oql::Binding& binding : e.from) {
          text(binding.var);
          walk(binding.domain, false);
        }
        if (e.where != nullptr) {
          tag('W');
          walk(e.where, slots);
        } else {
          tag('-');
        }
        return;
    }
    throw InternalError("corrupt expression in shape walk");
  }

  /// Appends what every name resolved to; false when a name resolves to
  /// the metaextent table, whose rows the planner embeds by value.
  bool resolve(const catalog::Catalog& catalog) {
    using NameKind = catalog::Catalog::NameKind;
    key_ += '|';
    for (const std::string* name : idents_) {
      switch (catalog.classify(*name)) {
        case NameKind::Extent:
          tag('E');
          source(catalog.extent(*name));
          break;
        case NameKind::ImplicitExtent: {
          tag('T');
          text(*name);
          const InterfaceType* type =
              catalog.types().type_for_implicit_extent(*name);
          sources(catalog.extents_of_type(type->name));
          break;
        }
        case NameKind::MetaExtentTable:
          return false;
        case NameKind::View:
        case NameKind::Unknown:
          // Views are expanded; an unknown name is a variable, or a
          // collection translation rejects.
          break;
      }
    }
    for (const std::string* name : closures_) {
      std::string type = *name;
      if (!catalog.types().contains(type)) {
        const InterfaceType* owner =
            catalog.types().type_for_implicit_extent(type);
        if (owner == nullptr) continue;  // translation rejects it
        type = owner->name;
      }
      tag('C');
      text(*name);
      sources(catalog.extents_of_closure(type));
    }
    return true;
  }

  std::string take_key() { return std::move(key_); }

 private:
  void slot(const oql::ExprPtr& literal) {
    shape_.slots.push_back(literal);
    if (!keyed_) return;
    const Value& value = literal->literal;
    std::string printed = value.to_oql();
    tag('$');
    tag(static_cast<char>('a' + static_cast<int>(value.kind())));
    text(algebra::mask_literals(printed));
    size_t first = shape_.printed.size();
    for (size_t i = 0; i < shape_.printed.size(); ++i) {
      if (shape_.printed[i] == printed &&
          shape_.slots[i]->literal.kind() == value.kind()) {
        first = i;
        break;
      }
    }
    number(first);
    shape_.printed.push_back(std::move(printed));
  }

  void source(const catalog::MetaExtent& extent) {
    text(extent.name);
    text(extent.interface);
    text(extent.repository);
    text(extent.wrapper);
  }
  void sources(const std::vector<const catalog::MetaExtent*>& extents) {
    number(extents.size());
    for (const catalog::MetaExtent* extent : extents) source(*extent);
  }

  /// Remembers a name to resolve.
  void note(const std::string& name, std::vector<const std::string*>& names) {
    if (!keyed_) return;
    for (const std::string* seen : names) {
      if (*seen == name) return;
    }
    names.push_back(&name);
  }

  void tag(char c) {
    if (keyed_) key_ += c;
  }
  void number(size_t n) {
    if (!keyed_) return;
    char buffer[24];
    auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), n);
    key_.append(buffer, end);
    key_ += ':';
  }
  void text(const std::string& s) {
    if (!keyed_) return;
    number(s.size());
    key_ += s;
  }

  QueryShape& shape_;
  bool keyed_;
  std::string key_;
  std::vector<const std::string*> idents_;
  std::vector<const std::string*> closures_;
};

}  // namespace

QueryShape shape_of(const oql::ExprPtr& query, const catalog::Catalog& catalog,
                    bool keyed) {
  internal_check(query != nullptr, "cannot shape a null query");
  QueryShape shape;
  shape.expanded = expand_views(query, catalog);
  const oql::Expr& root = *shape.expanded;
  // Slots only where the translation plans by shape: a select, or a union
  // of selects, over names. Anything else is planned by value.
  const bool by_shape =
      plans_by_shape(root) ||
      (root.kind == oql::ExprKind::Call && root.name == "union" &&
       std::all_of(root.args.begin(), root.args.end(),
                   [](const oql::ExprPtr& arm) {
                     return plans_by_shape(*arm);
                   }));
  ShapeWriter writer(shape, keyed && by_shape);
  writer.walk(shape.expanded, by_shape);
  if (keyed && by_shape && writer.resolve(catalog)) {
    shape.key = writer.take_key();
  }
  return shape;
}

int64_t PlanTemplate::slot_of(const oql::Expr* literal) const {
  auto it = std::lower_bound(
      slot_index.begin(), slot_index.end(), literal,
      [](const auto& entry, const oql::Expr* node) {
        return entry.first < node;
      });
  if (it == slot_index.end() || it->first != literal) return -1;
  return it->second;
}

SlotBinding::SlotBinding(const PlanTemplate& plan, const QueryShape& shape)
    : plan_(plan), shape_(shape) {
  internal_check(shape.slots.size() == plan.slots.size(),
                 "a binding needs one literal per slot");
  for (size_t i = 0; i < plan.slots.size() && identity_; ++i) {
    if (shape.slots[i] == plan.slots[i]) continue;
    identity_ = i < shape.printed.size() && i < plan.printed.size() &&
                shape.printed[i] == plan.printed[i];
  }
  if (identity_ || shape.printed.size() == shape.slots.size()) return;
  for (const oql::ExprPtr& slot : shape.slots) {
    printed_.push_back(slot->literal.to_oql());
  }
}

const std::string& SlotBinding::printed(size_t slot) const {
  return printed_.empty() ? shape_.printed[slot] : printed_[slot];
}

std::string SlotBinding::splice(const KeyTemplate& key) const {
  if (key.spans.empty()) return {};
  const std::string& text = key.key->text;
  std::string out;
  out.reserve(text.size() + 16);
  size_t at = 0;
  for (const KeyTemplate::Span& span : key.spans) {
    out.append(text, at, span.begin - at);
    out += printed(span.slot);
    at = span.end;
  }
  out.append(text, at, std::string::npos);
  return out;
}

algebra::CostKeyPtr SlotBinding::bound_key(const KeyTemplate& key) const {
  if (key.spans.empty()) return key.key;
  return std::make_shared<const algebra::CostKey>(
      algebra::CostKey{splice(key), key.key->signature});
}

oql::ExprPtr SlotBinding::expr(const oql::ExprPtr& node) {
  if (node == nullptr || identity_) return node;
  const oql::Expr& e = *node;
  if (e.kind == oql::ExprKind::Ident ||
      e.kind == oql::ExprKind::ExtentClosure) {
    return node;
  }
  if (e.kind == oql::ExprKind::Literal) {
    const int64_t slot = plan_.slot_of(&e);
    return slot < 0 ? node : shape_.slots[static_cast<size_t>(slot)];
  }
  for (const auto& [from, to] : exprs_) {
    if (from == node.get()) return to;
  }
  // Copy-on-write: the node is copied the first time a child changes.
  std::shared_ptr<oql::Expr> copy;
  auto rebind = [&](const oql::ExprPtr& child, auto field) {
    oql::ExprPtr bound = expr(child);
    if (bound == child) return;
    if (copy == nullptr) copy = std::make_shared<oql::Expr>(e);
    field(*copy) = std::move(bound);
  };
  rebind(e.child, [](oql::Expr& c) -> oql::ExprPtr& { return c.child; });
  rebind(e.left, [](oql::Expr& c) -> oql::ExprPtr& { return c.left; });
  rebind(e.right, [](oql::Expr& c) -> oql::ExprPtr& { return c.right; });
  for (size_t i = 0; i < e.args.size(); ++i) {
    rebind(e.args[i], [i](oql::Expr& c) -> oql::ExprPtr& { return c.args[i]; });
  }
  for (size_t i = 0; i < e.struct_fields.size(); ++i) {
    rebind(e.struct_fields[i].second, [i](oql::Expr& c) -> oql::ExprPtr& {
      return c.struct_fields[i].second;
    });
  }
  rebind(e.projection,
         [](oql::Expr& c) -> oql::ExprPtr& { return c.projection; });
  for (size_t i = 0; i < e.from.size(); ++i) {
    rebind(e.from[i].domain,
           [i](oql::Expr& c) -> oql::ExprPtr& { return c.from[i].domain; });
  }
  rebind(e.where, [](oql::Expr& c) -> oql::ExprPtr& { return c.where; });
  if (copy == nullptr) return node;
  exprs_.emplace_back(node.get(), copy);
  return copy;
}

algebra::LogicalPtr SlotBinding::logical(const algebra::LogicalPtr& node) {
  if (node == nullptr || identity_) return node;
  for (const auto& [from, to] : logicals_) {
    if (from == node.get()) return to;
  }
  const algebra::Logical& n = *node;
  std::shared_ptr<algebra::Logical> copy;
  auto edit = [&]() -> algebra::Logical& {
    if (copy == nullptr) copy = std::make_shared<algebra::Logical>(n);
    return *copy;
  };
  if (auto bound = logical(n.child); bound != n.child) edit().child = bound;
  if (auto bound = logical(n.left); bound != n.left) edit().left = bound;
  if (auto bound = logical(n.right); bound != n.right) edit().right = bound;
  for (size_t i = 0; i < n.children.size(); ++i) {
    if (auto bound = logical(n.children[i]); bound != n.children[i]) {
      edit().children[i] = bound;
    }
  }
  if (auto bound = expr(n.predicate); bound != n.predicate) {
    edit().predicate = bound;
  }
  if (auto bound = expr(n.projection); bound != n.projection) {
    edit().projection = bound;
  }
  if (copy == nullptr) return node;
  logicals_.emplace_back(node.get(), copy);
  return copy;
}

physical::PhysicalPtr SlotBinding::plan(const physical::PhysicalPtr& node,
                                        const std::vector<SourceKeys>& keys) {
  if (node == nullptr || identity_) return node;
  const physical::Physical& n = *node;
  physical::PhysicalPtr child = plan(n.child, keys);
  physical::PhysicalPtr left = plan(n.left, keys);
  physical::PhysicalPtr right = plan(n.right, keys);
  std::vector<physical::PhysicalPtr> children;
  bool children_changed = false;
  children.reserve(n.children.size());
  for (const physical::PhysicalPtr& c : n.children) {
    children.push_back(plan(c, keys));
    children_changed |= children.back() != c;
  }
  algebra::LogicalPtr logical_form = logical(n.logical);
  algebra::LogicalPtr remote = logical(n.remote);
  algebra::LogicalPtr probe_shape = logical(n.probe_shape);
  oql::ExprPtr predicate = expr(n.predicate);
  oql::ExprPtr projection = expr(n.projection);
  algebra::CostKeyPtr remote_key = n.remote_key;
  algebra::CostKeyPtr probe_key = n.probe_key;
  for (const SourceKeys& source : keys) {
    if (source.node != node.get()) continue;
    remote_key = bound_key(source.remote);
    if (source.probe.key != nullptr) probe_key = bound_key(source.probe);
    break;
  }
  const bool changed =
      child != n.child || left != n.left || right != n.right ||
      children_changed || logical_form != n.logical || remote != n.remote ||
      probe_shape != n.probe_shape || predicate != n.predicate ||
      projection != n.projection || remote_key != n.remote_key ||
      probe_key != n.probe_key;
  if (!changed) return node;
  auto copy = std::make_shared<physical::Physical>(n);
  copy->child = std::move(child);
  copy->left = std::move(left);
  copy->right = std::move(right);
  copy->children = std::move(children);
  copy->logical = std::move(logical_form);
  copy->remote = std::move(remote);
  copy->probe_shape = std::move(probe_shape);
  copy->predicate = std::move(predicate);
  copy->projection = std::move(projection);
  copy->remote_key = std::move(remote_key);
  copy->probe_key = std::move(probe_key);
  return copy;
}

std::shared_ptr<const PlanTemplate> TemplateTable::find(
    const std::string& key) const {
  std::shared_lock lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  it->second.used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second.plan;
}

void TemplateTable::insert(const std::string& key,
                           std::shared_ptr<const PlanTemplate> plan,
                           uint64_t generation) {
  std::unique_lock lock(mutex_);
  if (generation != generation_.load(std::memory_order_relaxed)) return;
  if (entries_.size() >= kCapacity && !entries_.contains(key)) {
    std::vector<uint64_t> stamps;
    stamps.reserve(entries_.size());
    for (const auto& [text, entry] : entries_) {
      stamps.push_back(entry.used.load(std::memory_order_relaxed));
    }
    std::nth_element(stamps.begin(), stamps.begin() + (kDropBatch - 1),
                     stamps.end());
    const uint64_t newest_dropped = stamps[kDropBatch - 1];
    // Stamps of templates never hit since insertion tie; the cut keeps
    // at most kCapacity - kDropBatch entries either way.
    size_t dropped = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (dropped < kDropBatch &&
          it->second.used.load(std::memory_order_relaxed) <= newest_dropped) {
        it = entries_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    drops_.fetch_add(dropped, std::memory_order_relaxed);
  }
  auto [it, inserted] = entries_.try_emplace(key);
  if (inserted) {
    it->second.plan = std::move(plan);
    it->second.used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
  }
}

void TemplateTable::clear() {
  std::unique_lock lock(mutex_);
  generation_.fetch_add(1, std::memory_order_release);
  drops_.fetch_add(entries_.size(), std::memory_order_relaxed);
  entries_.clear();
}

TemplateTable::Stats TemplateTable::stats() const {
  return Stats{hits_.load(std::memory_order_relaxed),
               builds_.load(std::memory_order_relaxed),
               drops_.load(std::memory_order_relaxed)};
}

}  // namespace disco::optimizer
