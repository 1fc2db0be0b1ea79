#include "wrapper/kv_wrapper.hpp"

#include <optional>

#include "common/error.hpp"
#include "oql/eval.hpp"
#include "oql/printer.hpp"

namespace disco::wrapper {

namespace {

/// One equality condition var.attr = literal extracted from a conjunction.
struct Equality {
  std::string attribute;  // mediator name space
  Value value;
};

/// Flattens an equality-only conjunction into (attr, value) pairs; fails
/// on anything else (the grammar should have filtered those out).
bool collect_equalities(const oql::ExprPtr& pred, const std::string& var,
                        std::vector<Equality>& out) {
  using oql::BinaryOp;
  using oql::ExprKind;
  if (pred->kind != ExprKind::Binary) return false;
  if (pred->binary_op == BinaryOp::And) {
    return collect_equalities(pred->left, var, out) &&
           collect_equalities(pred->right, var, out);
  }
  if (pred->binary_op != BinaryOp::Eq) return false;
  const oql::ExprPtr* path = nullptr;
  const oql::ExprPtr* literal = nullptr;
  if (pred->left->kind == ExprKind::Path &&
      pred->right->kind == ExprKind::Literal) {
    path = &pred->left;
    literal = &pred->right;
  } else if (pred->right->kind == ExprKind::Path &&
             pred->left->kind == ExprKind::Literal) {
    path = &pred->right;
    literal = &pred->left;
  } else {
    return false;
  }
  if ((*path)->child->kind != ExprKind::Ident ||
      (*path)->child->name != var) {
    return false;
  }
  out.push_back(Equality{(*path)->name, (*literal)->literal});
  return true;
}

/// Get, and select with an equality-only predicate over a bare source.
const grammar::Grammar& kv_grammar() {
  static const grammar::Grammar grammar = grammar::Grammar::parse(
      "a :- b\n"
      "a :- c\n"
      "b :- get OPEN SOURCE CLOSE\n"
      "c :- select OPEN EQPREDICATE COMMA SOURCE CLOSE\n");
  return grammar;
}

}  // namespace

void KvWrapper::attach_store(const std::string& repository_name,
                             kvstore::KvStore* store) {
  internal_check(store != nullptr, "null kv store");
  stores_[repository_name] = store;
}

grammar::Grammar KvWrapper::capabilities() const { return kv_grammar(); }

SubmitResult KvWrapper::submit(const catalog::Repository& repository,
                               const algebra::LogicalPtr& expr,
                               const BindingMap& bindings) {
  auto store_it = stores_.find(repository.name);
  if (store_it == stores_.end()) {
    throw CatalogError("kv wrapper has no store for repository '" +
                       repository.name + "'");
  }
  kvstore::KvStore& store = *store_it->second;
  if (!kv_grammar().accepts(expr)) {
    return SubmitResult::refused(
        "expression rejected by the kv capability grammar: " +
        algebra::to_algebra_string(expr));
  }

  const algebra::Logical* get_node = nullptr;
  oql::ExprPtr predicate;
  if (expr->op == algebra::LOp::Get) {
    get_node = expr.get();
  } else if (expr->op == algebra::LOp::Filter &&
             expr->child->op == algebra::LOp::Get) {
    get_node = expr->child.get();
    predicate = expr->predicate;
  } else {
    return SubmitResult::refused("kv sources accept get or select(get)");
  }

  auto binding_it = bindings.find(get_node->extent);
  if (binding_it == bindings.end()) {
    throw InternalError("missing binding for extent '" + get_node->extent +
                        "'");
  }
  const ExtentBinding& binding = binding_it->second;
  if (!store.has_collection(binding.source_relation)) {
    return SubmitResult::refused("store '" + repository.name +
                                 "' has no collection '" +
                                 binding.source_relation + "'");
  }
  const kvstore::KvCollection& collection =
      store.collection(binding.source_relation);

  std::vector<Value> rows;
  if (predicate == nullptr) {
    ++store.stats().scans;
    rows = collection.scan();
  } else {
    std::vector<Equality> equalities;
    if (!collect_equalities(predicate, get_node->var, equalities) ||
        equalities.empty()) {
      return SubmitResult::refused("kv predicate must be a conjunction of "
                                   "attribute = literal comparisons: " +
                                   oql::to_oql(predicate));
    }
    // Use a key equality as the index probe when one exists; remaining
    // equalities filter the probe result.
    std::optional<size_t> key_index;
    for (size_t i = 0; i < equalities.size(); ++i) {
      if (binding.map->to_source_attribute(equalities[i].attribute) ==
          collection.key_attribute()) {
        key_index = i;
        break;
      }
    }
    if (key_index.has_value()) {
      ++store.stats().lookups;
      rows = collection.lookup(equalities[*key_index].value);
    } else {
      ++store.stats().scans;
      rows = collection.scan();
    }
    std::erase_if(rows, [&](const Value& row) {
      for (size_t i = 0; i < equalities.size(); ++i) {
        const Value* field = row.find_field(
            binding.map->to_source_attribute(equalities[i].attribute));
        if (field == nullptr || *field != equalities[i].value) return true;
      }
      return false;
    });
  }

  std::vector<Value> items;
  items.reserve(rows.size());
  for (const Value& row : rows) {
    items.push_back(Value::strct(
        {{get_node->var, binding.map->rename_row_to_mediator(row)}}));
  }
  return SubmitResult::ok(Value::bag(std::move(items)));
}

}  // namespace disco::wrapper
