#include "wrapper/doc_wrapper.hpp"

#include <optional>
#include <set>

#include "common/error.hpp"
#include "oql/printer.hpp"

namespace disco::wrapper {

namespace {

using algebra::LOp;
using algebra::LogicalPtr;
using docstore::DocPath;

/// One path-equality condition from a pushed conjunction, already
/// translated into the source name space: source-side DocPath = literal.
struct PathEquality {
  DocPath path;
  Value value;
};

/// Splits a var-rooted OQL path chain x.attr.t1.t2 into the mediator
/// attribute (`attr`, the step nearest the variable) and the tail field
/// names. Returns false when the chain is not rooted at `var`.
bool split_chain(const oql::ExprPtr& expr, const std::string& var,
                 std::string& attribute, std::vector<std::string>& tail) {
  std::vector<std::string> names;
  const oql::Expr* node = expr.get();
  while (node->kind == oql::ExprKind::Path) {
    names.push_back(node->name);
    node = node->child.get();
  }
  if (node->kind != oql::ExprKind::Ident || node->name != var ||
      names.empty()) {
    return false;
  }
  attribute = names.back();  // chain collected outside-in
  tail.assign(names.rbegin() + 1, names.rend());
  return true;
}

/// Mediator chain -> source DocPath through the extent's map. Fails
/// (nullopt) when the mapped source path has a wildcard and the chain
/// keeps descending: the mediator would apply the tail to the List the
/// wildcard produced (a type error), while DocPath would skip below the
/// wildcard — refusing keeps pushed and residual evaluation in
/// agreement.
std::optional<DocPath> source_path_for(const std::string& attribute,
                                       const std::vector<std::string>& tail,
                                       const ExtentBinding& binding) {
  DocPath mapped =
      DocPath::parse(binding.map->to_source_attribute(attribute));
  if (mapped.has_wildcard() && !tail.empty()) return std::nullopt;
  return mapped.with_fields(tail);
}

/// Flattens an equality-only conjunction into source-side path
/// equalities; fails on anything else (the grammar should have filtered
/// those out, but §2.1 has the wrapper re-check at run time).
bool collect_path_equalities(const oql::ExprPtr& pred, const std::string& var,
                             const ExtentBinding& binding,
                             std::vector<PathEquality>& out) {
  using oql::BinaryOp;
  using oql::ExprKind;
  if (pred->kind != ExprKind::Binary) return false;
  if (pred->binary_op == BinaryOp::And) {
    return collect_path_equalities(pred->left, var, binding, out) &&
           collect_path_equalities(pred->right, var, binding, out);
  }
  if (pred->binary_op != BinaryOp::Eq) return false;
  const oql::ExprPtr* chain = nullptr;
  const oql::ExprPtr* literal = nullptr;
  if (pred->left->kind == ExprKind::Path &&
      pred->right->kind == ExprKind::Literal) {
    chain = &pred->left;
    literal = &pred->right;
  } else if (pred->right->kind == ExprKind::Path &&
             pred->left->kind == ExprKind::Literal) {
    chain = &pred->right;
    literal = &pred->left;
  } else {
    return false;
  }
  std::string attribute;
  std::vector<std::string> tail;
  if (!split_chain(*chain, var, attribute, tail)) return false;
  std::optional<DocPath> path = source_path_for(attribute, tail, binding);
  if (!path.has_value()) return false;
  out.push_back(PathEquality{*std::move(path), (*literal)->literal});
  return true;
}

/// The flattened mediator row for one document: the map's field pairs
/// evaluated in order (so the row's struct field order is the map order,
/// stable for Value::compare), or the whole document under an identity
/// map.
Value row_for(const Value& doc,
              const std::vector<std::pair<std::string, DocPath>>& row_paths) {
  if (row_paths.empty()) return doc;
  std::vector<std::pair<std::string, Value>> fields;
  fields.reserve(row_paths.size());
  for (const auto& [mediator, path] : row_paths) {
    fields.emplace_back(mediator, path.eval(doc));
  }
  return Value::strct(std::move(fields));
}

}  // namespace

DocWrapper::DocWrapper()
    // Path projection and path-equality selection, composable: PATH
    // subsumes flat ATTRIBUTE tokens and PATHEQPREDICATE subsumes flat
    // EQPREDICATE tokens, so the same grammar serves mapped (flat) and
    // identity (nested) extents. Range predicates (PATHPREDICATE /
    // PREDICATE tokens) and joins are not advertised: they stay
    // mediator-side.
    : grammar_(grammar::Grammar::parse(
          "a :- b\n"
          "a :- c\n"
          "a :- d\n"
          "b :- get OPEN SOURCE CLOSE\n"
          "c :- select OPEN PATHEQPREDICATE COMMA s CLOSE\n"
          "d :- project OPEN PATH COMMA s CLOSE\n"
          "s :- SOURCE\n"
          "s :- c\n")) {}

void DocWrapper::attach_store(const std::string& repository_name,
                              docstore::DocStore* store) {
  internal_check(store != nullptr, "null doc store");
  stores_[repository_name] = store;
}

void DocWrapper::set_grammar(grammar::Grammar grammar) {
  grammar_ = std::move(grammar);
}

grammar::Grammar DocWrapper::capabilities() const { return grammar_; }

SubmitResult DocWrapper::submit(const catalog::Repository& repository,
                                const algebra::LogicalPtr& expr,
                                const BindingMap& bindings) {
  auto store_it = stores_.find(repository.name);
  if (store_it == stores_.end()) {
    throw CatalogError("doc wrapper has no store for repository '" +
                       repository.name + "'");
  }
  docstore::DocStore& store = *store_it->second;
  // Run-time capability check (§2.1: "At run-time, the wrapper checks").
  if (!grammar_.accepts(expr)) {
    return SubmitResult::refused(
        "expression rejected by the docstore capability grammar: " +
        algebra::to_algebra_string(expr));
  }

  // Destructure project?(select*(get)).
  LogicalPtr body = expr;
  oql::ExprPtr projection;
  if (body->op == LOp::Project) {
    if (body->distinct) {
      return SubmitResult::refused("distinct is evaluated mediator-side");
    }
    projection = body->projection;
    body = body->child;
  }
  std::vector<oql::ExprPtr> predicates;
  while (body->op == LOp::Filter) {
    predicates.push_back(body->predicate);
    body = body->child;
  }
  if (body->op != LOp::Get) {
    return SubmitResult::refused(
        "doc sources accept get / select(get) / project(...) shapes");
  }
  const algebra::Logical& get_node = *body;

  auto binding_it = bindings.find(get_node.extent);
  if (binding_it == bindings.end()) {
    throw InternalError("missing binding for extent '" + get_node.extent +
                        "'");
  }
  const ExtentBinding& binding = binding_it->second;
  if (!store.has_collection(binding.source_relation)) {
    return SubmitResult::refused("store '" + repository.name +
                                 "' has no collection '" +
                                 binding.source_relation + "'");
  }
  const docstore::DocCollection& collection =
      store.collection(binding.source_relation);

  std::vector<PathEquality> equalities;
  for (const oql::ExprPtr& predicate : predicates) {
    if (!collect_path_equalities(predicate, get_node.var, binding,
                                 equalities)) {
      return SubmitResult::refused(
          "doc predicate must be a conjunction of path = literal "
          "comparisons: " +
          oql::to_oql(predicate));
    }
  }

  // Access path: probe the first indexed equality (find_equal falls back
  // to a counted scan when no index or indexes are disabled); a pure get
  // scans. Remaining equalities re-check every candidate — including the
  // probed one, which also revalidates index answers in forced-scan
  // differentials.
  size_t docs_examined = 0;
  size_t index_probes = 0;
  std::vector<const Value*> candidates;
  const std::vector<Value>& docs = collection.docs();
  if (equalities.empty()) {
    for (const Value& doc : collection.scan()) candidates.push_back(&doc);
    docs_examined = docs.size();
  } else {
    size_t probe = 0;
    for (size_t i = 0; i < equalities.size(); ++i) {
      if (collection.has_index(equalities[i].path.to_text())) {
        probe = i;
        break;
      }
    }
    bool used_index = false;
    std::vector<size_t> positions = collection.find_equal(
        equalities[probe].path, equalities[probe].value, &used_index,
        &docs_examined);
    if (used_index) index_probes = 1;
    for (size_t position : positions) candidates.push_back(&docs[position]);
  }
  std::erase_if(candidates, [&](const Value* doc) {
    for (const PathEquality& equality : equalities) {
      if (Value::compare(equality.path.eval(*doc), equality.value) != 0) {
        return true;
      }
    }
    return false;
  });

  // Row flattening through the map, then the projection (if any) over
  // the *row* — plain field descent with the mediator's own lenient
  // rules, so pushed projections agree with mediator-side evaluation by
  // construction.
  std::vector<std::pair<std::string, DocPath>> row_paths;
  row_paths.reserve(binding.map->fields().size());
  for (const auto& [source, mediator] : binding.map->fields()) {
    row_paths.emplace_back(mediator, DocPath::parse(source));
  }

  std::vector<Value> items;
  items.reserve(candidates.size());
  if (projection == nullptr) {
    for (const Value* doc : candidates) {
      items.push_back(
          Value::strct({{get_node.var, row_for(*doc, row_paths)}}));
    }
  } else {
    // Path chain -> single value; struct(f: chain, ...) -> struct. The
    // grammar admits nothing else, but re-check for direct submits.
    auto chain_path = [&](const oql::ExprPtr& chain)
        -> std::optional<DocPath> {
      std::string attribute;
      std::vector<std::string> tail;
      if (!split_chain(chain, get_node.var, attribute, tail)) {
        return std::nullopt;
      }
      std::vector<std::string> fields;
      fields.push_back(attribute);
      fields.insert(fields.end(), tail.begin(), tail.end());
      return DocPath().with_fields(fields);
    };
    std::vector<std::pair<std::string, DocPath>> outputs;  // name="" = bare
    if (projection->kind == oql::ExprKind::Path) {
      std::optional<DocPath> path = chain_path(projection);
      if (!path.has_value()) {
        return SubmitResult::refused("doc projection must be a path chain: " +
                                     oql::to_oql(projection));
      }
      outputs.emplace_back("", *std::move(path));
    } else if (projection->kind == oql::ExprKind::StructCtor) {
      for (const auto& [name, field] : projection->struct_fields) {
        std::optional<DocPath> path = chain_path(field);
        if (!path.has_value()) {
          return SubmitResult::refused("doc projection field '" + name +
                                       "' must be a path chain: " +
                                       oql::to_oql(field));
        }
        outputs.emplace_back(name, *std::move(path));
      }
    } else {
      return SubmitResult::refused("doc projection must be a path chain or "
                                   "struct of path chains: " +
                                   oql::to_oql(projection));
    }
    for (const Value* doc : candidates) {
      Value row = row_for(*doc, row_paths);
      if (outputs.size() == 1 && outputs.front().first.empty()) {
        items.push_back(outputs.front().second.eval(row));
      } else {
        std::vector<std::pair<std::string, Value>> fields;
        fields.reserve(outputs.size());
        for (const auto& [name, path] : outputs) {
          fields.emplace_back(name, path.eval(row));
        }
        items.push_back(Value::strct(std::move(fields)));
      }
    }
  }

  SubmitResult out = SubmitResult::ok(Value::bag(std::move(items)));
  if (cost_model_.enabled) {
    out.compute_s = cost_model_.base_s +
                    cost_model_.per_doc_scanned_s * double(docs_examined) +
                    cost_model_.per_index_probe_s * double(index_probes);
  }
  return out;
}

std::vector<std::pair<std::string, uint64_t>> DocWrapper::stat_gauges()
    const {
  docstore::DocStore::Stats total;
  std::set<const docstore::DocStore*> seen;
  for (const auto& [repository, store] : stores_) {
    if (!seen.insert(store).second) continue;  // one store, many repos
    docstore::DocStore::Stats s = store->stats();
    total.scans += s.scans;
    total.docs_scanned += s.docs_scanned;
    total.index_probes += s.index_probes;
    total.index_hits += s.index_hits;
    total.documents += s.documents;
  }
  return {{"docstore.scans", total.scans},
          {"docstore.docs_scanned", total.docs_scanned},
          {"docstore.index_probes", total.index_probes},
          {"docstore.index_hits", total.index_hits},
          {"docstore.documents", total.documents}};
}

}  // namespace disco::wrapper
