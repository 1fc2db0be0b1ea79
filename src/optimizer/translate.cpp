#include "optimizer/translate.hpp"

#include <optional>
#include <set>

#include "common/error.hpp"
#include "oql/eval.hpp"
#include "oql/printer.hpp"

namespace disco::optimizer {

namespace {

using algebra::LogicalPtr;
using catalog::Catalog;
using catalog::MetaExtent;

/// One alternative data source for a from-binding.
struct DomainSource {
  const MetaExtent* extent = nullptr;  ///< null for constant domains
  Value constant;                      ///< raw collection when constant
};

/// The type whose closure `name*` denotes: a type name directly, or the
/// type owning `name` as its implicit extent (§2.2.1 uses the extent
/// form, person*).
std::string closure_type(const std::string& name, const Catalog& catalog) {
  if (catalog.types().contains(name)) return name;
  if (const InterfaceType* type =
          catalog.types().type_for_implicit_extent(name)) {
    return type->name;
  }
  throw CatalogError("'" + name +
                     "*' does not name a type or an implicit extent");
}

/// Resolves a from-domain into its source alternatives. nullopt means the
/// domain is not extent-like and forces local mode.
std::optional<std::vector<DomainSource>> resolve_domain(
    const oql::ExprPtr& domain, const Catalog& catalog) {
  switch (domain->kind) {
    case oql::ExprKind::Ident: {
      const std::string& name = domain->name;
      switch (catalog.classify(name)) {
        case Catalog::NameKind::Extent:
          return std::vector<DomainSource>{
              DomainSource{&catalog.extent(name), Value()}};
        case Catalog::NameKind::ImplicitExtent: {
          const InterfaceType* type =
              catalog.types().type_for_implicit_extent(name);
          std::vector<DomainSource> out;
          for (const MetaExtent* extent :
               catalog.extents_of_type(type->name)) {
            out.push_back(DomainSource{extent, Value()});
          }
          return out;
        }
        case Catalog::NameKind::MetaExtentTable:
          return std::vector<DomainSource>{
              DomainSource{nullptr, catalog.metaextent_rows()}};
        case Catalog::NameKind::View:
          throw InternalError("view '" + name +
                              "' survived view expansion");
        case Catalog::NameKind::Unknown:
          throw CatalogError("unknown collection '" + name + "'");
      }
      return std::nullopt;
    }
    case oql::ExprKind::ExtentClosure: {
      std::vector<DomainSource> out;
      for (const MetaExtent* extent : catalog.extents_of_closure(
               closure_type(domain->name, catalog))) {
        out.push_back(DomainSource{extent, Value()});
      }
      return out;
    }
    case oql::ExprKind::Call: {
      if (domain->name != "union") break;
      std::vector<DomainSource> out;
      for (const oql::ExprPtr& arg : domain->args) {
        auto part = resolve_domain(arg, catalog);
        if (!part.has_value()) return std::nullopt;
        out.insert(out.end(), part->begin(), part->end());
      }
      return out;
    }
    default:
      break;
  }
  if (oql::is_constant(domain)) {
    Value v = oql::Evaluator().eval(domain);
    if (!v.is_collection()) {
      throw ExecutionError("from-domain is not a collection: " +
                           oql::to_oql(domain));
    }
    return std::vector<DomainSource>{DomainSource{nullptr, std::move(v)}};
  }
  return std::nullopt;
}

/// Wraps a raw collection into environment shape for variable `var`.
Value env_wrap(const Value& collection, const std::string& var) {
  std::vector<Value> items;
  items.reserve(collection.size());
  for (const Value& item : collection.items()) {
    items.push_back(Value::strct({{var, item}}));
  }
  return Value::bag(std::move(items));
}

/// Collects extent-like names referenced by `expr` outside the bound
/// variables — these become auxiliary collections.
void collect_refs(const oql::ExprPtr& expr, std::set<std::string>& bound,
                  std::set<std::string>& idents,
                  std::set<std::string>& closures) {
  if (expr == nullptr) return;
  switch (expr->kind) {
    case oql::ExprKind::Literal:
      return;
    case oql::ExprKind::Ident:
      if (!bound.contains(expr->name)) idents.insert(expr->name);
      return;
    case oql::ExprKind::ExtentClosure:
      closures.insert(expr->name);
      return;
    case oql::ExprKind::Path:
    case oql::ExprKind::Unary:
      collect_refs(expr->child, bound, idents, closures);
      return;
    case oql::ExprKind::Binary:
      collect_refs(expr->left, bound, idents, closures);
      collect_refs(expr->right, bound, idents, closures);
      return;
    case oql::ExprKind::Call:
      for (const oql::ExprPtr& arg : expr->args) {
        collect_refs(arg, bound, idents, closures);
      }
      return;
    case oql::ExprKind::StructCtor:
      for (const auto& [name, value] : expr->struct_fields) {
        collect_refs(value, bound, idents, closures);
      }
      return;
    case oql::ExprKind::Select: {
      std::vector<std::string> newly_bound;
      for (const oql::Binding& binding : expr->from) {
        collect_refs(binding.domain, bound, idents, closures);
        if (bound.insert(binding.var).second) {
          newly_bound.push_back(binding.var);
        }
      }
      collect_refs(expr->projection, bound, idents, closures);
      collect_refs(expr->where, bound, idents, closures);
      for (const std::string& var : newly_bound) bound.erase(var);
      return;
    }
  }
}

class Translator {
 public:
  Translator(const Catalog& catalog, size_t max_branches)
      : catalog_(catalog), max_branches_(max_branches) {}

  /// `expanded`: the caller expanded the query's views already.
  TranslationUnit run(const oql::ExprPtr& query, bool expanded) {
    TranslationUnit out;
    prune_.extents_total = catalog_.extent_count();
    out.expanded = expanded ? query : expand_views(query, catalog_);
    if (LogicalPtr plan = try_plan(out.expanded)) {
      out.plan = std::move(plan);
    } else {
      out.local = out.expanded;
      register_aux_for(out.expanded, /*domains_too=*/true);
    }
    out.aux = std::move(aux_);
    out.aux_closures = std::move(aux_closures_);
    out.prune = prune_;
    return out;
  }

 private:
  /// Returns null when `expr` needs local mode.
  LogicalPtr try_plan(const oql::ExprPtr& expr) {
    if (expr->kind == oql::ExprKind::Select) {
      return try_plan_select(expr);
    }
    if (expr->kind == oql::ExprKind::Call && expr->name == "union") {
      std::vector<LogicalPtr> children;
      for (const oql::ExprPtr& arg : expr->args) {
        if (arg->kind == oql::ExprKind::Select) {
          LogicalPtr child = try_plan_select(arg);
          if (child == nullptr) return nullptr;
          children.push_back(std::move(child));
        } else if (oql::is_constant(arg)) {
          children.push_back(
              algebra::constant(oql::Evaluator().eval(arg)));
        } else {
          return nullptr;
        }
      }
      return algebra::union_of(std::move(children));
    }
    if (oql::is_constant(expr)) {
      Value v = oql::Evaluator().eval(expr);
      if (v.is_collection()) return algebra::constant(std::move(v));
      // Scalar constants evaluate locally (answers stay collections only
      // for collection-valued queries).
      return nullptr;
    }
    return nullptr;
  }

  LogicalPtr try_plan_select(const oql::ExprPtr& expr) {
    std::vector<std::vector<DomainSource>> alternatives;
    for (const oql::Binding& binding : expr->from) {
      auto sources = resolve_domain(binding.domain, catalog_);
      if (!sources.has_value()) return nullptr;  // local mode
      // Pruning accounting: a binding over an implicit extent or a
      // closure considered only the type-matching extents — everything
      // else in the catalog was pruned by the interface index.
      size_t matched = 0;
      for (const DomainSource& source : *sources) {
        if (source.extent != nullptr) ++matched;
      }
      prune_.extents_considered += matched;
      const bool type_indexed =
          (binding.domain->kind == oql::ExprKind::Ident &&
           catalog_.classify(binding.domain->name) ==
               Catalog::NameKind::ImplicitExtent) ||
          binding.domain->kind == oql::ExprKind::ExtentClosure;
      if (type_indexed) {
        prune_.pruned_by_type += catalog_.extent_count() - matched;
      }
      alternatives.push_back(std::move(*sources));
    }

    // Nested subqueries inside projection / where need their extents
    // materialized as auxiliary collections.
    {
      std::set<std::string> bound;
      for (const oql::Binding& binding : expr->from) {
        bound.insert(binding.var);
      }
      std::set<std::string> idents;
      std::set<std::string> closures;
      collect_refs(expr->projection, bound, idents, closures);
      collect_refs(expr->where, bound, idents, closures);
      for (const std::string& name : idents) register_aux(name);
      for (const std::string& name : closures) register_aux_closure(name);
    }

    // A binding over a type with zero registered extents ranges over
    // nothing: the whole select is empty.
    size_t product = 1;
    for (const auto& sources : alternatives) {
      if (sources.empty()) return algebra::constant(Value::bag({}));
      product *= sources.size();
      if (product > max_branches_) {
        throw ExecutionError(
            "query distributes over " + std::to_string(product) +
            "+ source combinations (limit " +
            std::to_string(max_branches_) +
            "); rewrite with explicit extents");
      }
    }

    // One branch per combination of per-binding sources (§3.2).
    std::vector<LogicalPtr> branches;
    branches.reserve(product);
    std::vector<size_t> pick(alternatives.size(), 0);
    while (true) {
      LogicalPtr tree;
      for (size_t b = 0; b < alternatives.size(); ++b) {
        const DomainSource& source = alternatives[b][pick[b]];
        const std::string& var = expr->from[b].var;
        LogicalPtr leaf;
        if (source.extent != nullptr) {
          leaf = algebra::submit(
              source.extent->repository,
              algebra::get(source.extent->name, var));
        } else {
          leaf = algebra::constant(env_wrap(source.constant, var));
        }
        tree = tree == nullptr
                   ? std::move(leaf)
                   : algebra::join(std::move(tree), std::move(leaf),
                                   nullptr);
      }
      if (expr->where != nullptr) {
        tree = algebra::filter(std::move(tree), expr->where);
      }
      branches.push_back(algebra::project(std::move(tree),
                                          expr->projection,
                                          expr->distinct));
      // Advance the odometer.
      size_t b = 0;
      while (b < alternatives.size() &&
             ++pick[b] == alternatives[b].size()) {
        pick[b] = 0;
        ++b;
      }
      if (b == alternatives.size()) break;
    }
    return algebra::union_of(std::move(branches));
  }

  void register_aux_for(const oql::ExprPtr& expr, bool domains_too) {
    (void)domains_too;
    std::set<std::string> bound;
    std::set<std::string> idents;
    std::set<std::string> closures;
    collect_refs(expr, bound, idents, closures);
    for (const std::string& name : idents) register_aux(name);
    for (const std::string& name : closures) register_aux_closure(name);
  }

  void register_aux(const std::string& name) {
    for (const auto& [existing, plan] : aux_) {
      if (existing == name) return;
    }
    switch (catalog_.classify(name)) {
      case Catalog::NameKind::Extent:
      case Catalog::NameKind::ImplicitExtent:
        aux_.emplace_back(name, fetch_plan(name, catalog_, false));
        return;
      case Catalog::NameKind::MetaExtentTable:
        aux_.emplace_back(name,
                          algebra::constant(catalog_.metaextent_rows()));
        return;
      case Catalog::NameKind::View:
        throw InternalError("view '" + name + "' survived expansion");
      case Catalog::NameKind::Unknown:
        throw CatalogError("unknown collection '" + name + "'");
    }
  }

  void register_aux_closure(const std::string& name) {
    for (const auto& [existing, plan] : aux_closures_) {
      if (existing == name) return;
    }
    aux_closures_.emplace_back(name, fetch_plan(name, catalog_, true));
  }

  const Catalog& catalog_;
  size_t max_branches_;
  PruneStats prune_;
  std::vector<std::pair<std::string, LogicalPtr>> aux_;
  std::vector<std::pair<std::string, LogicalPtr>> aux_closures_;
};

}  // namespace

oql::ExprPtr expand_views(const oql::ExprPtr& query,
                          const catalog::Catalog& catalog) {
  oql::ExprPtr current = query;
  // Cycles are rejected at define_view time; each pass strictly reduces
  // the set of unexpanded views, but cap the depth defensively.
  for (int depth = 0; depth < 64; ++depth) {
    std::unordered_map<std::string, oql::ExprPtr> map;
    for (const std::string& name : oql::free_names(current)) {
      if (catalog.has_view(name)) {
        map.emplace(name, catalog.view(name));
      }
    }
    if (map.empty()) return current;
    current = oql::substitute(current, map);
  }
  throw InternalError("view expansion did not terminate");
}

algebra::LogicalPtr fetch_plan(const std::string& name,
                               const catalog::Catalog& catalog,
                               bool closure) {
  std::vector<const catalog::MetaExtent*> sources;
  if (closure) {
    sources = catalog.extents_of_closure(closure_type(name, catalog));
  } else {
    switch (catalog.classify(name)) {
      case catalog::Catalog::NameKind::Extent:
        sources.push_back(&catalog.extent(name));
        break;
      case catalog::Catalog::NameKind::ImplicitExtent:
        sources = catalog.extents_of_type(
            catalog.types().type_for_implicit_extent(name)->name);
        break;
      default:
        throw CatalogError("'" + name + "' is not an extent");
    }
  }
  if (sources.empty()) {
    return algebra::constant(Value::bag({}));
  }
  std::vector<algebra::LogicalPtr> branches;
  branches.reserve(sources.size());
  for (const catalog::MetaExtent* extent : sources) {
    branches.push_back(algebra::project(
        algebra::submit(extent->repository,
                        algebra::get(extent->name, "x")),
        oql::ident("x"), false));
  }
  return algebra::union_of(std::move(branches));
}

TranslationUnit translate(const oql::ExprPtr& query,
                          const catalog::Catalog& catalog,
                          size_t max_branches) {
  internal_check(query != nullptr, "cannot translate a null query");
  return Translator(catalog, max_branches).run(query, /*expanded=*/false);
}

TranslationUnit translate_expanded(const oql::ExprPtr& expanded,
                                   const catalog::Catalog& catalog,
                                   size_t max_branches) {
  internal_check(expanded != nullptr, "cannot translate a null query");
  return Translator(catalog, max_branches).run(expanded, /*expanded=*/true);
}

}  // namespace disco::optimizer
