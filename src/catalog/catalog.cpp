#include "catalog/catalog.hpp"

#include <algorithm>
#include <set>

#include "common/error.hpp"

namespace disco::catalog {

void Catalog::define_repository(Repository repository) {
  if (repository.name.empty()) {
    throw CatalogError("repository needs a name");
  }
  if (repositories_.contains(repository.name)) {
    throw CatalogError("repository '" + repository.name +
                       "' is already defined");
  }
  repository_order_.push_back(repository.name);
  repositories_.emplace(repository.name, std::move(repository));
}

bool Catalog::has_repository(const std::string& name) const {
  return repositories_.contains(name);
}

const Repository& Catalog::repository(const std::string& name) const {
  auto it = repositories_.find(name);
  if (it == repositories_.end()) {
    throw CatalogError("unknown repository '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> Catalog::repository_names() const {
  return repository_order_;
}

void Catalog::define_extent(MetaExtent extent) {
  if (extent.name.empty()) throw CatalogError("extent needs a name");
  if (extents_.contains(extent.name)) {
    throw CatalogError("extent '" + extent.name + "' is already defined");
  }
  if (views_.contains(extent.name)) {
    throw CatalogError("extent '" + extent.name + "' collides with a view");
  }
  if (types_.type_for_implicit_extent(extent.name) != nullptr) {
    throw CatalogError("extent '" + extent.name +
                       "' collides with an implicit extent");
  }
  types_.get(extent.interface);  // must exist
  if (!has_repository(extent.repository)) {
    throw CatalogError("extent '" + extent.name +
                       "' references unknown repository '" +
                       extent.repository + "'");
  }
  if (extent.wrapper.empty()) {
    throw CatalogError("extent '" + extent.name + "' needs a wrapper");
  }
  extent_order_.push_back(extent.name);
  extents_by_interface_[extent.interface].push_back(extent.name);
  extent_seq_[extent.name] = next_extent_seq_++;
  extents_.emplace(extent.name, std::move(extent));
}

void Catalog::drop_extent(const std::string& name) {
  auto it = extents_.find(name);
  if (it == extents_.end()) {
    throw CatalogError("cannot drop unknown extent '" + name + "'");
  }
  auto by_interface = extents_by_interface_.find(it->second.interface);
  if (by_interface != extents_by_interface_.end()) {
    std::erase(by_interface->second, name);
    if (by_interface->second.empty()) {
      extents_by_interface_.erase(by_interface);
    }
  }
  extent_seq_.erase(name);
  extents_.erase(it);
  std::erase(extent_order_, name);
}

bool Catalog::has_extent(const std::string& name) const {
  return extents_.contains(name);
}

const MetaExtent& Catalog::extent(const std::string& name) const {
  auto it = extents_.find(name);
  if (it == extents_.end()) {
    throw CatalogError("unknown extent '" + name + "'");
  }
  return it->second;
}

std::vector<const MetaExtent*> Catalog::extents_of_type(
    const std::string& type) const {
  std::vector<const MetaExtent*> out;
  auto it = extents_by_interface_.find(type);
  if (it == extents_by_interface_.end()) return out;
  out.reserve(it->second.size());
  for (const std::string& name : it->second) {
    out.push_back(&extents_.at(name));
  }
  return out;
}

std::vector<const MetaExtent*> Catalog::extents_of_closure(
    const std::string& type) const {
  // Gather per-interface (indexed), then restore registration order
  // via sequence numbers — matching extents only, never a full scan.
  std::vector<const MetaExtent*> out;
  for (const std::string& sub : types_.with_subtypes(type)) {
    auto it = extents_by_interface_.find(sub);
    if (it == extents_by_interface_.end()) continue;
    for (const std::string& name : it->second) {
      out.push_back(&extents_.at(name));
    }
  }
  std::sort(out.begin(), out.end(),
            [this](const MetaExtent* a, const MetaExtent* b) {
              return extent_seq_.at(a->name) < extent_seq_.at(b->name);
            });
  return out;
}

Value Catalog::metaextent_rows() const {
  std::vector<Value> rows;
  rows.reserve(extent_order_.size());
  for (const std::string& name : extent_order_) {
    const MetaExtent& extent = extents_.at(name);
    rows.push_back(Value::strct({
        {"name", Value::string(extent.name)},
        {"interface", Value::string(extent.interface)},
        {"wrapper", Value::string(extent.wrapper)},
        {"repository", Value::string(extent.repository)},
        {"map", Value::string(extent.map.to_odl(extent.name))},
    }));
  }
  return Value::bag(std::move(rows));
}

void Catalog::define_view(std::string name, oql::ExprPtr query) {
  if (name.empty() || query == nullptr) {
    throw CatalogError("view needs a name and a query");
  }
  if (views_.contains(name)) {
    throw CatalogError("view '" + name + "' is already defined");
  }
  if (extents_.contains(name) ||
      types_.type_for_implicit_extent(name) != nullptr) {
    throw CatalogError("view '" + name + "' collides with an extent");
  }
  check_view_acyclic(name, query);
  view_order_.push_back(name);
  views_.emplace(std::move(name), std::move(query));
}

bool Catalog::has_view(const std::string& name) const {
  return views_.contains(name);
}

const oql::ExprPtr& Catalog::view(const std::string& name) const {
  auto it = views_.find(name);
  if (it == views_.end()) {
    throw CatalogError("unknown view '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> Catalog::view_names() const { return view_order_; }

void Catalog::check_view_acyclic(const std::string& name,
                                 const oql::ExprPtr& query) const {
  // Follow view references from `query`; reaching `name` is a cycle.
  std::set<std::string> visited;
  std::vector<std::string> frontier;
  for (const std::string& free : oql::free_names(query)) {
    frontier.push_back(free);
  }
  while (!frontier.empty()) {
    std::string current = frontier.back();
    frontier.pop_back();
    if (current == name) {
      throw CatalogError("view '" + name + "' would be cyclic");
    }
    if (!visited.insert(current).second) continue;
    auto it = views_.find(current);
    if (it == views_.end()) continue;
    for (const std::string& free : oql::free_names(it->second)) {
      frontier.push_back(free);
    }
  }
}

Catalog::NameKind Catalog::classify(const std::string& name) const {
  if (views_.contains(name)) return NameKind::View;
  if (types_.type_for_implicit_extent(name) != nullptr) {
    return NameKind::ImplicitExtent;
  }
  if (extents_.contains(name)) return NameKind::Extent;
  if (name == "metaextent") return NameKind::MetaExtentTable;
  return NameKind::Unknown;
}

}  // namespace disco::catalog
