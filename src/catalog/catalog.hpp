// The mediator's internal database (§3: "The DISCO mediator contains an
// internal database. The internal database records information on data
// sources, types, interfaces, and views").
//
// It holds:
//   * the type registry (interfaces + subtype lattice),
//   * Repository objects — data sources are first-class objects (§2.1),
//   * MetaExtent rows — one per `extent e of T wrapper w repository r`
//     declaration, queryable through the metaextent_rows() collection
//     exactly as §2.1's MetaExtent interface promises,
//   * views (`define v as <query>`), with cycle detection ("A view can
//     reference other views, as long as the references are not cyclic",
//     §2.3).
//
// Wrapper *objects* are not stored here — the catalog records wrapper
// names; the mediator (core/) owns the name -> Wrapper binding, keeping
// this module free of execution concerns.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/type_map.hpp"
#include "oql/ast.hpp"
#include "types/type_registry.hpp"

namespace disco::catalog {

/// A Repository object (§2.1):
///   r0 := Repository(host="rodin", name="db", address="123.45.6.7")
/// `name` doubles as the network endpoint identity in the simulation.
struct Repository {
  std::string name;     ///< the variable it was bound to (r0)
  std::string host;
  std::string db_name;
  std::string address;
};

/// One row of the MetaExtent meta-type (§2.1).
struct MetaExtent {
  std::string name;        ///< extent name (person0)
  std::string interface;   ///< mediator type (Person)
  std::string wrapper;     ///< wrapper object name (w0)
  std::string repository;  ///< repository object name (r0)
  TypeMap map;             ///< local transformation map (§2.2.2)
};

struct ViewDef {
  std::string name;
  oql::ExprPtr query;
};

class Catalog {
 public:
  TypeRegistry& types() { return types_; }
  const TypeRegistry& types() const { return types_; }

  // -- repositories ----------------------------------------------------------
  void define_repository(Repository repository);
  bool has_repository(const std::string& name) const;
  const Repository& repository(const std::string& name) const;
  std::vector<std::string> repository_names() const;

  // -- extents ---------------------------------------------------------------
  /// Registers an extent; validates that the interface and repository
  /// exist and the extent name is fresh (both as extent and as implicit
  /// extent or view).
  void define_extent(MetaExtent extent);
  void drop_extent(const std::string& name);
  bool has_extent(const std::string& name) const;
  const MetaExtent& extent(const std::string& name) const;
  size_t extent_count() const { return extents_.size(); }
  /// Every registered extent name, in registration order.
  const std::vector<std::string>& extent_names() const {
    return extent_order_;
  }

  /// Extents registered for exactly `type` (§2.2.1: "the extent of a type
  /// does not automatically reference the extents of the sub-types").
  std::vector<const MetaExtent*> extents_of_type(
      const std::string& type) const;
  /// Extents of the type and all its subtypes — the `type*` closure.
  std::vector<const MetaExtent*> extents_of_closure(
      const std::string& type) const;

  /// The queryable metaextent collection (§2.1): a bag of structs with
  /// fields name, interface, wrapper, repository.
  Value metaextent_rows() const;

  // -- views -----------------------------------------------------------------
  /// Registers `define name as query`; rejects duplicates and cycles.
  void define_view(std::string name, oql::ExprPtr query);
  bool has_view(const std::string& name) const;
  const oql::ExprPtr& view(const std::string& name) const;
  std::vector<std::string> view_names() const;

  /// Resolves what a free identifier in a query means, in priority order:
  /// view, implicit extent (via its interface), registered extent,
  /// the literal `metaextent` collection.
  enum class NameKind { View, ImplicitExtent, Extent, MetaExtentTable,
                        Unknown };
  NameKind classify(const std::string& name) const;

 private:
  void check_view_acyclic(const std::string& name,
                          const oql::ExprPtr& query) const;

  TypeRegistry types_;
  std::unordered_map<std::string, Repository> repositories_;
  std::vector<std::string> repository_order_;
  std::unordered_map<std::string, MetaExtent> extents_;
  std::vector<std::string> extent_order_;
  /// Secondary index: interface name -> extent names in registration
  /// order. Makes `extents_of_type` O(matching extents) instead of a
  /// scan over every registered extent — the difference between a
  /// 10-extent world and a 10,000-extent federation.
  std::unordered_map<std::string, std::vector<std::string>>
      extents_by_interface_;
  /// Registration sequence numbers so multi-interface lookups
  /// (subtype closures) can re-establish registration order without
  /// scanning `extent_order_`.
  std::unordered_map<std::string, uint64_t> extent_seq_;
  uint64_t next_extent_seq_ = 0;
  std::unordered_map<std::string, oql::ExprPtr> views_;
  std::vector<std::string> view_order_;
};

}  // namespace disco::catalog
