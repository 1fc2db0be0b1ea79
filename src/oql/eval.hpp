// Reference OQL evaluator over materialized values.
//
// This is the mediator's expression engine: physical operators (filter,
// project) evaluate predicates/projections with it, and nested subqueries
// inside projections (§2.3's reconciliation views) are evaluated here
// with correlation through the environment.
//
// Free identifiers that are not bound variables — extents and views — are
// resolved through a CollectionResolver. The mediator runtime materializes
// every extent a query mentions (via wrappers) before evaluation and
// exposes them through the resolver; a standalone resolver-less Evaluator
// can evaluate constant expressions, which is how the answers-are-queries
// closure (§4) is tested.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>

#include "oql/ast.hpp"
#include "value/value.hpp"

namespace disco::oql {

/// Resolves free collection names (extents, views) to materialized data.
class CollectionResolver {
 public:
  virtual ~CollectionResolver() = default;
  /// nullopt when the name is unknown to this resolver.
  virtual std::optional<Value> resolve(const std::string& name) const = 0;
  /// Resolution of the DISCO closure syntax `name*`.
  virtual std::optional<Value> resolve_closure(
      const std::string& name) const {
    (void)name;
    return std::nullopt;
  }
};

/// Trivial resolver over a fixed map; used in tests and by the runtime.
class MapResolver : public CollectionResolver {
 public:
  void bind(std::string name, Value collection) {
    map_[std::move(name)] = std::move(collection);
  }
  void bind_closure(std::string name, Value collection) {
    closures_[std::move(name)] = std::move(collection);
  }
  std::optional<Value> resolve(const std::string& name) const override {
    auto it = map_.find(name);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }
  std::optional<Value> resolve_closure(
      const std::string& name) const override {
    auto it = closures_.find(name);
    if (it == closures_.end()) return std::nullopt;
    return it->second;
  }

 private:
  std::unordered_map<std::string, Value> map_;
  std::unordered_map<std::string, Value> closures_;
};

/// One path step `base.name` under the mediator's semi-structured rules:
/// nil propagates, a missing struct field reads as nil, and a step over
/// any other non-struct value throws ExecutionError. The evaluator's Path
/// case and the runtime's join keys (physical::EquiKey) both step through
/// here, so a hash-join key reads exactly what the nested loop evaluates.
const Value& path_step(const Value& base, const std::string& name);

/// Variable environment (from-clause bindings), chained for correlation.
class Env {
 public:
  Env() = default;
  explicit Env(const Env* parent) : parent_(parent) {}

  void bind(const std::string& name, Value value) {
    vars_[name] = std::move(value);
  }
  const Value* find(const std::string& name) const {
    auto it = vars_.find(name);
    if (it != vars_.end()) return &it->second;
    return parent_ != nullptr ? parent_->find(name) : nullptr;
  }

 private:
  const Env* parent_ = nullptr;
  std::unordered_map<std::string, Value> vars_;
};

class Evaluator {
 public:
  /// `resolver` may be nullptr for constant-only evaluation.
  explicit Evaluator(const CollectionResolver* resolver = nullptr)
      : resolver_(resolver) {}

  /// Evaluates `expr` under `env`. Throws ExecutionError on type misuse or
  /// unresolvable names.
  Value eval(const ExprPtr& expr, const Env& env) const;
  Value eval(const Expr& expr, const Env& env) const;

  /// Evaluates a closed expression (no free variables).
  Value eval(const ExprPtr& expr) const { return eval(expr, Env{}); }

 private:
  Value eval_select(const Expr& expr, const Env& env) const;
  Value eval_call(const Expr& expr, const Env& env) const;
  Value eval_binary(const Expr& expr, const Env& env) const;

  const CollectionResolver* resolver_;
};

}  // namespace disco::oql
