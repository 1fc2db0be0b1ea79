#include "fedcat/boundary.hpp"

#include "common/error.hpp"
#include "oql/printer.hpp"

namespace disco::fedcat {

namespace {

using algebra::LogicalPtr;
using algebra::LOp;

/// Rewrites var.attr paths into the remote attribute names.
class Renamer {
 public:
  explicit Renamer(const wrapper::BindingMap& bindings)
      : bindings_(bindings) {}

  LogicalPtr rename(const LogicalPtr& node) {
    switch (node->op) {
      case LOp::Get: {
        const wrapper::ExtentBinding& binding = binding_of(node->extent);
        var_maps_[node->var] = binding.map;
        return algebra::get(binding.source_relation, node->var);
      }
      case LOp::Filter: {
        LogicalPtr child = rename(node->child);
        return algebra::filter(child, rename_expr(node->predicate));
      }
      case LOp::Project: {
        LogicalPtr child = rename(node->child);
        return algebra::project(child, rename_expr(node->projection),
                                node->distinct);
      }
      case LOp::Join: {
        LogicalPtr left = rename(node->left);
        LogicalPtr right = rename(node->right);
        return algebra::join(left, right,
                             node->predicate == nullptr
                                 ? nullptr
                                 : rename_expr(node->predicate));
      }
      default:
        throw ExecutionError(
            std::string("operator '") + to_string(node->op) +
            "' cannot cross the mediator-wrapper boundary");
    }
  }

  std::unordered_map<std::string, const catalog::TypeMap*> take_var_maps() {
    return std::move(var_maps_);
  }

 private:
  const wrapper::ExtentBinding& binding_of(const std::string& extent) const {
    auto it = bindings_.find(extent);
    if (it == bindings_.end()) {
      throw InternalError("missing binding for extent '" + extent + "'");
    }
    return it->second;
  }

  oql::ExprPtr rename_expr(const oql::ExprPtr& expr) {
    using oql::ExprKind;
    switch (expr->kind) {
      case ExprKind::Literal:
      case ExprKind::Ident:
        return expr;
      case ExprKind::Path: {
        if (expr->child->kind == ExprKind::Ident) {
          auto it = var_maps_.find(expr->child->name);
          if (it != var_maps_.end()) {
            return oql::path(expr->child,
                             it->second->to_source_attribute(expr->name));
          }
        }
        return oql::path(rename_expr(expr->child), expr->name);
      }
      case ExprKind::Unary:
        return oql::unary(expr->unary_op, rename_expr(expr->child));
      case ExprKind::Binary:
        return oql::binary(expr->binary_op, rename_expr(expr->left),
                           rename_expr(expr->right));
      case ExprKind::StructCtor: {
        std::vector<std::pair<std::string, oql::ExprPtr>> fields;
        for (const auto& [name, value] : expr->struct_fields) {
          fields.emplace_back(name, rename_expr(value));
        }
        return oql::struct_ctor(std::move(fields));
      }
      default:
        throw ExecutionError("expression '" + oql::to_oql(expr) +
                             "' cannot cross the mediator-wrapper boundary");
    }
  }

  const wrapper::BindingMap& bindings_;
  std::unordered_map<std::string, const catalog::TypeMap*> var_maps_;
};

}  // namespace

RenamedQuery rename_for_remote(const algebra::LogicalPtr& expr,
                               const wrapper::BindingMap& bindings) {
  Renamer renamer(bindings);
  RenamedQuery out;
  out.expr = renamer.rename(expr);
  out.var_maps = renamer.take_var_maps();
  return out;
}

Value rename_rows_to_mediator(
    const Value& data,
    const std::unordered_map<std::string, const catalog::TypeMap*>&
        var_maps) {
  std::vector<Value> renamed_rows;
  renamed_rows.reserve(data.size());
  for (const Value& env : data.items()) {
    std::vector<std::pair<std::string, Value>> fields;
    for (const auto& [var, row] : env.fields()) {
      auto it = var_maps.find(var);
      internal_check(it != var_maps.end(),
                     "unknown variable in remote answer");
      fields.emplace_back(var, it->second->rename_row_to_mediator(row));
    }
    renamed_rows.push_back(Value::strct(std::move(fields)));
  }
  return Value::bag(std::move(renamed_rows));
}

}  // namespace disco::fedcat
