#include "oql/ast.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "oql/printer.hpp"

namespace disco::oql {

const char* to_string(UnaryOp op) {
  switch (op) {
    case UnaryOp::Neg:
      return "-";
    case UnaryOp::Not:
      return "not";
  }
  return "?";
}

const char* to_string(BinaryOp op) {
  switch (op) {
    case BinaryOp::Add:
      return "+";
    case BinaryOp::Sub:
      return "-";
    case BinaryOp::Mul:
      return "*";
    case BinaryOp::Div:
      return "/";
    case BinaryOp::Mod:
      return "mod";
    case BinaryOp::Eq:
      return "=";
    case BinaryOp::Ne:
      return "!=";
    case BinaryOp::Lt:
      return "<";
    case BinaryOp::Le:
      return "<=";
    case BinaryOp::Gt:
      return ">";
    case BinaryOp::Ge:
      return ">=";
    case BinaryOp::And:
      return "and";
    case BinaryOp::Or:
      return "or";
  }
  return "?";
}

namespace {

uint32_t depth_of(const ExprPtr& e) { return e != nullptr ? e->depth : 0; }

}  // namespace

ExprPtr literal(Value v) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::Literal;
  e->literal = std::move(v);
  return e;
}

ExprPtr ident(std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::Ident;
  e->name = std::move(name);
  return e;
}

ExprPtr extent_closure(std::string type_or_extent_name) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::ExtentClosure;
  e->name = std::move(type_or_extent_name);
  return e;
}

ExprPtr path(ExprPtr base, std::string field) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::Path;
  e->child = std::move(base);
  e->name = std::move(field);
  e->depth = depth_of(e->child) + 1;
  return e;
}

ExprPtr unary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::Unary;
  e->unary_op = op;
  e->child = std::move(operand);
  e->depth = depth_of(e->child) + 1;
  return e;
}

ExprPtr binary(BinaryOp op, ExprPtr left, ExprPtr right) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::Binary;
  e->binary_op = op;
  e->left = std::move(left);
  e->right = std::move(right);
  e->depth = std::max(depth_of(e->left), depth_of(e->right)) + 1;
  return e;
}

ExprPtr call(std::string function, std::vector<ExprPtr> args) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::Call;
  e->name = std::move(function);
  e->args = std::move(args);
  for (const ExprPtr& arg : e->args) {
    e->depth = std::max(e->depth, depth_of(arg) + 1);
  }
  return e;
}

ExprPtr struct_ctor(std::vector<std::pair<std::string, ExprPtr>> fields) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::StructCtor;
  e->struct_fields = std::move(fields);
  for (const auto& [name, value] : e->struct_fields) {
    e->depth = std::max(e->depth, depth_of(value) + 1);
  }
  return e;
}

ExprPtr select(bool distinct, ExprPtr projection, std::vector<Binding> from,
               ExprPtr where) {
  internal_check(projection != nullptr, "select requires a projection");
  internal_check(!from.empty(), "select requires at least one binding");
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::Select;
  e->distinct = distinct;
  e->projection = std::move(projection);
  e->from = std::move(from);
  e->where = std::move(where);
  e->depth = std::max(depth_of(e->projection), depth_of(e->where)) + 1;
  for (const Binding& binding : e->from) {
    e->depth = std::max(e->depth, depth_of(binding.domain) + 1);
  }
  return e;
}

ExprPtr conjoin(const std::vector<ExprPtr>& parts) {
  ExprPtr result;
  for (const ExprPtr& part : parts) {
    if (part == nullptr) continue;
    result = result == nullptr ? part : binary(BinaryOp::And, result, part);
  }
  return result;
}

std::vector<ExprPtr> split_conjuncts(const ExprPtr& predicate) {
  std::vector<ExprPtr> out;
  if (predicate == nullptr) return out;
  if (predicate->kind == ExprKind::Binary &&
      predicate->binary_op == BinaryOp::And) {
    auto left = split_conjuncts(predicate->left);
    auto right = split_conjuncts(predicate->right);
    out.insert(out.end(), left.begin(), left.end());
    out.insert(out.end(), right.begin(), right.end());
    return out;
  }
  out.push_back(predicate);
  return out;
}

bool equal(const ExprPtr& a, const ExprPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  return to_oql(a) == to_oql(b);
}

namespace {

void collect_free(const ExprPtr& expr, std::set<std::string>& bound,
                  std::set<std::string>& out) {
  if (expr == nullptr) return;
  switch (expr->kind) {
    case ExprKind::Literal:
      return;
    case ExprKind::Ident:
    case ExprKind::ExtentClosure:
      if (!bound.contains(expr->name)) out.insert(expr->name);
      return;
    case ExprKind::Path:
      collect_free(expr->child, bound, out);
      return;
    case ExprKind::Unary:
      collect_free(expr->child, bound, out);
      return;
    case ExprKind::Binary:
      collect_free(expr->left, bound, out);
      collect_free(expr->right, bound, out);
      return;
    case ExprKind::Call:
      for (const ExprPtr& arg : expr->args) collect_free(arg, bound, out);
      return;
    case ExprKind::StructCtor:
      for (const auto& [name, value] : expr->struct_fields) {
        collect_free(value, bound, out);
      }
      return;
    case ExprKind::Select: {
      std::vector<std::string> newly_bound;
      for (const Binding& binding : expr->from) {
        collect_free(binding.domain, bound, out);
        if (bound.insert(binding.var).second) {
          newly_bound.push_back(binding.var);
        }
      }
      collect_free(expr->projection, bound, out);
      collect_free(expr->where, bound, out);
      for (const std::string& var : newly_bound) bound.erase(var);
      return;
    }
  }
}

}  // namespace

std::set<std::string> free_names(const ExprPtr& expr) {
  std::set<std::string> bound;
  std::set<std::string> out;
  collect_free(expr, bound, out);
  return out;
}

ExprPtr substitute(const ExprPtr& expr,
                   const std::unordered_map<std::string, ExprPtr>& map) {
  if (expr == nullptr || map.empty()) return expr;
  switch (expr->kind) {
    case ExprKind::Literal:
      return expr;
    case ExprKind::Ident: {
      auto it = map.find(expr->name);
      return it == map.end() ? expr : it->second;
    }
    case ExprKind::ExtentClosure:
      // Closure names denote types/extents, never variables; a view or
      // parameter cannot be referenced through `*`, so leave untouched.
      return expr;
    case ExprKind::Path: {
      ExprPtr base = substitute(expr->child, map);
      return base == expr->child ? expr : path(base, expr->name);
    }
    case ExprKind::Unary: {
      ExprPtr operand = substitute(expr->child, map);
      return operand == expr->child ? expr : unary(expr->unary_op, operand);
    }
    case ExprKind::Binary: {
      ExprPtr l = substitute(expr->left, map);
      ExprPtr r = substitute(expr->right, map);
      return (l == expr->left && r == expr->right)
                 ? expr
                 : binary(expr->binary_op, l, r);
    }
    case ExprKind::Call: {
      bool changed = false;
      std::vector<ExprPtr> args;
      args.reserve(expr->args.size());
      for (const ExprPtr& arg : expr->args) {
        args.push_back(substitute(arg, map));
        changed |= args.back() != arg;
      }
      return changed ? call(expr->name, std::move(args)) : expr;
    }
    case ExprKind::StructCtor: {
      bool changed = false;
      std::vector<std::pair<std::string, ExprPtr>> fields;
      fields.reserve(expr->struct_fields.size());
      for (const auto& [name, value] : expr->struct_fields) {
        fields.emplace_back(name, substitute(value, map));
        changed |= fields.back().second != value;
      }
      return changed ? struct_ctor(std::move(fields)) : expr;
    }
    case ExprKind::Select: {
      // Bindings shadow left-to-right: a var bound here removes itself
      // from the map for the projection, where, and later domains.
      std::unordered_map<std::string, ExprPtr> inner = map;
      bool changed = false;
      std::vector<Binding> from;
      from.reserve(expr->from.size());
      for (const Binding& binding : expr->from) {
        ExprPtr domain = substitute(binding.domain, inner);
        changed |= domain != binding.domain;
        from.push_back(Binding{binding.var, domain});
        inner.erase(binding.var);
      }
      ExprPtr projection = substitute(expr->projection, inner);
      ExprPtr where = substitute(expr->where, inner);
      changed |= projection != expr->projection || where != expr->where;
      return changed ? select(expr->distinct, projection, std::move(from),
                              where)
                     : expr;
    }
  }
  throw InternalError("corrupt expression in substitute");
}

bool is_constant(const ExprPtr& expr) {
  return expr != nullptr && free_names(expr).empty();
}

}  // namespace disco::oql
