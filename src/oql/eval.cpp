#include "oql/eval.hpp"

#include <cmath>
#include <functional>
#include <limits>

#include "common/error.hpp"
#include "oql/printer.hpp"

namespace disco::oql {

const Value& path_step(const Value& base, const std::string& name) {
  // Semi-structured leniency: nil propagates through paths and a missing
  // struct field reads as nil ("null is a member of every type, modelling
  // unavailable attribute data" — type_registry). Heterogeneous document
  // rows legitimately lack fields; a path over a non-struct non-nil value
  // is still a type error. Wrapper path evaluation (docstore::DocPath)
  // mirrors these rules exactly so pushed predicates agree with
  // mediator-side residuals.
  if (base.kind() == ValueKind::Null) return base;
  if (base.kind() != ValueKind::Struct) {
    throw ExecutionError("path '." + name + "' applied to non-struct value " +
                         base.to_oql());
  }
  if (const Value* found = base.find_field(name)) return *found;
  static const Value nil = Value::null();
  return nil;
}

namespace {

// int64 arithmetic that throws instead of wrapping: signed overflow is
// undefined behaviour, and INT64_MIN / -1 traps the process.
[[noreturn]] void integer_overflow() {
  throw ExecutionError("integer overflow");
}

int64_t checked_add(int64_t a, int64_t b) {
  int64_t out;
  if (__builtin_add_overflow(a, b, &out)) integer_overflow();
  return out;
}

int64_t checked_sub(int64_t a, int64_t b) {
  int64_t out;
  if (__builtin_sub_overflow(a, b, &out)) integer_overflow();
  return out;
}

int64_t checked_mul(int64_t a, int64_t b) {
  int64_t out;
  if (__builtin_mul_overflow(a, b, &out)) integer_overflow();
  return out;
}

}  // namespace

Value Evaluator::eval(const ExprPtr& expr, const Env& env) const {
  internal_check(expr != nullptr, "cannot evaluate a null expression");
  return eval(*expr, env);
}

Value Evaluator::eval(const Expr& expr, const Env& env) const {
  switch (expr.kind) {
    case ExprKind::Literal:
      return expr.literal;
    case ExprKind::Ident: {
      if (const Value* bound = env.find(expr.name)) return *bound;
      if (resolver_ != nullptr) {
        if (std::optional<Value> coll = resolver_->resolve(expr.name)) {
          return *std::move(coll);
        }
      }
      throw ExecutionError("unresolved name '" + expr.name + "'");
    }
    case ExprKind::ExtentClosure: {
      if (resolver_ != nullptr) {
        if (std::optional<Value> coll = resolver_->resolve_closure(expr.name)) {
          return *std::move(coll);
        }
      }
      throw ExecutionError("unresolved extent closure '" + expr.name + "*'");
    }
    case ExprKind::Path:
      return path_step(eval(expr.child, env), expr.name);
    case ExprKind::Unary: {
      Value operand = eval(expr.child, env);
      if (expr.unary_op == UnaryOp::Not) {
        return Value::boolean(!operand.as_bool());
      }
      if (operand.kind() == ValueKind::Int) {
        return Value::integer(checked_sub(0, operand.as_int()));
      }
      return Value::real(-operand.as_double());
    }
    case ExprKind::Binary:
      return eval_binary(expr, env);
    case ExprKind::Call:
      return eval_call(expr, env);
    case ExprKind::StructCtor: {
      std::vector<std::pair<std::string, Value>> fields;
      fields.reserve(expr.struct_fields.size());
      for (const auto& [name, value_expr] : expr.struct_fields) {
        fields.emplace_back(name, eval(value_expr, env));
      }
      return Value::strct(std::move(fields));
    }
    case ExprKind::Select:
      return eval_select(expr, env);
  }
  throw InternalError("corrupt expression in evaluator");
}

namespace {

bool both_int(const Value& a, const Value& b) {
  return a.kind() == ValueKind::Int && b.kind() == ValueKind::Int;
}

Value compare_result(const Expr& expr, const Value& a, const Value& b) {
  // Comparisons other than =/!= require mutually comparable scalars.
  bool ordered = (a.is_numeric() && b.is_numeric()) ||
                 (a.kind() == ValueKind::String &&
                  b.kind() == ValueKind::String) ||
                 (a.kind() == ValueKind::Bool && b.kind() == ValueKind::Bool);
  int c = Value::compare(a, b);
  switch (expr.binary_op) {
    case BinaryOp::Eq:
      return Value::boolean(c == 0);
    case BinaryOp::Ne:
      return Value::boolean(c != 0);
    default:
      break;
  }
  if (!ordered) {
    throw ExecutionError(std::string("cannot order ") + to_string(a.kind()) +
                         " against " + to_string(b.kind()));
  }
  switch (expr.binary_op) {
    case BinaryOp::Lt:
      return Value::boolean(c < 0);
    case BinaryOp::Le:
      return Value::boolean(c <= 0);
    case BinaryOp::Gt:
      return Value::boolean(c > 0);
    case BinaryOp::Ge:
      return Value::boolean(c >= 0);
    default:
      throw InternalError("non-comparison op in compare_result");
  }
}

}  // namespace

Value Evaluator::eval_binary(const Expr& expr, const Env& env) const {
  // Short-circuit booleans first.
  if (expr.binary_op == BinaryOp::And) {
    if (!eval(expr.left, env).as_bool()) return Value::boolean(false);
    return Value::boolean(eval(expr.right, env).as_bool());
  }
  if (expr.binary_op == BinaryOp::Or) {
    if (eval(expr.left, env).as_bool()) return Value::boolean(true);
    return Value::boolean(eval(expr.right, env).as_bool());
  }
  Value a = eval(expr.left, env);
  Value b = eval(expr.right, env);
  switch (expr.binary_op) {
    case BinaryOp::Add:
      if (a.kind() == ValueKind::String && b.kind() == ValueKind::String) {
        return Value::string(a.as_string() + b.as_string());
      }
      if (both_int(a, b)) {
        return Value::integer(checked_add(a.as_int(), b.as_int()));
      }
      return Value::real(a.as_double() + b.as_double());
    case BinaryOp::Sub:
      if (both_int(a, b)) {
        return Value::integer(checked_sub(a.as_int(), b.as_int()));
      }
      return Value::real(a.as_double() - b.as_double());
    case BinaryOp::Mul:
      if (both_int(a, b)) {
        return Value::integer(checked_mul(a.as_int(), b.as_int()));
      }
      return Value::real(a.as_double() * b.as_double());
    case BinaryOp::Div:
      if (both_int(a, b)) {
        if (b.as_int() == 0) throw ExecutionError("integer division by zero");
        // a / -1 is -a; INT64_MIN / -1 overflows (and traps the CPU).
        if (b.as_int() == -1) return Value::integer(checked_sub(0, a.as_int()));
        return Value::integer(a.as_int() / b.as_int());
      }
      return Value::real(a.as_double() / b.as_double());
    case BinaryOp::Mod: {
      if (!both_int(a, b)) {
        throw ExecutionError("mod expects integer operands");
      }
      if (b.as_int() == 0) throw ExecutionError("mod by zero");
      // INT64_MIN mod -1 traps as INT64_MIN / -1 does, whose quotient
      // does not fit; every other x mod -1 is 0.
      if (b.as_int() == -1) {
        if (a.as_int() == std::numeric_limits<int64_t>::min()) {
          integer_overflow();
        }
        return Value::integer(0);
      }
      return Value::integer(a.as_int() % b.as_int());
    }
    default:
      return compare_result(expr, a, b);
  }
}

Value Evaluator::eval_call(const Expr& expr, const Env& env) const {
  const std::string& fn = expr.name;
  auto eval_args = [&] {
    std::vector<Value> out;
    out.reserve(expr.args.size());
    for (const ExprPtr& arg : expr.args) out.push_back(eval(arg, env));
    return out;
  };

  if (fn == "bag") return Value::bag(eval_args());
  if (fn == "set") return Value::set(eval_args());
  if (fn == "list") return Value::list(eval_args());
  if (fn == "union") {
    std::vector<Value> args = eval_args();
    Value result = args.front();
    for (size_t i = 1; i < args.size(); ++i) {
      result = Value::union_with(result, args[i]);
    }
    return result;
  }

  Value arg = eval(expr.args.front(), env);
  if (fn == "flatten") {
    // One-level flattening: bag of collections -> bag of their members.
    if (!arg.is_collection()) {
      throw ExecutionError("flatten expects a collection of collections");
    }
    std::vector<Value> out;
    for (const Value& inner : arg.items()) {
      if (!inner.is_collection()) {
        throw ExecutionError("flatten expects nested collections, got " +
                             inner.to_oql());
      }
      out.insert(out.end(), inner.items().begin(), inner.items().end());
    }
    return Value::bag(std::move(out));
  }
  if (fn == "distinct") {
    return Value::set(arg.items());
  }
  if (fn == "count") {
    return Value::integer(static_cast<int64_t>(arg.items().size()));
  }
  if (fn == "exists") {
    return Value::boolean(!arg.items().empty());
  }
  if (fn == "element") {
    if (arg.items().size() != 1) {
      throw ExecutionError("element expects a singleton collection, got " +
                           std::to_string(arg.items().size()) + " items");
    }
    return arg.items().front();
  }
  if (fn == "abs") {
    if (arg.kind() == ValueKind::Int) {
      int64_t v = arg.as_int();
      return Value::integer(v < 0 ? checked_sub(0, v) : v);
    }
    return Value::real(std::fabs(arg.as_double()));
  }
  if (fn == "sum" || fn == "min" || fn == "max" || fn == "avg") {
    const std::vector<Value>& items = arg.items();
    if (items.empty()) {
      if (fn == "sum") return Value::integer(0);
      if (fn == "avg") return Value::real(0.0);
      throw ExecutionError(fn + " of an empty collection");
    }
    if (fn == "min" || fn == "max") {
      Value best = items.front();
      for (const Value& item : items) {
        int c = Value::compare(item, best);
        if ((fn == "min" && c < 0) || (fn == "max" && c > 0)) best = item;
      }
      return best;
    }
    bool all_int = true;
    double total = 0;
    // Exact whatever the order of the items: only the total must fit.
    __int128 int_total = 0;
    for (const Value& item : items) {
      if (item.kind() != ValueKind::Int) all_int = false;
      total += item.as_double();
      if (item.kind() == ValueKind::Int) int_total += item.as_int();
    }
    if (fn == "sum") {
      // Only an all-Int sum answers an Int; a mixed one is the real total.
      if (!all_int) return Value::real(total);
      if (int_total < std::numeric_limits<int64_t>::min() ||
          int_total > std::numeric_limits<int64_t>::max()) {
        integer_overflow();
      }
      return Value::integer(static_cast<int64_t>(int_total));
    }
    return Value::real(total / static_cast<double>(items.size()));
  }
  throw ExecutionError("unknown function '" + fn + "'");
}

Value Evaluator::eval_select(const Expr& expr, const Env& env) const {
  std::vector<Value> out;
  // Nested-loop evaluation with left-to-right correlation: later domains
  // may reference earlier variables (select ... from x in a, y in x.bs).
  std::function<void(size_t, Env&)> recurse = [&](size_t level, Env& scope) {
    if (level == expr.from.size()) {
      if (expr.where != nullptr && !eval(expr.where, scope).as_bool()) {
        return;
      }
      out.push_back(eval(expr.projection, scope));
      return;
    }
    const Binding& binding = expr.from[level];
    Value domain = eval(binding.domain, scope);
    if (!domain.is_collection()) {
      throw ExecutionError("from-domain of '" + binding.var +
                           "' is not a collection: " + domain.to_oql());
    }
    for (const Value& item : domain.items()) {
      Env inner(&scope);
      inner.bind(binding.var, item);
      recurse(level + 1, inner);
    }
  };
  Env root(&env);
  recurse(0, root);
  if (expr.distinct) return Value::set(std::move(out));
  return Value::bag(std::move(out));
}

}  // namespace disco::oql
