#include "physical/plan.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "oql/eval.hpp"
#include "oql/printer.hpp"

namespace disco::physical {

const char* to_string(POp op) {
  switch (op) {
    case POp::Exec:
      return "exec";
    case POp::Const:
      return "mkconst";
    case POp::Filter:
      return "mkfilter";
    case POp::Project:
      return "mkproj";
    case POp::HashJoin:
      return "hashjoin";
    case POp::NestedLoopJoin:
      return "nljoin";
    case POp::BindJoin:
      return "bindjoin";
    case POp::Union:
      return "mkunion";
  }
  return "?";
}

std::optional<EquiKey> EquiKey::of(const oql::ExprPtr& expr) {
  EquiKey key;
  const oql::Expr* cursor = expr.get();
  while (cursor != nullptr && cursor->kind == oql::ExprKind::Path) {
    key.steps.push_back(cursor->name);
    cursor = cursor->child.get();
  }
  if (key.steps.empty() || cursor == nullptr ||
      cursor->kind != oql::ExprKind::Ident) {
    return std::nullopt;
  }
  std::reverse(key.steps.begin(), key.steps.end());
  key.var = cursor->name;
  key.expr = expr;
  return key;
}

const Value& EquiKey::read(const Value& env) const {
  const Value* value = &env.field(var);
  for (const std::string& step : steps) value = &oql::path_step(*value, step);
  return *value;
}

namespace {

std::shared_ptr<Physical> base(POp op, algebra::LogicalPtr logical) {
  internal_check(logical != nullptr, "physical node needs its logical form");
  auto node = std::make_shared<Physical>();
  node->op = op;
  node->logical = std::move(logical);
  return node;
}

}  // namespace

PhysicalPtr make_exec(std::string repository, std::string wrapper,
                      algebra::LogicalPtr remote,
                      algebra::LogicalPtr logical,
                      algebra::CostKeyPtr remote_key) {
  internal_check(remote != nullptr, "exec needs a remote expression");
  auto node = base(POp::Exec, std::move(logical));
  node->repository = std::move(repository);
  node->wrapper = std::move(wrapper);
  node->remote = std::move(remote);
  node->remote_key = remote_key != nullptr ? std::move(remote_key)
                                           : algebra::cost_key(node->remote);
  return node;
}

PhysicalPtr make_const(Value data, algebra::LogicalPtr logical) {
  auto node = base(POp::Const, std::move(logical));
  node->data = std::move(data);
  return node;
}

PhysicalPtr make_filter(PhysicalPtr child, oql::ExprPtr predicate,
                        algebra::LogicalPtr logical) {
  internal_check(child != nullptr && predicate != nullptr,
                 "mkfilter needs child and predicate");
  auto node = base(POp::Filter, std::move(logical));
  node->child = std::move(child);
  node->predicate = std::move(predicate);
  return node;
}

PhysicalPtr make_project(PhysicalPtr child, oql::ExprPtr projection,
                         bool distinct, algebra::LogicalPtr logical) {
  internal_check(child != nullptr && projection != nullptr,
                 "mkproj needs child and projection");
  auto node = base(POp::Project, std::move(logical));
  node->child = std::move(child);
  node->projection = std::move(projection);
  node->distinct = distinct;
  return node;
}

PhysicalPtr make_hash_join(PhysicalPtr left, PhysicalPtr right,
                           EquiKey left_key, EquiKey right_key,
                           oql::ExprPtr residual_predicate,
                           algebra::LogicalPtr logical) {
  internal_check(left != nullptr && right != nullptr, "join needs children");
  internal_check(left_key.expr != nullptr && right_key.expr != nullptr,
                 "hash join needs key expressions");
  internal_check(logical != nullptr && logical->predicate != nullptr,
                 "hash join needs its logical join predicate");
  auto node = base(POp::HashJoin, std::move(logical));
  node->left = std::move(left);
  node->right = std::move(right);
  node->left_key = std::move(left_key);
  node->right_key = std::move(right_key);
  node->predicate = std::move(residual_predicate);
  return node;
}

PhysicalPtr make_nl_join(PhysicalPtr left, PhysicalPtr right,
                         oql::ExprPtr predicate,
                         algebra::LogicalPtr logical) {
  internal_check(left != nullptr && right != nullptr, "join needs children");
  auto node = base(POp::NestedLoopJoin, std::move(logical));
  node->left = std::move(left);
  node->right = std::move(right);
  node->predicate = std::move(predicate);
  return node;
}

PhysicalPtr make_bind_join(PhysicalPtr left, std::string repository,
                           std::string wrapper, algebra::LogicalPtr remote,
                           algebra::LogicalPtr probe_shape,
                           EquiKey left_key, EquiKey right_key,
                           oql::ExprPtr residual_predicate,
                           algebra::LogicalPtr logical,
                           algebra::CostKeyPtr remote_key,
                           algebra::CostKeyPtr probe_key) {
  internal_check(left != nullptr && remote != nullptr &&
                     probe_shape != nullptr,
                 "bind join needs a build side, a probe template and its "
                 "one-key shape");
  internal_check(left_key.expr != nullptr && right_key.expr != nullptr,
                 "bind join needs key expressions");
  internal_check(logical != nullptr && logical->predicate != nullptr,
                 "bind join needs its logical join predicate");
  auto node = base(POp::BindJoin, std::move(logical));
  node->left = std::move(left);
  node->repository = std::move(repository);
  node->wrapper = std::move(wrapper);
  node->remote = std::move(remote);
  node->remote_key = remote_key != nullptr ? std::move(remote_key)
                                           : algebra::cost_key(node->remote);
  node->probe_shape = std::move(probe_shape);
  node->probe_key = probe_key != nullptr
                        ? std::move(probe_key)
                        : algebra::cost_key(node->probe_shape);
  node->left_key = std::move(left_key);
  node->right_key = std::move(right_key);
  node->predicate = std::move(residual_predicate);
  return node;
}

PhysicalPtr make_union(std::vector<PhysicalPtr> children,
                       algebra::LogicalPtr logical) {
  internal_check(!children.empty(), "mkunion needs children");
  if (children.size() == 1) return children.front();
  auto node = base(POp::Union, std::move(logical));
  node->children = std::move(children);
  return node;
}

namespace {

void render(const PhysicalPtr& plan, std::string& out) {
  switch (plan->op) {
    case POp::Exec:
      // The paper writes exec(field(r0), <expr>): field is the physical
      // algorithm fetching the repository object itself.
      out += "exec(field(" + plan->repository + "), " +
             plan->remote_key->text + ")";
      return;
    case POp::Const:
      out += "mkconst(" + plan->data.to_oql() + ")";
      return;
    case POp::Filter:
      out += "mkfilter(" + oql::to_oql(plan->predicate) + ", ";
      render(plan->child, out);
      out += ")";
      return;
    case POp::Project:
      out += std::string("mkproj(") + (plan->distinct ? "distinct " : "") +
             oql::to_oql(plan->projection) + ", ";
      render(plan->child, out);
      out += ")";
      return;
    case POp::HashJoin:
      out += "hashjoin(" + oql::to_oql(plan->left_key.expr) + " = " +
             oql::to_oql(plan->right_key.expr) + ", ";
      render(plan->left, out);
      out += ", ";
      render(plan->right, out);
      if (plan->predicate != nullptr) {
        out += ", " + oql::to_oql(plan->predicate);
      }
      out += ")";
      return;
    case POp::NestedLoopJoin:
      out += "nljoin(";
      render(plan->left, out);
      out += ", ";
      render(plan->right, out);
      if (plan->predicate != nullptr) {
        out += ", " + oql::to_oql(plan->predicate);
      }
      out += ")";
      return;
    case POp::BindJoin:
      out += "bindjoin(" + oql::to_oql(plan->left_key.expr) + " = " +
             oql::to_oql(plan->right_key.expr) + ", ";
      render(plan->left, out);
      out += ", exec(field(" + plan->repository + "), " +
             plan->remote_key->text + " + keys)";
      if (plan->predicate != nullptr) {
        out += ", " + oql::to_oql(plan->predicate);
      }
      out += ")";
      return;
    case POp::Union:
      out += "mkunion(";
      for (size_t i = 0; i < plan->children.size(); ++i) {
        if (i > 0) out += ", ";
        render(plan->children[i], out);
      }
      out += ")";
      return;
  }
  throw InternalError("corrupt physical plan");
}

}  // namespace

std::string to_physical_string(const PhysicalPtr& plan) {
  internal_check(plan != nullptr, "cannot render a null plan");
  std::string out;
  render(plan, out);
  return out;
}

}  // namespace disco::physical
