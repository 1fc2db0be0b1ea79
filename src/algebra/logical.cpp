#include "algebra/logical.hpp"

#include <cctype>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "oql/printer.hpp"

namespace disco::algebra {

const char* to_string(LOp op) {
  switch (op) {
    case LOp::Get:
      return "get";
    case LOp::Const:
      return "const";
    case LOp::Filter:
      return "select";  // the paper calls the filtering operator `select`
    case LOp::Project:
      return "project";
    case LOp::Join:
      return "join";
    case LOp::Union:
      return "union";
    case LOp::Submit:
      return "submit";
  }
  return "?";
}

LogicalPtr get(std::string extent, std::string var) {
  auto node = std::make_shared<Logical>();
  node->op = LOp::Get;
  node->extent = std::move(extent);
  node->var = std::move(var);
  return node;
}

LogicalPtr constant(Value data) {
  auto node = std::make_shared<Logical>();
  node->op = LOp::Const;
  node->data = std::move(data);
  return node;
}

LogicalPtr filter(LogicalPtr child, oql::ExprPtr predicate) {
  internal_check(child != nullptr && predicate != nullptr,
                 "filter requires child and predicate");
  auto node = std::make_shared<Logical>();
  node->op = LOp::Filter;
  node->child = std::move(child);
  node->predicate = std::move(predicate);
  return node;
}

LogicalPtr project(LogicalPtr child, oql::ExprPtr projection, bool distinct) {
  internal_check(child != nullptr && projection != nullptr,
                 "project requires child and projection");
  auto node = std::make_shared<Logical>();
  node->op = LOp::Project;
  node->child = std::move(child);
  node->projection = std::move(projection);
  node->distinct = distinct;
  return node;
}

LogicalPtr join(LogicalPtr left, LogicalPtr right, oql::ExprPtr predicate) {
  internal_check(left != nullptr && right != nullptr,
                 "join requires two children");
  auto node = std::make_shared<Logical>();
  node->op = LOp::Join;
  node->left = std::move(left);
  node->right = std::move(right);
  node->predicate = std::move(predicate);
  return node;
}

LogicalPtr union_of(std::vector<LogicalPtr> children) {
  internal_check(!children.empty(), "union requires at least one child");
  if (children.size() == 1) return children.front();
  auto node = std::make_shared<Logical>();
  node->op = LOp::Union;
  node->children = std::move(children);
  return node;
}

LogicalPtr submit(std::string repository, LogicalPtr child) {
  internal_check(child != nullptr, "submit requires a child");
  auto node = std::make_shared<Logical>();
  node->op = LOp::Submit;
  node->repository = std::move(repository);
  node->child = std::move(child);
  return node;
}

namespace {

/// Renders `expr`; with `mask_constants` every literal is masked as the
/// signature masks it. `spans` (unmasked only) receives the span of every
/// literal printed.
void render(const LogicalPtr& expr, bool mask_constants, std::string& out,
            std::vector<oql::LiteralSpan>* spans) {
  internal_check(expr != nullptr, "cannot render a null logical expression");
  // A predicate or projection: printed in place, or masked as a whole.
  auto fragment = [&](const oql::ExprPtr& e) {
    if (mask_constants) {
      out += mask_literals(oql::to_oql(e));
    } else {
      oql::append_oql(*e, out, spans);
    }
  };
  switch (expr->op) {
    case LOp::Get:
      out += "get(" + expr->extent + ", " + expr->var + ")";
      return;
    case LOp::Const:
      out += mask_constants ? "const(?)" : "const(" + expr->data.to_oql() + ")";
      return;
    case LOp::Filter:
      out += "select(";
      fragment(expr->predicate);
      out += ", ";
      render(expr->child, mask_constants, out, spans);
      out += ")";
      return;
    case LOp::Project:
      out += expr->distinct ? "project(distinct " : "project(";
      fragment(expr->projection);
      out += ", ";
      render(expr->child, mask_constants, out, spans);
      out += ")";
      return;
    case LOp::Join: {
      out += "join(";
      render(expr->left, mask_constants, out, spans);
      out += ", ";
      render(expr->right, mask_constants, out, spans);
      if (expr->predicate != nullptr) {
        out += ", ";
        fragment(expr->predicate);
      }
      out += ")";
      return;
    }
    case LOp::Union: {
      out += "union(";
      for (size_t i = 0; i < expr->children.size(); ++i) {
        if (i > 0) out += ", ";
        render(expr->children[i], mask_constants, out, spans);
      }
      out += ")";
      return;
    }
    case LOp::Submit: {
      out += "submit(" + expr->repository + ", ";
      render(expr->child, mask_constants, out, spans);
      out += ")";
      return;
    }
  }
  throw InternalError("corrupt logical expression");
}

}  // namespace

std::string mask_literals(const std::string& text) {
  std::string out;
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (c == '"') {
      out += '?';
      ++i;
      while (i < text.size()) {
        if (text[i] == '\\') {
          i += 2;
          continue;
        }
        if (text[i] == '"') {
          ++i;
          break;
        }
        ++i;
      }
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) &&
        (i == 0 || (!std::isalnum(static_cast<unsigned char>(text[i - 1])) &&
                    text[i - 1] != '_'))) {
      out += '?';
      while (i < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[i])) ||
              text[i] == '.' || text[i] == 'e' || text[i] == 'E' ||
              ((text[i] == '+' || text[i] == '-') && i > 0 &&
               (text[i - 1] == 'e' || text[i - 1] == 'E')))) {
        ++i;
      }
      continue;
    }
    out += c;
    ++i;
  }
  return out;
}

std::string to_algebra_string(const LogicalPtr& expr) {
  std::string out;
  render(expr, /*mask_constants=*/false, out, nullptr);
  return out;
}

std::string signature(const LogicalPtr& expr) {
  std::string out;
  render(expr, /*mask_constants=*/true, out, nullptr);
  return out;
}

CostKeyPtr cost_key(const LogicalPtr& expr,
                    std::vector<oql::LiteralSpan>* literals) {
  CostKey key;
  render(expr, /*mask_constants=*/false, key.text, literals);
  key.signature = signature(expr);
  return std::make_shared<const CostKey>(std::move(key));
}

namespace {

void collect_vars(const LogicalPtr& expr, std::vector<std::string>& out) {
  switch (expr->op) {
    case LOp::Get:
      out.push_back(expr->var);
      return;
    case LOp::Const:
      return;
    case LOp::Filter:
    case LOp::Project:
    case LOp::Submit:
      collect_vars(expr->child, out);
      return;
    case LOp::Join:
      collect_vars(expr->left, out);
      collect_vars(expr->right, out);
      return;
    case LOp::Union:
      // All children have the same shape; the first is representative.
      collect_vars(expr->children.front(), out);
      return;
  }
}

template <typename Fn>
void walk(const LogicalPtr& expr, const Fn& fn) {
  fn(expr);
  switch (expr->op) {
    case LOp::Get:
    case LOp::Const:
      return;
    case LOp::Filter:
    case LOp::Project:
    case LOp::Submit:
      walk(expr->child, fn);
      return;
    case LOp::Join:
      walk(expr->left, fn);
      walk(expr->right, fn);
      return;
    case LOp::Union:
      for (const LogicalPtr& child : expr->children) walk(child, fn);
      return;
  }
}

}  // namespace

std::vector<std::string> bound_vars(const LogicalPtr& expr) {
  std::vector<std::string> out;
  collect_vars(expr, out);
  return out;
}

std::vector<std::string> repositories(const LogicalPtr& expr) {
  std::vector<std::string> out;
  walk(expr, [&out](const LogicalPtr& node) {
    if (node->op == LOp::Submit) out.push_back(node->repository);
  });
  return out;
}

std::vector<std::string> extents(const LogicalPtr& expr) {
  std::vector<std::string> out;
  walk(expr, [&out](const LogicalPtr& node) {
    if (node->op == LOp::Get) out.push_back(node->extent);
  });
  return out;
}

bool equal(const LogicalPtr& a, const LogicalPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  return to_algebra_string(a) == to_algebra_string(b);
}

}  // namespace disco::algebra
