#include "oql/printer.hpp"

#include <functional>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace disco::oql {

namespace {

// Binding strength; larger binds tighter. Mirrors the parser's precedence
// climbing so that parse(to_oql(e)) == e.
int precedence(BinaryOp op) {
  switch (op) {
    case BinaryOp::Or:
      return 1;
    case BinaryOp::And:
      return 2;
    case BinaryOp::Eq:
    case BinaryOp::Ne:
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
      return 4;
    case BinaryOp::Add:
    case BinaryOp::Sub:
      return 5;
    case BinaryOp::Mul:
    case BinaryOp::Div:
    case BinaryOp::Mod:
      return 6;
  }
  return 0;
}

constexpr int kNotPrecedence = 3;
constexpr int kNegPrecedence = 7;
constexpr int kPrimary = 10;

void print(const Expr& expr, int min_precedence, std::string& out,
           std::vector<LiteralSpan>* spans);

void print_parenthesized(const Expr& expr, int own, int min_precedence,
                         std::string& out,
                         const std::function<void()>& body) {
  (void)expr;
  bool need = own < min_precedence;
  if (need) out += '(';
  body();
  if (need) out += ')';
}

void print(const Expr& expr, int min_precedence, std::string& out,
           std::vector<LiteralSpan>* spans) {
  switch (expr.kind) {
    case ExprKind::Literal: {
      const size_t begin = out.size();
      out += expr.literal.to_oql();
      if (spans != nullptr) spans->push_back({&expr, begin, out.size()});
      return;
    }
    case ExprKind::Ident:
      out += expr.name;
      return;
    case ExprKind::ExtentClosure:
      out += expr.name;
      out += '*';
      return;
    case ExprKind::Path:
      print(*expr.child, kPrimary, out, spans);
      out += '.';
      out += expr.name;
      return;
    case ExprKind::Unary: {
      int own = expr.unary_op == UnaryOp::Not ? kNotPrecedence
                                              : kNegPrecedence;
      print_parenthesized(expr, own, min_precedence, out, [&] {
        if (expr.unary_op == UnaryOp::Not) {
          out += "not ";
          print(*expr.child, kNotPrecedence, out, spans);
        } else {
          out += '-';
          print(*expr.child, kNegPrecedence, out, spans);
        }
      });
      return;
    }
    case ExprKind::Binary: {
      int own = precedence(expr.binary_op);
      print_parenthesized(expr, own, min_precedence, out, [&] {
        // Left-associative: the left child may share our precedence, the
        // right child must bind strictly tighter. Comparisons are
        // non-associative, so both sides must bind tighter.
        bool comparison = own == 4;
        print(*expr.left, comparison ? own + 1 : own, out, spans);
        out += ' ';
        out += to_string(expr.binary_op);
        out += ' ';
        print(*expr.right, own + 1, out, spans);
      });
      return;
    }
    case ExprKind::Call: {
      out += expr.name;
      out += '(';
      for (size_t i = 0; i < expr.args.size(); ++i) {
        if (i > 0) out += ", ";
        // Arguments are comma-separated: a bare select would greedily
        // consume the following ", x in ..." as extra from-bindings, so
        // selects are parenthesized here (min precedence 1).
        print(*expr.args[i], 1, out, spans);
      }
      out += ')';
      return;
    }
    case ExprKind::StructCtor: {
      out += "struct(";
      for (size_t i = 0; i < expr.struct_fields.size(); ++i) {
        if (i > 0) out += ", ";
        out += expr.struct_fields[i].first;
        out += ": ";
        print(*expr.struct_fields[i].second, 1, out, spans);
      }
      out += ')';
      return;
    }
    case ExprKind::Select: {
      // `select distinct (...)` — a projection whose text begins with a
      // parenthesis — would reparse as a call to the distinct() function;
      // print the semantically identical distinct((select ...)) instead
      // (a distinct select IS the set conversion of the plain select).
      if (expr.distinct) {
        std::string projection_text;
        print(*expr.projection, 1, projection_text, nullptr);
        if (!projection_text.empty() && projection_text.front() == '(') {
          Expr plain = expr;
          plain.distinct = false;
          out += "distinct(";
          print(plain, 1, out, spans);
          out += ')';
          return;
        }
      }
      // A select nested inside any operator needs parentheses; treat it
      // as weakest-binding.
      bool need = min_precedence > 0;
      if (need) out += '(';
      out += "select ";
      if (expr.distinct) out += "distinct ";
      // A select-valued projection would swallow the outer 'from'.
      print(*expr.projection, 1, out, spans);
      out += " from ";
      for (size_t i = 0; i < expr.from.size(); ++i) {
        if (i > 0) out += ", ";
        out += expr.from[i].var;
        out += " in ";
        print(*expr.from[i].domain, 1, out, spans);
      }
      if (expr.where != nullptr) {
        out += " where ";
        print(*expr.where, 0, out, spans);
      }
      if (need) out += ')';
      return;
    }
  }
  throw InternalError("corrupt expression in printer");
}

}  // namespace

std::string to_oql(const Expr& expr) {
  std::string out;
  print(expr, 0, out, nullptr);
  return out;
}

std::string to_oql(const ExprPtr& expr) {
  internal_check(expr != nullptr, "cannot print a null expression");
  return to_oql(*expr);
}

void append_oql(const Expr& expr, std::string& out,
                std::vector<LiteralSpan>* literals) {
  print(expr, 0, out, literals);
}

}  // namespace disco::oql
