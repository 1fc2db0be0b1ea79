// OQL abstract syntax (ODMG-93 OQL subset + DISCO extensions).
//
// The subset covers every construct the paper's examples use:
//   select [distinct] <expr> from x in <domain> [, y in <domain>]*
//       [where <pred>]
//   union(e1, e2, ...)        flatten(e)
//   bag(...) set(...) list(...)          struct(name: e, ...)
//   sum/count/min/max/avg(e)  element(e)  abs(e)
//   path expressions x.name, arithmetic, comparisons, and/or/not
//   extent references (person0), view references, and the DISCO
//   subtype-closure syntax person* (§2.2.1).
//
// OQL is *closed*: answers are expressions of the same language (§4), so
// literal collections/structs print back to parseable text.
//
// Nodes are immutable and shared (shared_ptr<const Expr>); substitution
// and rewriting build new trees that share unchanged subtrees.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "value/value.hpp"

namespace disco::oql {

enum class ExprKind {
  Literal,        ///< scalar or collection Value
  Ident,          ///< variable, extent, or view reference
  ExtentClosure,  ///< person* — extents of the type and all subtypes
  Path,           ///< base.field
  Unary,          ///< -e, not e
  Binary,         ///< arithmetic / comparison / boolean
  Call,           ///< f(args): constructors, union, flatten, aggregates
  StructCtor,     ///< struct(name: e, ...)
  Select,         ///< select-from-where
};

enum class UnaryOp { Neg, Not };

enum class BinaryOp { Add, Sub, Mul, Div, Mod, Eq, Ne, Lt, Le, Gt, Ge, And, Or };

const char* to_string(UnaryOp op);
const char* to_string(BinaryOp op);

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// One `var in domain` binding of a from clause.
struct Binding {
  std::string var;
  ExprPtr domain;
};

struct Expr {
  ExprKind kind;
  /// Levels of the tree rooted here (1 for a leaf); set by the factories.
  uint32_t depth = 1;

  Value literal;                       // Literal
  std::string name;                    // Ident/ExtentClosure/Path field/Call fn
  ExprPtr child;                       // Path base, Unary operand
  UnaryOp unary_op = UnaryOp::Neg;     // Unary
  BinaryOp binary_op = BinaryOp::Add;  // Binary
  ExprPtr left, right;                 // Binary
  std::vector<ExprPtr> args;           // Call
  std::vector<std::pair<std::string, ExprPtr>> struct_fields;  // StructCtor

  // Select
  bool distinct = false;
  ExprPtr projection;
  std::vector<Binding> from;
  ExprPtr where;  // nullptr when absent
};

// -- factories ---------------------------------------------------------------
ExprPtr literal(Value v);
ExprPtr ident(std::string name);
ExprPtr extent_closure(std::string type_or_extent_name);
ExprPtr path(ExprPtr base, std::string field);
ExprPtr unary(UnaryOp op, ExprPtr operand);
ExprPtr binary(BinaryOp op, ExprPtr left, ExprPtr right);
ExprPtr call(std::string function, std::vector<ExprPtr> args);
ExprPtr struct_ctor(std::vector<std::pair<std::string, ExprPtr>> fields);
ExprPtr select(bool distinct, ExprPtr projection, std::vector<Binding> from,
               ExprPtr where);

/// Conjunction of `parts` (nullptr when empty, the part itself when one).
ExprPtr conjoin(const std::vector<ExprPtr>& parts);

/// Splits a predicate into its top-level conjuncts.
std::vector<ExprPtr> split_conjuncts(const ExprPtr& predicate);

/// Structural equality (via canonical printed form).
bool equal(const ExprPtr& a, const ExprPtr& b);

/// Names referenced as Ident/ExtentClosure that are not bound by an
/// enclosing from clause — i.e. extent, view, or parameter references.
std::set<std::string> free_names(const ExprPtr& expr);

/// Capture-aware substitution of free identifiers. A from-binding for a
/// name shadows the substitution inside its projection/where (and the
/// domains of *later* bindings, matching OQL's left-to-right scoping).
ExprPtr substitute(const ExprPtr& expr,
                   const std::unordered_map<std::string, ExprPtr>& map);

/// True when the expression is a compile-time constant (no free names, no
/// selects over non-constant domains).
bool is_constant(const ExprPtr& expr);

}  // namespace disco::oql
