// OQL pretty-printer (un-parser).
//
// Required by the paper's §4: the answer to a query is another query, so
// every expression — including partial answers that embed literal data —
// must print to text the OQL parser accepts. parse(to_oql(e)) is
// structurally equal to e for all expressions (tested as a property).
#pragma once

#include <string>
#include <vector>

#include "oql/ast.hpp"

namespace disco::oql {

/// Canonical single-line text with minimal parentheses.
std::string to_oql(const ExprPtr& expr);
std::string to_oql(const Expr& expr);

/// Where one literal's text sits in printed output: [begin, end).
struct LiteralSpan {
  const Expr* literal;
  size_t begin;
  size_t end;
};

/// Appends to_oql(expr) to `out`. With `literals`, also appends the span
/// of every literal printed, in print order.
void append_oql(const Expr& expr, std::string& out,
                std::vector<LiteralSpan>* literals = nullptr);

}  // namespace disco::oql
