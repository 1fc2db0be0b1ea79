// Recursive-descent OQL parser. See ast.hpp for the supported subset.
//
// Keywords (select, from, in, where, distinct, and, or, not, mod, true,
// false, nil, define, as) are matched case-insensitively, per ODMG.
#pragma once

#include <cstdint>
#include <string_view>

#include "oql/ast.hpp"
#include "oql/lexer.hpp"

namespace disco::oql {

/// The deepest expression the parser builds or descends into; deeper
/// input is a ParseError. Every later stage (typecheck, optimizer,
/// wrapper translation, evaluation, printing) walks the tree
/// recursively, so this bounds their stack use. Both count: the nesting
/// of parentheses, prefix operators and clauses (the parser's own
/// recursion), and Expr::depth, which grows with every operator of a
/// left-associative chain. Under ASan+UBSan the parser's recursion
/// through nested calls, structs or selects overflows an 8 MiB stack
/// at about 550 levels, so the bound leaves it twice that margin.
constexpr uint32_t kMaxDepth = 256;

/// Parses a complete OQL expression; trailing tokens (other than an
/// optional ';') are a ParseError.
ExprPtr parse(std::string_view text);

/// Parses one expression starting at tokens[pos]; advances pos. Used by
/// the ODL parser for `define <name> as <query>` bodies.
ExprPtr parse_expression(const std::vector<Token>& tokens, size_t& pos);

}  // namespace disco::oql
