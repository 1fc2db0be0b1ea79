#include "oql/parser.hpp"

#include <charconv>
#include <string>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace disco::oql {

namespace {

bool is_keyword(const Token& token, std::string_view keyword) {
  return token.kind == TokenKind::Ident && iequals(token.text, keyword);
}

class Parser {
 public:
  Parser(const std::vector<Token>& tokens, size_t& pos)
      : tokens_(tokens), pos_(pos) {}

  ExprPtr expression() { return or_expr(); }

 private:
  /// One level of grammar recursion that builds no node before it
  /// descends: a parenthesis, a prefix operator, a nested clause.
  class Nest {
   public:
    explicit Nest(Parser& parser) : parser_(parser) {
      if (parser_.nesting_ == kMaxDepth) parser_.too_deep();
      ++parser_.nesting_;
    }
    ~Nest() { --parser_.nesting_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& parser_;
  };

  [[noreturn]] void too_deep() const {
    fail("expression nests deeper than " + std::to_string(kMaxDepth) +
         " levels");
  }
  /// `expr`, unless it is deeper than kMaxDepth.
  ExprPtr bounded(ExprPtr expr) const {
    if (expr->depth > kMaxDepth) too_deep();
    return expr;
  }

  const Token& peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& advance() {
    const Token& t = peek();
    if (t.kind != TokenKind::End) ++pos_;
    return t;
  }
  bool match(TokenKind kind) {
    if (peek().kind == kind) {
      advance();
      return true;
    }
    return false;
  }
  bool match_keyword(std::string_view keyword) {
    if (is_keyword(peek(), keyword)) {
      advance();
      return true;
    }
    return false;
  }
  const Token& expect(TokenKind kind, std::string_view what) {
    const Token& t = peek();
    if (t.kind != kind) {
      throw ParseError("expected " + std::string(what) + ", found " +
                           to_string(t.kind) +
                           (t.text.empty() ? "" : " '" + t.text + "'"),
                       t.line, t.column);
    }
    return advance();
  }

  [[noreturn]] void fail(const std::string& message) const {
    const Token& t = peek();
    throw ParseError(message + " (found " + to_string(t.kind) +
                         (t.text.empty() ? "" : " '" + t.text + "'") + ")",
                     t.line, t.column);
  }

  ExprPtr or_expr() {
    Nest nest(*this);
    ExprPtr left = and_expr();
    while (match_keyword("or")) {
      left = bounded(binary(BinaryOp::Or, left, and_expr()));
    }
    return left;
  }

  ExprPtr and_expr() {
    ExprPtr left = not_expr();
    while (match_keyword("and")) {
      left = bounded(binary(BinaryOp::And, left, not_expr()));
    }
    return left;
  }

  ExprPtr not_expr() {
    if (match_keyword("not")) {
      Nest nest(*this);
      return bounded(unary(UnaryOp::Not, not_expr()));
    }
    return comparison();
  }

  ExprPtr comparison() {
    ExprPtr left = additive();
    BinaryOp op;
    switch (peek().kind) {
      case TokenKind::Eq:
        op = BinaryOp::Eq;
        break;
      case TokenKind::Ne:
        op = BinaryOp::Ne;
        break;
      case TokenKind::Lt:
        op = BinaryOp::Lt;
        break;
      case TokenKind::Le:
        op = BinaryOp::Le;
        break;
      case TokenKind::Gt:
        op = BinaryOp::Gt;
        break;
      case TokenKind::Ge:
        op = BinaryOp::Ge;
        break;
      default:
        return left;
    }
    advance();
    return bounded(binary(op, left, additive()));
  }

  ExprPtr additive() {
    ExprPtr left = multiplicative();
    while (true) {
      if (match(TokenKind::Plus)) {
        left = bounded(binary(BinaryOp::Add, left, multiplicative()));
      } else if (match(TokenKind::Minus)) {
        left = bounded(binary(BinaryOp::Sub, left, multiplicative()));
      } else {
        return left;
      }
    }
  }

  ExprPtr multiplicative() {
    ExprPtr left = unary_expr();
    while (true) {
      if (match(TokenKind::Star)) {
        left = bounded(binary(BinaryOp::Mul, left, unary_expr()));
      } else if (match(TokenKind::Slash)) {
        left = bounded(binary(BinaryOp::Div, left, unary_expr()));
      } else if (match_keyword("mod")) {
        left = bounded(binary(BinaryOp::Mod, left, unary_expr()));
      } else {
        return left;
      }
    }
  }

  ExprPtr unary_expr() {
    if (match(TokenKind::Minus)) {
      Nest nest(*this);
      return bounded(unary(UnaryOp::Neg, unary_expr()));
    }
    return postfix();
  }

  ExprPtr postfix() {
    ExprPtr expr = primary();
    while (match(TokenKind::Dot)) {
      const Token& field = expect(TokenKind::Ident, "field name after '.'");
      expr = bounded(path(expr, field.text));
    }
    return expr;
  }

  ExprPtr primary() {
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::IntLit: {
        advance();
        int64_t v = 0;
        auto [p, ec] =
            std::from_chars(t.text.data(), t.text.data() + t.text.size(), v);
        if (ec != std::errc()) {
          throw ParseError("integer literal out of range: " + t.text, t.line,
                           t.column);
        }
        return literal(Value::integer(v));
      }
      case TokenKind::DoubleLit: {
        advance();
        return literal(Value::real(std::stod(t.text)));
      }
      case TokenKind::StringLit:
        advance();
        return literal(Value::string(t.text));
      case TokenKind::LParen: {
        advance();
        ExprPtr inner = expression();
        expect(TokenKind::RParen, "')'");
        return inner;
      }
      case TokenKind::IdentStar:
        advance();
        return extent_closure(t.text);
      case TokenKind::Ident:
        return identifier_expression();
      default:
        fail("expected an expression");
    }
  }

  ExprPtr identifier_expression() {
    const Token& t = peek();
    if (iequals(t.text, "select")) return select_expression();
    if (iequals(t.text, "true")) {
      advance();
      return literal(Value::boolean(true));
    }
    if (iequals(t.text, "false")) {
      advance();
      return literal(Value::boolean(false));
    }
    if (iequals(t.text, "nil") || iequals(t.text, "null")) {
      advance();
      return literal(Value::null());
    }
    if (iequals(t.text, "struct") && peek(1).kind == TokenKind::LParen) {
      return struct_expression();
    }
    // Function call or plain identifier.
    if (peek(1).kind == TokenKind::LParen) {
      std::string function = to_lower(t.text);
      advance();
      advance();  // '('
      std::vector<ExprPtr> args;
      if (peek().kind != TokenKind::RParen) {
        args.push_back(expression());
        while (match(TokenKind::Comma)) args.push_back(expression());
      }
      expect(TokenKind::RParen, "')'");
      validate_call(function, args.size(), t);
      return bounded(call(std::move(function), std::move(args)));
    }
    advance();
    return ident(t.text);
  }

  void validate_call(const std::string& function, size_t arity,
                     const Token& at) {
    auto require = [&](bool ok, const char* expected) {
      if (!ok) {
        throw ParseError("function '" + function + "' expects " + expected,
                         at.line, at.column);
      }
    };
    if (function == "bag" || function == "set" || function == "list") {
      return;  // any arity, including empty
    }
    if (function == "union") {
      require(arity >= 2, "at least two arguments");
      return;
    }
    if (function == "flatten" || function == "count" || function == "sum" ||
        function == "min" || function == "max" || function == "avg" ||
        function == "element" || function == "abs" ||
        function == "distinct" || function == "exists") {
      require(arity == 1, "exactly one argument");
      return;
    }
    throw ParseError("unknown function '" + function + "'", at.line,
                     at.column);
  }

  ExprPtr struct_expression() {
    advance();  // struct
    advance();  // '('
    std::vector<std::pair<std::string, ExprPtr>> fields;
    if (peek().kind != TokenKind::RParen) {
      do {
        const Token& name = expect(TokenKind::Ident, "field name");
        expect(TokenKind::Colon, "':' after field name");
        fields.emplace_back(name.text, expression());
      } while (match(TokenKind::Comma));
    }
    expect(TokenKind::RParen, "')'");
    return bounded(struct_ctor(std::move(fields)));
  }

  ExprPtr select_expression() {
    advance();  // select
    // `distinct` doubles as the set-conversion function; right after
    // `select` it is the keyword unless it syntactically is a call
    // (`select distinct(e) from ...` projects the function result).
    bool distinct = is_keyword(peek(), "distinct") &&
                    peek(1).kind != TokenKind::LParen;
    if (distinct) advance();
    ExprPtr projection = expression();
    if (!match_keyword("from")) fail("expected 'from' in select expression");
    std::vector<Binding> from;
    while (true) {
      const Token& var = expect(TokenKind::Ident, "binding variable");
      if (!match_keyword("in")) fail("expected 'in' after binding variable");
      from.push_back(Binding{var.text, domain_expression()});
      // A comma continues the from clause only when followed by the
      // `ident in` binding pattern; otherwise it belongs to an enclosing
      // comma context — e.g. the §4 partial answer
      //   union(select x.name from x in person0, Bag("Sam")).
      if (peek().kind == TokenKind::Comma &&
          peek(1).kind == TokenKind::Ident && is_keyword(peek(2), "in")) {
        advance();
        continue;
      }
      break;
    }
    ExprPtr where;
    if (match_keyword("where")) {
      where = expression();
    }
    return bounded(select(distinct, projection, std::move(from), where));
  }

  /// Domains stop at the select-clause keywords so that
  /// `from x in person, y in person1 where ...` parses correctly; they
  /// are otherwise full expressions (views, unions, subselects...).
  ExprPtr domain_expression() { return or_expr(); }

  const std::vector<Token>& tokens_;
  size_t& pos_;
  uint32_t nesting_ = 0;  ///< levels of Nest open around the cursor
};

}  // namespace

ExprPtr parse_expression(const std::vector<Token>& tokens, size_t& pos) {
  return Parser(tokens, pos).expression();
}

ExprPtr parse(std::string_view text) {
  std::vector<Token> tokens = tokenize(text);
  size_t pos = 0;
  ExprPtr expr = parse_expression(tokens, pos);
  if (tokens[pos].kind == TokenKind::Semicolon) ++pos;
  if (tokens[pos].kind != TokenKind::End) {
    const Token& t = tokens[pos];
    throw ParseError("unexpected trailing input '" + t.text + "'", t.line,
                     t.column);
  }
  return expr;
}

}  // namespace disco::oql
