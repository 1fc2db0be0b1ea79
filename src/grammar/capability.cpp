#include "grammar/capability.hpp"

#include <mutex>
#include <optional>
#include <shared_mutex>
#include <sstream>
#include <unordered_map>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace disco::grammar {

const char* to_string(Terminal terminal) {
  switch (terminal) {
    case Terminal::Get:
      return "get";
    case Terminal::Project:
      return "project";
    case Terminal::Select:
      return "select";
    case Terminal::Join:
      return "join";
    case Terminal::Open:
      return "OPEN";
    case Terminal::Close:
      return "CLOSE";
    case Terminal::Attribute:
      return "ATTRIBUTE";
    case Terminal::Predicate:
      return "PREDICATE";
    case Terminal::EqPredicate:
      return "EQPREDICATE";
    case Terminal::Comma:
      return "COMMA";
    case Terminal::Source:
      return "SOURCE";
    case Terminal::Path:
      return "PATH";
    case Terminal::PathEqPredicate:
      return "PATHEQPREDICATE";
    case Terminal::PathPredicate:
      return "PATHPREDICATE";
  }
  return "?";
}

namespace {

std::optional<Terminal> terminal_from_name(const std::string& name) {
  if (name == "get") return Terminal::Get;
  if (name == "project") return Terminal::Project;
  if (name == "select") return Terminal::Select;
  if (name == "join") return Terminal::Join;
  if (name == "OPEN") return Terminal::Open;
  if (name == "CLOSE") return Terminal::Close;
  if (name == "ATTRIBUTE") return Terminal::Attribute;
  if (name == "PREDICATE") return Terminal::Predicate;
  if (name == "EQPREDICATE") return Terminal::EqPredicate;
  if (name == "COMMA") return Terminal::Comma;
  if (name == "SOURCE") return Terminal::Source;
  if (name == "PATH") return Terminal::Path;
  if (name == "PATHEQPREDICATE") return Terminal::PathEqPredicate;
  if (name == "PATHPREDICATE") return Terminal::PathPredicate;
  return std::nullopt;
}

/// Scan-time subsumption: a grammar symbol matches its own token plus
/// every token that denotes a *special case* of it. An equality-only
/// predicate is a predicate; a flat attribute is a (degenerate) path; a
/// flat predicate is a path predicate with depth-1 paths. The reverse
/// never holds — PREDICATE does not match PATHPREDICATE tokens, so flat
/// wrappers never receive nested paths.
bool scan_matches(Terminal symbol, Terminal token) {
  if (symbol == token) return true;
  switch (symbol) {
    case Terminal::Predicate:
      return token == Terminal::EqPredicate;
    case Terminal::Path:
      return token == Terminal::Attribute;
    case Terminal::PathEqPredicate:
      return token == Terminal::EqPredicate;
    case Terminal::PathPredicate:
      return token == Terminal::PathEqPredicate ||
             token == Terminal::Predicate || token == Terminal::EqPredicate;
    default:
      return false;
  }
}

}  // namespace

struct Grammar::Body {
  std::string start;
  std::vector<Production> productions;
  std::string text;
  /// Token string (one char per terminal) -> recognizes() verdict.
  mutable std::shared_mutex mutex;
  mutable std::unordered_map<std::string, bool> verdicts;
};

Grammar::Grammar(std::string start, std::vector<Production> productions) {
  auto body = std::make_shared<Body>();
  body->start = std::move(start);
  body->productions = std::move(productions);
  for (const Production& production : body->productions) {
    internal_check(!production.head.empty(), "production with empty head");
    body->text += production.head + " :-";
    for (const Symbol& symbol : production.body) {
      body->text += ' ';
      body->text += symbol.is_terminal ? to_string(symbol.terminal)
                                       : symbol.nonterminal.c_str();
    }
    body->text += '\n';
  }
  body_ = std::move(body);
}

const std::string& Grammar::start() const { return body_->start; }

const std::vector<Production>& Grammar::productions() const {
  return body_->productions;
}

const std::string& Grammar::to_text() const { return body_->text; }

Grammar Grammar::parse(const std::string& text) {
  std::vector<Production> productions;
  std::string start;
  for (const std::string& raw_line : split(text, '\n')) {
    std::string line = trim(raw_line);
    if (line.empty() || line.starts_with("//")) continue;
    size_t sep = line.find(":-");
    if (sep == std::string::npos) {
      throw ParseError("grammar production missing ':-': " + line, 1, 1);
    }
    std::string head = trim(line.substr(0, sep));
    if (head.empty() || terminal_from_name(head).has_value()) {
      throw ParseError("invalid production head: '" + head + "'", 1, 1);
    }
    Production production;
    production.head = head;
    std::istringstream body(line.substr(sep + 2));
    std::string word;
    while (body >> word) {
      if (word == ",") {
        production.body.push_back(Symbol::t(Terminal::Comma));
      } else if (word == "(") {
        production.body.push_back(Symbol::t(Terminal::Open));
      } else if (word == ")") {
        production.body.push_back(Symbol::t(Terminal::Close));
      } else if (auto terminal = terminal_from_name(word)) {
        production.body.push_back(Symbol::t(*terminal));
      } else {
        production.body.push_back(Symbol::nt(word));
      }
    }
    if (start.empty()) start = production.head;
    productions.push_back(std::move(production));
  }
  if (start.empty()) {
    throw ParseError("empty grammar", 1, 1);
  }
  return Grammar(std::move(start), std::move(productions));
}

// Earley recognizer. Grammars are tiny (a handful of productions) and
// sentences short (tens of tokens), so the cubic worst case is irrelevant;
// Earley is chosen because it handles any CFG a wrapper might return,
// including ambiguous and left-recursive ones.
bool Grammar::recognizes(const std::vector<Terminal>& tokens) const {
  const std::vector<Production>& productions = body_->productions;
  const std::string& start = body_->start;
  struct Item {
    size_t production;  // index into productions
    size_t dot;         // position in body
    size_t origin;      // chart index where this item started
    bool operator==(const Item& other) const = default;
  };
  size_t n = tokens.size();
  std::vector<std::vector<Item>> chart(n + 1);

  auto add = [&chart](size_t position, Item item) {
    for (const Item& existing : chart[position]) {
      if (existing == item) return;
    }
    chart[position].push_back(item);
  };

  for (size_t p = 0; p < productions.size(); ++p) {
    if (productions[p].head == start) add(0, Item{p, 0, 0});
  }

  for (size_t position = 0; position <= n; ++position) {
    // chart[position] grows while we scan it.
    for (size_t i = 0; i < chart[position].size(); ++i) {
      Item item = chart[position][i];
      const Production& production = productions[item.production];
      if (item.dot == production.body.size()) {
        // Completion: advance every item waiting on this head.
        for (size_t j = 0; j < chart[item.origin].size(); ++j) {
          Item waiting = chart[item.origin][j];
          const Production& wp = productions[waiting.production];
          if (waiting.dot < wp.body.size() &&
              !wp.body[waiting.dot].is_terminal &&
              wp.body[waiting.dot].nonterminal == production.head) {
            add(position,
                Item{waiting.production, waiting.dot + 1, waiting.origin});
          }
        }
        continue;
      }
      const Symbol& next = production.body[item.dot];
      if (next.is_terminal) {
        // Scan with subsumption: e.g. EQPREDICATE tokens are a special
        // case of PREDICATE, flat ATTRIBUTE tokens of PATH (see
        // scan_matches for the full matrix).
        bool matches =
            position < n && scan_matches(next.terminal, tokens[position]);
        if (matches) {
          add(position + 1, Item{item.production, item.dot + 1, item.origin});
        }
      } else {
        // Prediction.
        for (size_t p = 0; p < productions.size(); ++p) {
          if (productions[p].head == next.nonterminal) {
            add(position, Item{p, 0, position});
          }
        }
      }
    }
  }

  for (const Item& item : chart[n]) {
    const Production& production = productions[item.production];
    if (production.head == start && item.origin == 0 &&
        item.dot == production.body.size()) {
      return true;
    }
  }
  return false;
}

namespace {

/// True when `expr` is a conjunction of equality comparisons only.
bool equality_only(const oql::ExprPtr& expr) {
  if (expr == nullptr) return false;
  if (expr->kind == oql::ExprKind::Binary) {
    if (expr->binary_op == oql::BinaryOp::And) {
      return equality_only(expr->left) && equality_only(expr->right);
    }
    return expr->binary_op == oql::BinaryOp::Eq;
  }
  return false;
}

/// True when `expr` contains a path that descends more than one level
/// (x.doc.a — a Path whose base is itself a Path). Those serialize to
/// the PATH* terminals, which only path-capable wrappers advertise.
bool has_nested_path(const oql::ExprPtr& expr) {
  if (expr == nullptr) return false;
  if (expr->kind == oql::ExprKind::Path &&
      expr->child != nullptr && expr->child->kind == oql::ExprKind::Path) {
    return true;
  }
  for (const oql::ExprPtr* part : {&expr->child, &expr->left, &expr->right}) {
    if (has_nested_path(*part)) return true;
  }
  for (const oql::ExprPtr& arg : expr->args) {
    if (has_nested_path(arg)) return true;
  }
  for (const auto& [name, field] : expr->struct_fields) {
    if (has_nested_path(field)) return true;
  }
  return false;
}

Terminal predicate_terminal(const oql::ExprPtr& expr) {
  const bool eq = equality_only(expr);
  if (has_nested_path(expr)) {
    return eq ? Terminal::PathEqPredicate : Terminal::PathPredicate;
  }
  return eq ? Terminal::EqPredicate : Terminal::Predicate;
}

Terminal attribute_terminal(const oql::ExprPtr& projection) {
  return has_nested_path(projection) ? Terminal::Path : Terminal::Attribute;
}

/// `as_argument` distinguishes the paper's two uses of a source: a bare
/// get at the root serializes as get(SOURCE) — the whole-source fetch —
/// while a get appearing as an operator argument is just that operator
/// applied directly to the source and serializes as SOURCE, matching the
/// paper's non-composing production  c :- project OPEN ATTRIBUTE COMMA
/// SOURCE CLOSE.
bool serialize_impl(const algebra::LogicalPtr& expr,
                    std::vector<Terminal>& out, bool as_argument) {
  using algebra::LOp;
  switch (expr->op) {
    case LOp::Get:
      if (as_argument) {
        out.push_back(Terminal::Source);
      } else {
        out.insert(out.end(), {Terminal::Get, Terminal::Open,
                               Terminal::Source, Terminal::Close});
      }
      return true;
    case LOp::Project: {
      out.insert(out.end(), {Terminal::Project, Terminal::Open,
                             attribute_terminal(expr->projection),
                             Terminal::Comma});
      if (!serialize_impl(expr->child, out, true)) return false;
      out.push_back(Terminal::Close);
      return true;
    }
    case LOp::Filter: {
      out.insert(out.end(), {Terminal::Select, Terminal::Open,
                             predicate_terminal(expr->predicate),
                             Terminal::Comma});
      if (!serialize_impl(expr->child, out, true)) return false;
      out.push_back(Terminal::Close);
      return true;
    }
    case LOp::Join: {
      out.insert(out.end(), {Terminal::Join, Terminal::Open});
      if (!serialize_impl(expr->left, out, true)) return false;
      out.push_back(Terminal::Comma);
      if (!serialize_impl(expr->right, out, true)) return false;
      out.insert(out.end(), {Terminal::Comma,
                             predicate_terminal(expr->predicate),
                             Terminal::Close});
      return true;
    }
    case LOp::Union:
    case LOp::Const:
    case LOp::Submit:
      return false;  // outside the wrapper interface language
  }
  return false;
}

}  // namespace

bool serialize(const algebra::LogicalPtr& expr, std::vector<Terminal>& out) {
  return serialize_impl(expr, out, /*as_argument=*/false);
}

bool Grammar::verdict(const std::vector<Terminal>& tokens, bool* hit) const {
  std::string key(tokens.size(), '\0');
  for (size_t i = 0; i < tokens.size(); ++i) {
    key[i] = static_cast<char>(tokens[i]);
  }
  {
    std::shared_lock lock(body_->mutex);
    auto it = body_->verdicts.find(key);
    if (it != body_->verdicts.end()) {
      if (hit != nullptr) *hit = true;
      return it->second;
    }
  }
  const bool ok = recognizes(tokens);
  {
    std::unique_lock lock(body_->mutex);
    if (body_->verdicts.size() >= kVerdictCapacity) body_->verdicts.clear();
    body_->verdicts.emplace(std::move(key), ok);
  }
  if (hit != nullptr) *hit = false;
  return ok;
}

size_t Grammar::cached_verdicts() const {
  std::shared_lock lock(body_->mutex);
  return body_->verdicts.size();
}

bool Grammar::accepts(const algebra::LogicalPtr& expr) const {
  std::vector<Terminal> tokens;
  if (!serialize(expr, tokens)) return false;
  return verdict(tokens);
}

Grammar CapabilitySet::to_grammar() const {
  // The paper's §3.2 construction. Nonterminals: `a` (start), one
  // per operator (b=get, c=project, d=select, e=join), and with
  // composition the argument nonterminal `s`.
  std::vector<Production> productions;
  auto arg = [this]() {
    return compose ? Symbol::nt("s") : Symbol::t(Terminal::Source);
  };

  if (get) productions.push_back({"a", {Symbol::nt("b")}});
  if (project) productions.push_back({"a", {Symbol::nt("c")}});
  if (select) productions.push_back({"a", {Symbol::nt("d")}});
  if (join) productions.push_back({"a", {Symbol::nt("e")}});

  if (get) {
    productions.push_back({"b",
                           {Symbol::t(Terminal::Get), Symbol::t(Terminal::Open),
                            Symbol::t(Terminal::Source),
                            Symbol::t(Terminal::Close)}});
  }
  if (project) {
    productions.push_back(
        {"c",
         {Symbol::t(Terminal::Project), Symbol::t(Terminal::Open),
          Symbol::t(Terminal::Attribute), Symbol::t(Terminal::Comma), arg(),
          Symbol::t(Terminal::Close)}});
  }
  if (select) {
    productions.push_back(
        {"d",
         {Symbol::t(Terminal::Select), Symbol::t(Terminal::Open),
          Symbol::t(Terminal::Predicate), Symbol::t(Terminal::Comma), arg(),
          Symbol::t(Terminal::Close)}});
  }
  if (join) {
    productions.push_back(
        {"e",
         {Symbol::t(Terminal::Join), Symbol::t(Terminal::Open), arg(),
          Symbol::t(Terminal::Comma), arg(), Symbol::t(Terminal::Comma),
          Symbol::t(Terminal::Predicate), Symbol::t(Terminal::Close)}});
  }
  if (compose) {
    if (get) productions.push_back({"s", {Symbol::nt("b")}});
    if (project) productions.push_back({"s", {Symbol::nt("c")}});
    if (select) productions.push_back({"s", {Symbol::nt("d")}});
    if (join) productions.push_back({"s", {Symbol::nt("e")}});
    productions.push_back({"s", {Symbol::t(Terminal::Source)}});
  }
  internal_check(!productions.empty(),
                 "capability set with no supported operators");
  return Grammar("a", std::move(productions));
}

}  // namespace disco::grammar
