// Wrapper capability description (§1.4, §3.2 of the paper).
//
// A wrapper advertises which logical operators it supports, and whether
// they compose, by returning a *grammar*. The paper gives the example of
// a wrapper that understands get and project but not their composition:
//
//   a :- b
//   a :- c
//   b :- get OPEN SOURCE CLOSE
//   c :- project OPEN ATTRIBUTE COMMA SOURCE CLOSE
//
// and the composing variant that adds  s :- b | c | SOURCE  and uses `s`
// in the argument positions.
//
// We implement both forms the paper describes:
//   * CapabilitySet — the operator-set form ("the call may return
//     {get, project, compose}"), a convenience layer; and
//   * Grammar — the production form, checked by an Earley recognizer.
// CapabilitySet::to_grammar() produces exactly the productions above, and
// accepts() serializes a logical expression to the terminal alphabet
// (get/project/select/join/OPEN/CLOSE/ATTRIBUTE/PREDICATE/COMMA/SOURCE)
// and asks the recognizer. The mediator's pushdown rules call accepts()
// before every rewrite that moves work into a submit (§3.2: "the
// transformation rule consults the wrapper interface").
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algebra/logical.hpp"

namespace disco::grammar {

/// Terminal alphabet of the wrapper interface language.
enum class Terminal {
  Get,
  Project,
  Select,  ///< the filtering operator
  Join,
  Open,
  Close,
  Attribute,
  Predicate,
  /// Equality-only predicate (a conjunction of `=` comparisons). §3.2:
  /// "the support for certain comparison operators ... can be defined by
  /// returning a grammar" — a wrapper for a lookup-only store accepts
  /// EQPREDICATE where a full DBMS wrapper accepts PREDICATE. An
  /// equality-only predicate *is* a predicate, so a PREDICATE symbol in a
  /// grammar also matches an EQPREDICATE token (see recognizes()).
  EqPredicate,
  Comma,
  Source,
  /// Nested-path forms, produced when a projection or predicate descends
  /// more than one level into an attribute (x.doc.a.b). Semi-structured
  /// wrappers (src/wrapper/doc_wrapper.*) advertise these; the flat
  /// relational grammars never match them, which is what keeps the
  /// optimizer from pushing nested paths to a wrapper that cannot
  /// flatten them (those predicates stay mediator-side per §4).
  /// Subsumption at scan time (see recognizes()):
  ///   PATH            matches {PATH, ATTRIBUTE} tokens
  ///   PATHEQPREDICATE matches {PATHEQPREDICATE, EQPREDICATE} tokens
  ///   PATHPREDICATE   matches {PATHPREDICATE, PATHEQPREDICATE,
  ///                            PREDICATE, EQPREDICATE} tokens
  Path,
  PathEqPredicate,
  PathPredicate,
};

const char* to_string(Terminal terminal);

/// One grammar symbol: terminal or nonterminal (by name).
struct Symbol {
  bool is_terminal;
  Terminal terminal;     // when is_terminal
  std::string nonterminal;  // when !is_terminal

  static Symbol t(Terminal terminal) { return Symbol{true, terminal, ""}; }
  static Symbol nt(std::string name) {
    return Symbol{false, Terminal::Get, std::move(name)};
  }
};

struct Production {
  std::string head;
  std::vector<Symbol> body;
};

/// A context-free grammar over the wrapper terminal alphabet. Copies share
/// one immutable body and one verdict table, so handing a grammar out by
/// value costs a reference count.
class Grammar {
 public:
  /// Most verdicts one grammar's table holds (see verdict()).
  static constexpr size_t kVerdictCapacity = 1024;

  Grammar(std::string start, std::vector<Production> productions);

  /// Parses the paper's textual notation, e.g.
  ///   "a :- b\n a :- c\n b :- get OPEN SOURCE CLOSE\n ..."
  /// Uppercase names and the operator names get/project/select/join are
  /// terminals; everything else is a nonterminal. The head of the first
  /// production is the start symbol. Throws ParseError on malformed text.
  static Grammar parse(const std::string& text);

  /// Earley recognition of `tokens` from the start symbol. Runs the
  /// recognizer on every call.
  bool recognizes(const std::vector<Terminal>& tokens) const;

  /// recognizes(tokens), derived once: a verdict depends only on the
  /// grammar and the token string, so the first derivation goes into a
  /// table shared by every copy of this grammar and later calls read it.
  /// Thread-safe. A client controls how many token shapes the mediator
  /// sees, so the table is bounded: once it holds kVerdictCapacity
  /// verdicts it is emptied before the next one goes in. `hit` (optional)
  /// reports whether the table answered.
  bool verdict(const std::vector<Terminal>& tokens,
               bool* hit = nullptr) const;

  /// Serializes `expr` to the terminal alphabet and asks verdict(). Submit
  /// nodes must not appear below the wrapper boundary; Union/Const are not
  /// part of the wrapper language and make accepts() return false.
  bool accepts(const algebra::LogicalPtr& expr) const;

  const std::string& start() const;
  const std::vector<Production>& productions() const;
  /// The productions in the paper's notation, rendered once. Also the
  /// grammar's identity: fedcat::ExtentIndex shards extents by it.
  const std::string& to_text() const;
  /// Verdicts the table holds now.
  size_t cached_verdicts() const;

 private:
  struct Body;
  std::shared_ptr<const Body> body_;
};

/// Serializes a logical expression into the wrapper terminal language:
///   get(e, x)            -> get ( SOURCE )
///   project(p, X)        -> project ( ATTRIBUTE|PATH , <X> )
///   select(pred, X)      -> select ( PREDICATE|EQPREDICATE|PATH... , <X> )
///   join(L, R, pred)     -> join ( <L> , <R> , PREDICATE|... )
/// A predicate serializes as EQPREDICATE when it is a conjunction of
/// equality comparisons only, and to the PATH* variants when it contains
/// a path deeper than one level (x.doc.a); a projection containing such
/// a path serializes as PATH instead of ATTRIBUTE.
/// Returns false when the expression contains operators outside the
/// wrapper language (union, const, submit).
bool serialize(const algebra::LogicalPtr& expr, std::vector<Terminal>& out);

/// The operator-set capability form with a composition flag.
struct CapabilitySet {
  bool get = true;
  bool project = false;
  bool select = false;
  bool join = false;
  bool compose = false;  ///< operators may nest

  /// Generates the production grammar equivalent (the paper's §3.2
  /// construction): without compose, each operator applies to a bare
  /// SOURCE; with compose, argument positions accept any supported form.
  Grammar to_grammar() const;
};

}  // namespace disco::grammar
