// The ODMG-93 value system used throughout DISCO (§2 of the paper).
//
// A Value is null, a scalar (bool / 64-bit int / double / string), one of
// the three ODMG collection kinds (bag, set, list) or a struct with named
// fields. Values are immutable once built into a collection; copying is
// cheap (collections and structs are shared).
//
// Printing produces *OQL literal syntax* — e.g. bag("Mary", "Sam"),
// struct(name: "Mary", salary: 200) — because DISCO's partial-evaluation
// semantics (§4) requires data to be embeddable inside answers that are
// themselves queries. The OQL parser accepts everything this prints.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace disco {

enum class ValueKind { Null, Bool, Int, Double, String, Bag, Set, List, Struct };

/// Human-readable kind name ("bag", "struct", ...).
const char* to_string(ValueKind kind);

class Value {
 public:
  /// Constructs null.
  Value();

  // -- factories -----------------------------------------------------------
  static Value null();
  static Value boolean(bool v);
  static Value integer(int64_t v);
  static Value real(double v);
  static Value string(std::string v);
  static Value bag(std::vector<Value> items);
  /// Set: duplicates (under operator==) are removed; order is normalized.
  static Value set(std::vector<Value> items);
  static Value list(std::vector<Value> items);
  static Value strct(std::vector<std::pair<std::string, Value>> fields);

  // -- inspection -----------------------------------------------------------
  ValueKind kind() const;
  bool is_null() const { return kind() == ValueKind::Null; }
  bool is_collection() const;
  bool is_numeric() const {
    return kind() == ValueKind::Int || kind() == ValueKind::Double;
  }

  /// Accessors throw ExecutionError when the kind does not match.
  bool as_bool() const;
  int64_t as_int() const;
  /// Numeric coercion: Int widens to double.
  double as_double() const;
  const std::string& as_string() const;
  /// Items of a bag/set/list.
  const std::vector<Value>& items() const;
  /// Fields of a struct, in declaration order.
  const std::vector<std::pair<std::string, Value>>& fields() const;
  /// Struct field lookup by name; throws ExecutionError when absent.
  const Value& field(std::string_view name) const;
  /// Struct field lookup that reports absence instead of throwing.
  const Value* find_field(std::string_view name) const;

  /// Number of items (collections) or fields (structs); 0 otherwise.
  size_t size() const;

  // -- algebra ---------------------------------------------------------------
  /// Deep structural equality. Int 1 == Double 1.0 (ODMG numeric equality);
  /// bag equality is multiset equality; set equality ignores order.
  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// Total order over all values (kind-major, then content). Used to
  /// normalize sets and to give deterministic printing of bags in tests.
  /// Numbers compare exactly (an Int is never rounded through double),
  /// so distinct integers beyond 2^53 stay distinct while Int 1 ==
  /// Double 1.0.
  /// NaN has a stable position in the order: NaN == NaN, and NaN sorts
  /// after every other number (+inf included) — IEEE unordered semantics
  /// would corrupt every index and dedup structure built on this order.
  static int compare(const Value& a, const Value& b);
  friend bool operator<(const Value& a, const Value& b) {
    return compare(a, b) < 0;
  }

  /// Hash consistent with operator== (numeric values hash by double:
  /// equal numbers have one double image; distinct ones may share it).
  uint64_t hash() const;

  /// Approximate in-memory footprint in bytes, counting shared payloads
  /// at every reference (an upper bound under structural sharing). Used
  /// for cache byte budgets, not exact allocator accounting. Strings
  /// count heap bytes only when they spill the small-string buffer —
  /// the inline buffer is already inside sizeof(Value) / the field pair
  /// (counting capacity() unconditionally double-counted every short
  /// string, inflating cache budgets by ~2x on string-heavy rows).
  size_t deep_size() const;

  /// OQL literal text; see file comment.
  std::string to_oql() const;

  /// Bag union preserving multiplicities ("the union of two bags is a
  /// bag", §1.3). Both operands must be collections; result is a bag
  /// unless both are sets (then set union).
  static Value union_with(const Value& a, const Value& b);

 private:
  struct Collection {
    ValueKind kind;
    std::vector<Value> items;
  };
  struct StructData {
    std::vector<std::pair<std::string, Value>> fields;
  };

  using Payload =
      std::variant<std::monostate, bool, int64_t, double, std::string,
                   std::shared_ptr<const Collection>,
                   std::shared_ptr<const StructData>>;

  explicit Value(Payload payload) : payload_(std::move(payload)) {}

  const Collection& collection() const;
  const StructData& struct_data() const;

  Payload payload_;
};

/// Convenience: bag of structs from parallel (names, rows) — used by data
/// sources when reformatting answers for the mediator.
Value make_row_bag(const std::vector<std::string>& field_names,
                   const std::vector<std::vector<Value>>& rows);

}  // namespace disco
