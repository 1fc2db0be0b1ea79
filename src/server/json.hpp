// Minimal JSON for the wire protocol (src/server/).
//
// Frame payloads are JSON. The rest of the tree only ever *emits* JSON
// (obs snapshots, Chrome traces); the daemon and its client must also
// *parse* it, so this module carries a small document model plus a
// strict recursive-descent parser — objects, arrays, strings (with full
// escape handling), numbers, booleans, null. No dependencies beyond
// obs::json_escape for symmetric output.
//
// Numbers remember whether they were written as integers, so query ids
// (uint64) round-trip exactly through the id range the session layer
// actually mints; as_uint64() accepts either form when integral.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace disco::server::json {

/// Thrown on malformed documents; the server maps it to a typed ERROR
/// frame ("bad_json"), never a crash.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& message)
      : std::runtime_error(message) {}
};

class Value {
 public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };
  using Member = std::pair<std::string, Value>;

  Value() = default;  // null
  static Value boolean(bool v);
  static Value integer(int64_t v);
  static Value unsigned_integer(uint64_t v);
  static Value real(double v);
  static Value string(std::string v);
  static Value array(std::vector<Value> items);
  static Value object(std::vector<Member> members);

  Kind kind() const { return static_cast<Kind>(data_.index()); }
  bool is_null() const { return kind() == Kind::Null; }

  /// Accessors throw JsonError on kind mismatch.
  bool as_bool() const;
  int64_t as_int64() const;
  /// Either integer form, or a double holding an exact non-negative
  /// integral value.
  uint64_t as_uint64() const;
  double as_double() const;  ///< numeric coercion: Int widens
  const std::string& as_string() const;
  const std::vector<Value>& items() const;            ///< arrays
  const std::vector<Member>& members() const;         ///< objects

  /// Object member by key, or nullptr (nullptr for non-objects too).
  const Value* find(std::string_view key) const;
  /// Object member by key; throws JsonError when missing.
  const Value& at(std::string_view key) const;

  /// Serializes with escaped strings; parse(dump()) round-trips.
  std::string dump() const;

 private:
  /// One alternative per Kind, in Kind's order, so a node is as large as
  /// its largest alternative rather than the sum of all of them.
  std::variant<std::monostate, bool, int64_t, double, std::string,
               std::vector<Value>, std::vector<Member>>
      data_;
};

/// Strict parse of one JSON document (trailing garbage rejected).
/// Throws JsonError.
Value parse(const std::string& text);

}  // namespace disco::server::json
