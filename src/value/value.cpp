#include "value/value.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace disco {

const char* to_string(ValueKind kind) {
  switch (kind) {
    case ValueKind::Null:
      return "null";
    case ValueKind::Bool:
      return "bool";
    case ValueKind::Int:
      return "int";
    case ValueKind::Double:
      return "double";
    case ValueKind::String:
      return "string";
    case ValueKind::Bag:
      return "bag";
    case ValueKind::Set:
      return "set";
    case ValueKind::List:
      return "list";
    case ValueKind::Struct:
      return "struct";
  }
  return "unknown";
}

Value::Value() : payload_(std::monostate{}) {}

Value Value::null() { return Value(); }

Value Value::boolean(bool v) { return Value(Payload(v)); }

Value Value::integer(int64_t v) { return Value(Payload(v)); }

Value Value::real(double v) { return Value(Payload(v)); }

Value Value::string(std::string v) { return Value(Payload(std::move(v))); }

Value Value::bag(std::vector<Value> items) {
  auto coll = std::make_shared<Collection>();
  coll->kind = ValueKind::Bag;
  coll->items = std::move(items);
  return Value(Payload(std::shared_ptr<const Collection>(std::move(coll))));
}

Value Value::set(std::vector<Value> items) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end(),
                          [](const Value& a, const Value& b) {
                            return compare(a, b) == 0;
                          }),
              items.end());
  auto coll = std::make_shared<Collection>();
  coll->kind = ValueKind::Set;
  coll->items = std::move(items);
  return Value(Payload(std::shared_ptr<const Collection>(std::move(coll))));
}

Value Value::list(std::vector<Value> items) {
  auto coll = std::make_shared<Collection>();
  coll->kind = ValueKind::List;
  coll->items = std::move(items);
  return Value(Payload(std::shared_ptr<const Collection>(std::move(coll))));
}

Value Value::strct(std::vector<std::pair<std::string, Value>> fields) {
  auto data = std::make_shared<StructData>();
  data->fields = std::move(fields);
  return Value(Payload(std::shared_ptr<const StructData>(std::move(data))));
}

ValueKind Value::kind() const {
  switch (payload_.index()) {
    case 0:
      return ValueKind::Null;
    case 1:
      return ValueKind::Bool;
    case 2:
      return ValueKind::Int;
    case 3:
      return ValueKind::Double;
    case 4:
      return ValueKind::String;
    case 5:
      return std::get<5>(payload_)->kind;
    case 6:
      return ValueKind::Struct;
  }
  throw InternalError("corrupt value payload");
}

bool Value::is_collection() const {
  ValueKind k = kind();
  return k == ValueKind::Bag || k == ValueKind::Set || k == ValueKind::List;
}

const Value::Collection& Value::collection() const {
  if (payload_.index() != 5) {
    throw ExecutionError(std::string("expected a collection, got ") +
                         to_string(kind()));
  }
  return *std::get<5>(payload_);
}

const Value::StructData& Value::struct_data() const {
  if (payload_.index() != 6) {
    throw ExecutionError(std::string("expected a struct, got ") +
                         to_string(kind()));
  }
  return *std::get<6>(payload_);
}

bool Value::as_bool() const {
  if (auto* v = std::get_if<bool>(&payload_)) return *v;
  throw ExecutionError(std::string("expected bool, got ") +
                       to_string(kind()));
}

int64_t Value::as_int() const {
  if (auto* v = std::get_if<int64_t>(&payload_)) return *v;
  throw ExecutionError(std::string("expected int, got ") + to_string(kind()));
}

double Value::as_double() const {
  if (auto* v = std::get_if<int64_t>(&payload_)) {
    return static_cast<double>(*v);
  }
  if (auto* v = std::get_if<double>(&payload_)) return *v;
  throw ExecutionError(std::string("expected numeric, got ") +
                       to_string(kind()));
}

const std::string& Value::as_string() const {
  if (auto* v = std::get_if<std::string>(&payload_)) return *v;
  throw ExecutionError(std::string("expected string, got ") +
                       to_string(kind()));
}

const std::vector<Value>& Value::items() const { return collection().items; }

const std::vector<std::pair<std::string, Value>>& Value::fields() const {
  return struct_data().fields;
}

const Value& Value::field(std::string_view name) const {
  const Value* found = find_field(name);
  if (found == nullptr) {
    throw ExecutionError("struct has no field named '" + std::string(name) +
                         "'");
  }
  return *found;
}

const Value* Value::find_field(std::string_view name) const {
  for (const auto& [field_name, value] : struct_data().fields) {
    if (field_name == name) return &value;
  }
  return nullptr;
}

size_t Value::size() const {
  ValueKind k = kind();
  if (k == ValueKind::Struct) return struct_data().fields.size();
  if (is_collection()) return collection().items.size();
  return 0;
}

namespace {

/// Rank used by the kind-major total order. Int and Double share a rank so
/// that numeric comparison is value-based, matching operator==.
int kind_rank(ValueKind kind) {
  switch (kind) {
    case ValueKind::Null:
      return 0;
    case ValueKind::Bool:
      return 1;
    case ValueKind::Int:
    case ValueKind::Double:
      return 2;
    case ValueKind::String:
      return 3;
    case ValueKind::Bag:
      return 4;
    case ValueKind::Set:
      return 5;
    case ValueKind::List:
      return 6;
    case ValueKind::Struct:
      return 7;
  }
  return 8;
}

/// Value::compare's order on unboxed numbers, -1 / 0 / +1. Exact: an
/// Int is never rounded through double, and an Int meets a Double by
/// the numbers they denote.
int compare_numbers(int64_t a, int64_t b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

/// NaN ordering rule: IEEE NaN compares unordered against everything,
/// which would make this function return 0 for NaN vs *any* number and
/// silently corrupt every structure built on the total order (the
/// B+-tree index, std::map keyed on Value, set dedup, bag sorting).
/// We give NaN a stable position instead: NaN == NaN, and NaN sorts
/// after every other number, +inf included. Value::hash canonicalizes
/// NaN bit patterns to match.
int compare_numbers(double a, double b) {
  const bool a_nan = std::isnan(a);
  const bool b_nan = std::isnan(b);
  if (a_nan || b_nan) {
    if (a_nan && b_nan) return 0;
    return a_nan ? 1 : -1;
  }
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

/// Converting `a` to double would round every integer beyond 2^53 (2^53
/// and 2^53 + 1 both become 9007199254740992.0), so compare `a` with the
/// integer part of `b`, which is exact inside int64's range, and let the
/// fraction of `b` break a tie.
int compare_numbers(int64_t a, double b) {
  if (std::isnan(b)) return -1;
  constexpr double kTwoTo63 = 9223372036854775808.0;
  if (b >= kTwoTo63) return -1;
  if (b < -kTwoTo63) return 1;
  const double whole = std::trunc(b);
  const auto b_whole = static_cast<int64_t>(whole);
  if (a != b_whole) return a < b_whole ? -1 : 1;
  if (whole < b) return -1;
  if (whole > b) return 1;
  return 0;
}

int compare_numbers(double a, int64_t b) { return -compare_numbers(b, a); }

}  // namespace

int Value::compare(const Value& a, const Value& b) {
  // Integer keys are the hot case (index probes, equi-joins on ids).
  const auto* a_int = std::get_if<int64_t>(&a.payload_);
  const auto* b_int = std::get_if<int64_t>(&b.payload_);
  if (a_int != nullptr && b_int != nullptr) {
    return compare_numbers(*a_int, *b_int);
  }
  int ra = kind_rank(a.kind());
  int rb = kind_rank(b.kind());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (a.kind()) {
    case ValueKind::Null:
      return 0;
    case ValueKind::Bool:
      return static_cast<int>(a.as_bool()) - static_cast<int>(b.as_bool());
    case ValueKind::Int:
      return compare_numbers(*a_int, b.as_double());
    case ValueKind::Double:
      if (b_int != nullptr) return compare_numbers(a.as_double(), *b_int);
      return compare_numbers(a.as_double(), b.as_double());
    case ValueKind::String:
      return a.as_string().compare(b.as_string());
    case ValueKind::Bag:
    case ValueKind::Set:
    case ValueKind::List: {
      // Bags compare by sorted content so that equal multisets are equal
      // regardless of arrival order; lists compare positionally.
      if (a.kind() == ValueKind::List) {
        const auto& ia = a.items();
        const auto& ib = b.items();
        size_t n = std::min(ia.size(), ib.size());
        for (size_t i = 0; i < n; ++i) {
          int c = compare(ia[i], ib[i]);
          if (c != 0) return c;
        }
        if (ia.size() != ib.size()) return ia.size() < ib.size() ? -1 : 1;
        return 0;
      }
      std::vector<Value> ia = a.items();
      std::vector<Value> ib = b.items();
      std::sort(ia.begin(), ia.end());
      std::sort(ib.begin(), ib.end());
      size_t n = std::min(ia.size(), ib.size());
      for (size_t i = 0; i < n; ++i) {
        int c = compare(ia[i], ib[i]);
        if (c != 0) return c;
      }
      if (ia.size() != ib.size()) return ia.size() < ib.size() ? -1 : 1;
      return 0;
    }
    case ValueKind::Struct: {
      const auto& fa = a.fields();
      const auto& fb = b.fields();
      size_t n = std::min(fa.size(), fb.size());
      for (size_t i = 0; i < n; ++i) {
        int c = fa[i].first.compare(fb[i].first);
        if (c != 0) return c;
        c = compare(fa[i].second, fb[i].second);
        if (c != 0) return c;
      }
      if (fa.size() != fb.size()) return fa.size() < fb.size() ? -1 : 1;
      return 0;
    }
  }
  throw InternalError("corrupt value in compare");
}

bool operator==(const Value& a, const Value& b) {
  return Value::compare(a, b) == 0;
}

uint64_t Value::hash() const {
  uint64_t h = 0x9e3779b97f4a7c15ULL * (kind_rank(kind()) + 1);
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  switch (kind()) {
    case ValueKind::Null:
      break;
    case ValueKind::Bool:
      mix(as_bool() ? 1 : 2);
      break;
    case ValueKind::Int:
    case ValueKind::Double: {
      double d = as_double();
      if (d == 0.0) d = 0.0;  // normalize -0.0
      // All NaN bit patterns are one equivalence class under compare()
      // (NaN == NaN), so they must hash alike.
      if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      mix(bits);
      break;
    }
    case ValueKind::String:
      mix(fnv1a(as_string().data(), as_string().size()));
      break;
    case ValueKind::Bag:
    case ValueKind::Set: {
      // Order-independent combination for multiset semantics.
      uint64_t sum = 0;
      for (const Value& item : items()) sum += item.hash();
      mix(sum);
      mix(items().size());
      break;
    }
    case ValueKind::List:
      for (const Value& item : items()) mix(item.hash());
      mix(items().size());
      break;
    case ValueKind::Struct:
      for (const auto& [name, value] : fields()) {
        mix(fnv1a(name.data(), name.size()));
        mix(value.hash());
      }
      break;
  }
  return h;
}

namespace {

/// Heap bytes behind a std::string: zero while the text fits the
/// small-string buffer (those bytes live inside the string object,
/// which the caller already counts), capacity + 1 terminator once it
/// spills. Counting capacity() unconditionally double-counted every
/// short string.
size_t string_heap_bytes(const std::string& s) {
  return s.capacity() > std::string().capacity() ? s.capacity() + 1 : 0;
}

}  // namespace

size_t Value::deep_size() const {
  size_t bytes = sizeof(Value);
  switch (kind()) {
    case ValueKind::Null:
    case ValueKind::Bool:
    case ValueKind::Int:
    case ValueKind::Double:
      break;
    case ValueKind::String:
      // The string object itself is inline in the variant (inside
      // sizeof(Value)); only a spilled buffer adds heap bytes.
      bytes += string_heap_bytes(as_string());
      break;
    case ValueKind::Bag:
    case ValueKind::Set:
    case ValueKind::List:
      bytes += sizeof(Collection);
      for (const Value& item : items()) bytes += item.deep_size();
      break;
    case ValueKind::Struct:
      bytes += sizeof(StructData);
      for (const auto& [name, value] : fields()) {
        // Each entry is pair<string, Value>: the name object plus the
        // value's footprint (deep_size counts the Value object), plus
        // the name's spilled buffer if any.
        bytes += sizeof(std::string) + string_heap_bytes(name) +
                 value.deep_size();
      }
      break;
  }
  return bytes;
}

std::string Value::to_oql() const {
  switch (kind()) {
    case ValueKind::Null:
      return "nil";
    case ValueKind::Bool:
      return as_bool() ? "true" : "false";
    case ValueKind::Int:
      return std::to_string(as_int());
    case ValueKind::Double:
      return format_double(as_double());
    case ValueKind::String:
      return quote_string(as_string());
    case ValueKind::Bag:
    case ValueKind::Set:
    case ValueKind::List: {
      std::vector<std::string> parts;
      parts.reserve(items().size());
      for (const Value& item : items()) parts.push_back(item.to_oql());
      const char* ctor = kind() == ValueKind::Bag   ? "bag"
                         : kind() == ValueKind::Set ? "set"
                                                    : "list";
      return std::string(ctor) + "(" + join(parts, ", ") + ")";
    }
    case ValueKind::Struct: {
      std::vector<std::string> parts;
      parts.reserve(fields().size());
      for (const auto& [name, value] : fields()) {
        parts.push_back(name + ": " + value.to_oql());
      }
      return "struct(" + join(parts, ", ") + ")";
    }
  }
  throw InternalError("corrupt value in to_oql");
}

Value Value::union_with(const Value& a, const Value& b) {
  if (!a.is_collection() || !b.is_collection()) {
    throw ExecutionError("union expects collections, got " +
                         std::string(to_string(a.kind())) + " and " +
                         std::string(to_string(b.kind())));
  }
  std::vector<Value> items = a.items();
  items.insert(items.end(), b.items().begin(), b.items().end());
  if (a.kind() == ValueKind::Set && b.kind() == ValueKind::Set) {
    return Value::set(std::move(items));
  }
  return Value::bag(std::move(items));
}

Value make_row_bag(const std::vector<std::string>& field_names,
                   const std::vector<std::vector<Value>>& rows) {
  std::vector<Value> structs;
  structs.reserve(rows.size());
  for (const auto& row : rows) {
    internal_check(row.size() == field_names.size(),
                   "row arity does not match field names");
    std::vector<std::pair<std::string, Value>> fields;
    fields.reserve(row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      fields.emplace_back(field_names[i], row[i]);
    }
    structs.push_back(Value::strct(std::move(fields)));
  }
  return Value::bag(std::move(structs));
}

}  // namespace disco
