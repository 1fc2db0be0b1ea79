#include "server/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/trace.hpp"  // json_escape

namespace disco::server::json {

// -------------------------------------------------------------------- Value --

Value Value::boolean(bool v) {
  Value out;
  out.data_ = v;
  return out;
}

Value Value::integer(int64_t v) {
  Value out;
  out.data_ = v;
  return out;
}

Value Value::unsigned_integer(uint64_t v) {
  // Session ids are minted from 1 upward; they always fit int64 in
  // practice, but keep the top bit safe by widening to double there.
  if (v <= static_cast<uint64_t>(INT64_MAX)) {
    return integer(static_cast<int64_t>(v));
  }
  return real(static_cast<double>(v));
}

Value Value::real(double v) {
  Value out;
  out.data_ = v;
  return out;
}

Value Value::string(std::string v) {
  Value out;
  out.data_ = std::move(v);
  return out;
}

Value Value::array(std::vector<Value> items) {
  Value out;
  out.data_ = std::move(items);
  return out;
}

Value Value::object(std::vector<Member> members) {
  Value out;
  out.data_ = std::move(members);
  return out;
}

namespace {

[[noreturn]] void kind_mismatch(const char* wanted) {
  throw JsonError(std::string("JSON value is not ") + wanted);
}

}  // namespace

bool Value::as_bool() const {
  if (const bool* v = std::get_if<bool>(&data_)) return *v;
  kind_mismatch("a boolean");
}

int64_t Value::as_int64() const {
  if (const int64_t* v = std::get_if<int64_t>(&data_)) return *v;
  const double* d = std::get_if<double>(&data_);
  if (d != nullptr && *d == std::floor(*d) &&
      *d >= static_cast<double>(INT64_MIN) &&
      *d <= static_cast<double>(INT64_MAX)) {
    return static_cast<int64_t>(*d);
  }
  kind_mismatch("an integer");
}

uint64_t Value::as_uint64() const {
  const int64_t* i = std::get_if<int64_t>(&data_);
  if (i != nullptr && *i >= 0) return static_cast<uint64_t>(*i);
  const double* d = std::get_if<double>(&data_);
  if (d != nullptr && *d >= 0 && *d == std::floor(*d) && *d <= 1.8e19) {
    return static_cast<uint64_t>(*d);
  }
  kind_mismatch("a non-negative integer");
}

double Value::as_double() const {
  if (const int64_t* v = std::get_if<int64_t>(&data_)) {
    return static_cast<double>(*v);
  }
  if (const double* v = std::get_if<double>(&data_)) return *v;
  kind_mismatch("a number");
}

const std::string& Value::as_string() const {
  if (const std::string* v = std::get_if<std::string>(&data_)) return *v;
  kind_mismatch("a string");
}

const std::vector<Value>& Value::items() const {
  if (const auto* v = std::get_if<std::vector<Value>>(&data_)) return *v;
  kind_mismatch("an array");
}

const std::vector<Value::Member>& Value::members() const {
  if (const auto* v = std::get_if<std::vector<Member>>(&data_)) return *v;
  kind_mismatch("an object");
}

const Value* Value::find(std::string_view key) const {
  const auto* members = std::get_if<std::vector<Member>>(&data_);
  if (members == nullptr) return nullptr;
  for (const Member& member : *members) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* found = find(key);
  if (found == nullptr) {
    throw JsonError("missing JSON member '" + std::string(key) + "'");
  }
  return *found;
}

std::string Value::dump() const {
  switch (kind()) {
    case Kind::Null:
      return "null";
    case Kind::Bool:
      return as_bool() ? "true" : "false";
    case Kind::Int:
      return std::to_string(std::get<int64_t>(data_));
    case Kind::Double: {
      const double v = std::get<double>(data_);
      if (!std::isfinite(v)) return v > 0 ? "1e308" : "-1e308";
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%.17g", v);
      return buffer;
    }
    case Kind::String:
      return '"' + obs::json_escape(as_string()) + '"';
    case Kind::Array: {
      const std::vector<Value>& values = items();
      std::string out = "[";
      for (size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += ',';
        out += values[i].dump();
      }
      return out + ']';
    }
    case Kind::Object: {
      const std::vector<Member>& fields = members();
      std::string out = "{";
      for (size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) out += ',';
        out += '"' + obs::json_escape(fields[i].first) + "\":";
        out += fields[i].second.dump();
      }
      return out + '}';
    }
  }
  return "null";
}

// ------------------------------------------------------------------- parser --

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value run() {
    Value out = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return out;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& why) const {
    throw JsonError("JSON parse error at byte " + std::to_string(pos_) +
                    ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of document");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) == 0) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Value value() {
    if (depth_ > kMaxDepth) fail("document nests too deeply");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return Value::string(string_body());
      case 't':
        if (consume_literal("true")) return Value::boolean(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Value::boolean(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Value{};
        fail("bad literal");
      default:
        return number();
    }
  }

  Value object() {
    ++depth_;
    expect('{');
    std::vector<Value::Member> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return Value::object(std::move(members));
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("object keys must be strings");
      std::string key = string_body();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      break;
    }
    --depth_;
    return Value::object(std::move(members));
  }

  Value array() {
    ++depth_;
    expect('[');
    std::vector<Value> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return Value::array(std::move(items));
    }
    for (;;) {
      items.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      break;
    }
    --depth_;
    return Value::array(std::move(items));
  }

  void append_utf8(std::string& out, uint32_t code_point) {
    if (code_point < 0x80) {
      out += static_cast<char>(code_point);
    } else if (code_point < 0x800) {
      out += static_cast<char>(0xC0 | (code_point >> 6));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else if (code_point < 0x10000) {
      out += static_cast<char>(0xE0 | (code_point >> 12));
      out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code_point >> 18));
      out += static_cast<char>(0x80 | ((code_point >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    }
  }

  uint32_t hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape");
      }
    }
    return out;
  }

  std::string string_body() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          uint32_t code_point = hex4();
          if (code_point >= 0xD800 && code_point <= 0xDBFF) {
            // Surrogate pair.
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              const uint32_t low = hex4();
              if (low < 0xDC00 || low > 0xDFFF) fail("bad low surrogate");
              code_point = 0x10000 + ((code_point - 0xD800) << 10) +
                           (low - 0xDC00);
            } else {
              fail("lone high surrogate");
            }
          } else if (code_point >= 0xDC00 && code_point <= 0xDFFF) {
            fail("lone low surrogate");
          }
          append_utf8(out, code_point);
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  Value number() {
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(
               static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("bad number");
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      const size_t frac = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == frac) fail("bad number: no digits after '.'");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      const size_t exp = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == exp) fail("bad number: no digits in exponent");
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long parsed = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        return Value::integer(parsed);
      }
      // Out of int64 range: fall through to double.
    }
    const double parsed = std::strtod(token.c_str(), nullptr);
    // Overflow (e.g. "1e999") yields inf: a non-finite Double would
    // corrupt the mediator's total order, and dump() could not round-trip
    // it anyway (JSON has no inf/nan literals). Strict parse rejects it.
    if (!std::isfinite(parsed)) fail("number out of range: " + token);
    return Value::real(parsed);
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).run(); }

}  // namespace disco::server::json
