// Error taxonomy shared by every DISCO subsystem.
//
// DISCO distinguishes programming/usage errors (thrown as DiscoError
// subclasses) from *expected* distributed-system conditions such as an
// unavailable data source, which are modelled as ordinary return values
// (see physical/runtime.hpp) because the paper's §4 semantics turns them
// into partial answers, not failures.
#pragma once

#include <stdexcept>
#include <string>

namespace disco {

/// Which subsystem / phase detected the error.
enum class ErrorKind {
  Lex,         ///< tokenizer rejected the input text
  Parse,       ///< ODL/OQL/MiniSQL syntax error
  Type,        ///< type mismatch between mediator type and value/source
  Catalog,     ///< unknown extent/type/wrapper/repository, duplicate defs
  Capability,  ///< expression submitted to a wrapper that refuses it
  Execution,   ///< runtime evaluation error (bad field, bad operand, ...)
  Internal,    ///< invariant violation: a bug in DISCO itself
};

/// Human-readable name of an ErrorKind ("parse error", ...).
const char* to_string(ErrorKind kind);

/// Root of the DISCO exception hierarchy.
class DiscoError : public std::runtime_error {
 public:
  DiscoError(ErrorKind kind, const std::string& message);
  ErrorKind kind() const { return kind_; }

 private:
  ErrorKind kind_;
};

class LexError : public DiscoError {
 public:
  /// `line`/`column` are 1-based positions in the offending text.
  LexError(const std::string& message, int line, int column);
  int line() const { return line_; }
  int column() const { return column_; }

 private:
  int line_;
  int column_;
};

class ParseError : public DiscoError {
 public:
  ParseError(const std::string& message, int line, int column);
  int line() const { return line_; }
  int column() const { return column_; }

 private:
  int line_;
  int column_;
};

class TypeError : public DiscoError {
 public:
  explicit TypeError(const std::string& message);
};

class CatalogError : public DiscoError {
 public:
  explicit CatalogError(const std::string& message);
};

class CapabilityError : public DiscoError {
 public:
  explicit CapabilityError(const std::string& message);
};

class ExecutionError : public DiscoError {
 public:
  explicit ExecutionError(const std::string& message);
};

class InternalError : public DiscoError {
 public:
  explicit InternalError(const std::string& message);
};

/// Throws InternalError(message). Out of line, so the checks below stay
/// a compare and a branch.
[[noreturn]] void internal_fail(const char* message);
[[noreturn]] void internal_fail(const std::string& message);

/// Throws InternalError when `condition` is false. Use for invariants that
/// indicate a DISCO bug rather than bad user input. A string literal picks
/// this overload and costs nothing when the check passes; a message built
/// by concatenation is built on every call, so such sites test the
/// condition first and throw InternalError themselves.
inline void internal_check(bool condition, const char* message) {
  if (!condition) [[unlikely]] internal_fail(message);
}
inline void internal_check(bool condition, const std::string& message) {
  if (!condition) [[unlikely]] internal_fail(message);
}

}  // namespace disco
