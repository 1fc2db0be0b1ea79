#include "common/error.hpp"

namespace disco {

namespace {

std::string with_position(const std::string& message, int line, int column) {
  return message + " (at line " + std::to_string(line) + ", column " +
         std::to_string(column) + ")";
}

}  // namespace

const char* to_string(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::Lex:
      return "lex error";
    case ErrorKind::Parse:
      return "parse error";
    case ErrorKind::Type:
      return "type error";
    case ErrorKind::Catalog:
      return "catalog error";
    case ErrorKind::Capability:
      return "capability error";
    case ErrorKind::Execution:
      return "execution error";
    case ErrorKind::Internal:
      return "internal error";
  }
  return "unknown error";
}

DiscoError::DiscoError(ErrorKind kind, const std::string& message)
    : std::runtime_error(std::string(to_string(kind)) + ": " + message),
      kind_(kind) {}

LexError::LexError(const std::string& message, int line, int column)
    : DiscoError(ErrorKind::Lex, with_position(message, line, column)),
      line_(line),
      column_(column) {}

ParseError::ParseError(const std::string& message, int line, int column)
    : DiscoError(ErrorKind::Parse, with_position(message, line, column)),
      line_(line),
      column_(column) {}

TypeError::TypeError(const std::string& message)
    : DiscoError(ErrorKind::Type, message) {}

CatalogError::CatalogError(const std::string& message)
    : DiscoError(ErrorKind::Catalog, message) {}

CapabilityError::CapabilityError(const std::string& message)
    : DiscoError(ErrorKind::Capability, message) {}

ExecutionError::ExecutionError(const std::string& message)
    : DiscoError(ErrorKind::Execution, message) {}

InternalError::InternalError(const std::string& message)
    : DiscoError(ErrorKind::Internal, message) {}

void internal_fail(const char* message) { throw InternalError(message); }

void internal_fail(const std::string& message) {
  throw InternalError(message);
}

}  // namespace disco
