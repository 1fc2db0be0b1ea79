#include "vec/batch.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.hpp"

namespace disco::vec {

const char* to_string(ColType type) {
  switch (type) {
    case ColType::Untyped:
      return "untyped";
    case ColType::Bool:
      return "bool";
    case ColType::Int:
      return "int";
    case ColType::Double:
      return "double";
    case ColType::String:
      return "string";
  }
  return "?";
}

const char* to_string(RowShape shape) {
  switch (shape) {
    case RowShape::Scalar:
      return "scalar";
    case RowShape::Flat:
      return "flat";
    case RowShape::Env:
      return "env";
  }
  return "?";
}

void Column::push_null_bit(bool null) {
  const size_t word = size_ >> 6;
  if (word >= nulls_.size()) nulls_.push_back(0);
  if (null) {
    nulls_[word] |= uint64_t{1} << (size_ & 63);
    ++null_count_;
  }
  ++size_;
}

bool Column::settle(ColType type) {
  if (type_ == type) return true;
  if (type_ != ColType::Untyped) return false;
  type_ = type;
  // Leading nulls were recorded in the bitmap only; backfill their
  // storage slots so cell index == vector index.
  switch (type_) {
    case ColType::Bool:
      bools_.resize(size_, 0);
      break;
    case ColType::Int:
      ints_.resize(size_, 0);
      break;
    case ColType::Double:
      doubles_.resize(size_, 0);
      break;
    case ColType::String:
      strings_.resize(size_);
      break;
    case ColType::Untyped:
      break;
  }
  return true;
}

void Column::append_null() {
  switch (type_) {
    case ColType::Untyped:
      break;
    case ColType::Bool:
      bools_.push_back(0);
      break;
    case ColType::Int:
      ints_.push_back(0);
      break;
    case ColType::Double:
      doubles_.push_back(0);
      break;
    case ColType::String:
      strings_.emplace_back();
      break;
  }
  push_null_bit(true);
}

bool Column::append(const Value& value) {
  switch (value.kind()) {
    case ValueKind::Null:
      append_null();
      return true;
    case ValueKind::Bool:
      if (!settle(ColType::Bool)) return false;
      bools_.push_back(value.as_bool() ? 1 : 0);
      break;
    case ValueKind::Int:
      if (!settle(ColType::Int)) return false;
      ints_.push_back(value.as_int());
      break;
    case ValueKind::Double:
      if (!settle(ColType::Double)) return false;
      doubles_.push_back(value.as_double());
      break;
    case ValueKind::String:
      if (!settle(ColType::String)) return false;
      strings_.push_back(value.as_string());
      break;
    default:
      return false;  // collections and structs never fit a column
  }
  push_null_bit(false);
  return true;
}

void Column::append_cell(const Column& from, size_t row) {
  if (from.is_null(row)) {
    append_null();
    return;
  }
  internal_check(settle(from.type_), "gather across differently-typed columns");
  switch (from.type_) {
    case ColType::Bool:
      bools_.push_back(from.bools_[row]);
      break;
    case ColType::Int:
      ints_.push_back(from.ints_[row]);
      break;
    case ColType::Double:
      doubles_.push_back(from.doubles_[row]);
      break;
    case ColType::String:
      strings_.push_back(from.strings_[row]);
      break;
    case ColType::Untyped:
      break;
  }
  push_null_bit(false);
}

Value Column::value_at(size_t row) const {
  if (is_null(row)) return Value::null();
  switch (type_) {
    case ColType::Bool:
      return Value::boolean(bools_[row] != 0);
    case ColType::Int:
      return Value::integer(ints_[row]);
    case ColType::Double:
      return Value::real(doubles_[row]);
    case ColType::String:
      return Value::string(strings_[row]);
    case ColType::Untyped:
      break;
  }
  throw InternalError("non-null cell in an untyped column");
}

void Column::reserve(size_t rows) {
  nulls_.reserve((rows + 63) / 64);
  switch (type_) {
    case ColType::Bool:
      bools_.reserve(rows);
      break;
    case ColType::Int:
      ints_.reserve(rows);
      break;
    case ColType::Double:
      doubles_.reserve(rows);
      break;
    case ColType::String:
      strings_.reserve(rows);
      break;
    case ColType::Untyped:
      break;
  }
}

namespace {

/// Value::compare's kind-major rank restricted to scalars.
int cell_rank(ColType type) {
  switch (type) {
    case ColType::Untyped:
      return 0;  // only nulls live here
    case ColType::Bool:
      return 1;
    case ColType::Int:
    case ColType::Double:
      return 2;
    case ColType::String:
      return 3;
  }
  return 4;
}

uint64_t fnv1a(const char* data, size_t n) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

int Column::compare_cells(size_t row, const Column& other,
                          size_t other_row) const {
  const bool a_null = is_null(row);
  const bool b_null = other.is_null(other_row);
  if (a_null || b_null) {
    if (a_null && b_null) return 0;
    return a_null ? -1 : 1;  // nil ranks below every scalar
  }
  const int ra = cell_rank(type_);
  const int rb = cell_rank(other.type_);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (type_) {
    case ColType::Bool:
      return static_cast<int>(bools_[row]) -
             static_cast<int>(other.bools_[other_row]);
    case ColType::Int:
      return other.type_ == ColType::Int
                 ? compare_numbers(ints_[row], other.ints_[other_row])
                 : compare_numbers(ints_[row], other.doubles_[other_row]);
    case ColType::Double:
      return other.type_ == ColType::Int
                 ? compare_numbers(doubles_[row], other.ints_[other_row])
                 : compare_numbers(doubles_[row], other.doubles_[other_row]);
    case ColType::String:
      return strings_[row].compare(other.strings_[other_row]);
    case ColType::Untyped:
      break;
  }
  throw InternalError("non-null cell in an untyped column");
}

int Column::compare_cell_value(size_t row, const Value& value) const {
  const bool a_null = is_null(row);
  const bool b_null = value.kind() == ValueKind::Null;
  if (a_null || b_null) {
    if (a_null && b_null) return 0;
    return a_null ? -1 : 1;
  }
  int rb;
  switch (value.kind()) {
    case ValueKind::Bool:
      rb = 1;
      break;
    case ValueKind::Int:
    case ValueKind::Double:
      rb = 2;
      break;
    case ValueKind::String:
      rb = 3;
      break;
    default:
      rb = 4;  // collections and structs rank above every scalar
      break;
  }
  const int ra = cell_rank(type_);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (type_) {
    case ColType::Bool:
      return static_cast<int>(bools_[row]) -
             static_cast<int>(value.as_bool() ? 1 : 0);
    case ColType::Int:
      return value.kind() == ValueKind::Int
                 ? compare_numbers(ints_[row], value.as_int())
                 : compare_numbers(ints_[row], value.as_double());
    case ColType::Double:
      return value.kind() == ValueKind::Int
                 ? compare_numbers(doubles_[row], value.as_int())
                 : compare_numbers(doubles_[row], value.as_double());
    case ColType::String:
      return strings_[row].compare(value.as_string());
    case ColType::Untyped:
      break;
  }
  throw InternalError("non-null cell in an untyped column");
}

uint64_t Column::hash_cell(size_t row) const {
  if (is_null(row)) return 0x2545f4914f6cdd1dULL;
  switch (type_) {
    case ColType::Bool:
      return bools_[row] ? 0x9e3779b97f4a7c15ULL : 0xc2b2ae3d27d4eb4fULL;
    case ColType::Int:
    case ColType::Double: {
      // Int 1 and Double 1.0 are equal cells, so they must collide:
      // hash the double image's bits (normalizing -0.0), like
      // Value::hash.
      double d = type_ == ColType::Int ? static_cast<double>(ints_[row])
                                       : doubles_[row];
      if (d == 0.0) d = 0.0;
      if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      bits *= 0xff51afd7ed558ccdULL;
      bits ^= bits >> 33;
      return bits;
    }
    case ColType::String:
      return fnv1a(strings_[row].data(), strings_[row].size());
    case ColType::Untyped:
      break;
  }
  throw InternalError("non-null cell in an untyped column");
}

bool Schema::same_layout(const Schema& other) const {
  if (shape != other.shape || columns.size() != other.columns.size()) {
    return false;
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].var != other.columns[i].var ||
        columns[i].name != other.columns[i].name) {
      return false;
    }
  }
  return true;
}

int Schema::index_of(std::string_view var, std::string_view name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].var == var && columns[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

size_t Table::rows() const {
  size_t n = 0;
  for (const ColumnBatch& batch : batches) n += batch.rows;
  return n;
}

namespace {

bool is_scalar_kind(ValueKind kind) {
  switch (kind) {
    case ValueKind::Null:
    case ValueKind::Bool:
    case ValueKind::Int:
    case ValueKind::Double:
    case ValueKind::String:
      return true;
    default:
      return false;
  }
}

/// Derives the common layout from the first row. nullopt when the row
/// is not flat (nested collections, mixed struct/scalar fields, an env
/// var with zero attributes).
std::optional<Schema> schema_of(const Value& row) {
  Schema schema;
  if (is_scalar_kind(row.kind())) {
    schema.shape = RowShape::Scalar;
    schema.columns.push_back({"", ""});
    return schema;
  }
  if (row.kind() != ValueKind::Struct) return std::nullopt;
  const auto& fields = row.fields();
  const bool env = !fields.empty() &&
                   fields.front().second.kind() == ValueKind::Struct;
  if (env) {
    schema.shape = RowShape::Env;
    for (const auto& [var, inner] : fields) {
      if (inner.kind() != ValueKind::Struct) return std::nullopt;
      if (inner.fields().empty()) {
        // A var with zero attributes has no column to live in; rebuilding
        // would drop the var entirely. Decline.
        return std::nullopt;
      }
      for (const auto& [attr, cell] : inner.fields()) {
        if (!is_scalar_kind(cell.kind())) return std::nullopt;
        schema.columns.push_back({var, attr});
      }
    }
    return schema;
  }
  schema.shape = RowShape::Flat;
  for (const auto& [name, cell] : fields) {
    if (!is_scalar_kind(cell.kind())) return std::nullopt;
    schema.columns.push_back({"", name});
  }
  return schema;
}

/// Appends one row's cells; false when the row does not match `schema`'s
/// layout or a cell fights its column's settled type.
bool append_row(const Schema& schema, const Value& row, ColumnBatch* batch) {
  switch (schema.shape) {
    case RowShape::Scalar:
      if (!is_scalar_kind(row.kind())) return false;
      if (!batch->columns[0]->append(row)) return false;
      break;
    case RowShape::Flat: {
      if (row.kind() != ValueKind::Struct) return false;
      const auto& fields = row.fields();
      if (fields.size() != schema.columns.size()) return false;
      for (size_t i = 0; i < fields.size(); ++i) {
        if (fields[i].first != schema.columns[i].name) return false;
        if (!batch->columns[i]->append(fields[i].second)) return false;
      }
      break;
    }
    case RowShape::Env: {
      if (row.kind() != ValueKind::Struct) return false;
      size_t col = 0;
      for (const auto& [var, inner] : row.fields()) {
        if (inner.kind() != ValueKind::Struct) return false;
        for (const auto& [attr, cell] : inner.fields()) {
          if (col >= schema.columns.size() ||
              schema.columns[col].var != var ||
              schema.columns[col].name != attr) {
            return false;
          }
          if (!batch->columns[col]->append(cell)) return false;
          ++col;
        }
      }
      if (col != schema.columns.size()) return false;
      break;
    }
  }
  ++batch->rows;
  return true;
}

ColumnBatch make_batch(const Schema& schema, size_t reserve_rows) {
  ColumnBatch batch;
  batch.columns.reserve(schema.columns.size());
  for (size_t i = 0; i < schema.columns.size(); ++i) {
    auto column = std::make_shared<Column>();
    column->reserve(reserve_rows);
    batch.columns.push_back(std::move(column));
  }
  return batch;
}

}  // namespace

std::optional<Table> from_rows(const std::vector<Value>& rows,
                               size_t batch_rows) {
  internal_check(batch_rows > 0, "batch_rows must be positive");
  Table table;
  if (rows.empty()) return table;  // zero-column Flat layout, zero batches
  std::optional<Schema> schema = schema_of(rows.front());
  if (!schema) return std::nullopt;
  table.schema = std::move(*schema);
  for (size_t i = 0; i < rows.size(); i += batch_rows) {
    const size_t n = std::min(batch_rows, rows.size() - i);
    ColumnBatch batch = make_batch(table.schema, n);
    for (size_t j = 0; j < n; ++j) {
      if (!append_row(table.schema, rows[i + j], &batch)) return std::nullopt;
    }
    table.batches.push_back(std::move(batch));
  }
  return table;
}

Value row_at(const Schema& schema, const ColumnBatch& batch, size_t row) {
  switch (schema.shape) {
    case RowShape::Scalar:
      return batch.columns[0]->value_at(row);
    case RowShape::Flat: {
      std::vector<std::pair<std::string, Value>> fields;
      fields.reserve(schema.columns.size());
      for (size_t i = 0; i < schema.columns.size(); ++i) {
        fields.emplace_back(schema.columns[i].name,
                            batch.columns[i]->value_at(row));
      }
      return Value::strct(std::move(fields));
    }
    case RowShape::Env: {
      // Columns of one var are consecutive (the converter built them by
      // nested iteration); rebuild by var runs.
      std::vector<std::pair<std::string, Value>> vars;
      size_t i = 0;
      while (i < schema.columns.size()) {
        const std::string& var = schema.columns[i].var;
        std::vector<std::pair<std::string, Value>> attrs;
        while (i < schema.columns.size() && schema.columns[i].var == var) {
          attrs.emplace_back(schema.columns[i].name,
                             batch.columns[i]->value_at(row));
          ++i;
        }
        vars.emplace_back(var, Value::strct(std::move(attrs)));
      }
      return Value::strct(std::move(vars));
    }
  }
  throw InternalError("corrupt schema shape");
}

std::vector<Value> to_rows(const Table& table) {
  std::vector<Value> rows;
  rows.reserve(table.rows());
  for (const ColumnBatch& batch : table.batches) {
    for (size_t row = 0; row < batch.rows; ++row) {
      rows.push_back(row_at(table.schema, batch, row));
    }
  }
  return rows;
}

int compare_rows(const ColumnBatch& a, size_t row_a, const ColumnBatch& b,
                 size_t row_b) {
  for (size_t i = 0; i < a.columns.size(); ++i) {
    int c = a.columns[i]->compare_cells(row_a, *b.columns[i], row_b);
    if (c != 0) return c;
  }
  return 0;
}

uint64_t hash_row(const ColumnBatch& batch, size_t row) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const std::shared_ptr<Column>& column : batch.columns) {
    const uint64_t cell = column->hash_cell(row);
    h ^= cell + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace disco::vec
