#include "vec/ops.hpp"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "common/error.hpp"

namespace disco::vec {

namespace {

ValueKind kind_of(ColType type) {
  switch (type) {
    case ColType::Bool:
      return ValueKind::Bool;
    case ColType::Int:
      return ValueKind::Int;
    case ColType::Double:
      return ValueKind::Double;
    case ColType::String:
      return ValueKind::String;
    case ColType::Untyped:
      break;
  }
  return ValueKind::Null;
}

ValueKind cell_kind(const Column& column, size_t row) {
  return column.is_null(row) ? ValueKind::Null : kind_of(column.type());
}

bool is_numeric_kind(ValueKind kind) {
  return kind == ValueKind::Int || kind == ValueKind::Double;
}

/// compare_result's orderability rule: </<=/>/>= need mutually
/// comparable scalars; anything else (nil included) throws.
bool ordered_kinds(ValueKind a, ValueKind b) {
  return (is_numeric_kind(a) && is_numeric_kind(b)) ||
         (a == ValueKind::String && b == ValueKind::String) ||
         (a == ValueKind::Bool && b == ValueKind::Bool);
}

bool is_ordering_op(oql::BinaryOp op) {
  return op == oql::BinaryOp::Lt || op == oql::BinaryOp::Le ||
         op == oql::BinaryOp::Gt || op == oql::BinaryOp::Ge;
}

[[noreturn]] void throw_unordered(ValueKind a, ValueKind b) {
  // Byte-identical to oql::Evaluator's compare_result error.
  throw ExecutionError(std::string("cannot order ") + to_string(a) +
                       " against " + to_string(b));
}

bool apply_op(oql::BinaryOp op, int c) {
  switch (op) {
    case oql::BinaryOp::Eq:
      return c == 0;
    case oql::BinaryOp::Ne:
      return c != 0;
    case oql::BinaryOp::Lt:
      return c < 0;
    case oql::BinaryOp::Le:
      return c <= 0;
    case oql::BinaryOp::Gt:
      return c > 0;
    case oql::BinaryOp::Ge:
      return c >= 0;
    default:
      throw InternalError("non-comparison op in predicate program");
  }
}

ValueKind literal_kind(const Value& v) { return v.kind(); }

/// Tight loops for the dominant shapes: a null-free numeric or string
/// column against a literal of the same kind family. Returns false when
/// no specialization applies (the generic per-row path then runs).
bool eval_cmp_fast(const PredNode& node, const ColumnBatch& batch,
                   const std::vector<uint8_t>& candidates,
                   std::vector<uint8_t>* out) {
  if (node.left_col < 0 || node.right_col >= 0) return false;
  const Column& col = *batch.columns[node.left_col];
  if (col.has_nulls()) return false;
  const Value& lit = node.right_lit;
  const oql::BinaryOp op = node.op;
  const size_t n = batch.rows;
  if ((col.type() == ColType::Int || col.type() == ColType::Double) &&
      is_numeric_kind(lit.kind())) {
    // compare_numbers on the unboxed pair, as compare_cell_value does.
    auto compare_all = [&](const auto* cells, auto rhs) {
      for (size_t i = 0; i < n; ++i) {
        if (!candidates[i]) continue;
        (*out)[i] = apply_op(op, compare_numbers(cells[i], rhs));
      }
    };
    const bool int_literal = lit.kind() == ValueKind::Int;
    if (col.type() == ColType::Int) {
      int_literal ? compare_all(col.ints().data(), lit.as_int())
                  : compare_all(col.ints().data(), lit.as_double());
    } else {
      int_literal ? compare_all(col.doubles().data(), lit.as_int())
                  : compare_all(col.doubles().data(), lit.as_double());
    }
    return true;
  }
  if (col.type() == ColType::String && lit.kind() == ValueKind::String) {
    const std::string& rhs = lit.as_string();
    const std::vector<std::string>& cells = col.strings();
    for (size_t i = 0; i < n; ++i) {
      if (!candidates[i]) continue;
      (*out)[i] = apply_op(op, cells[i].compare(rhs));
    }
    return true;
  }
  return false;
}

void eval_cmp(const PredNode& node, const ColumnBatch& batch,
              const std::vector<uint8_t>& candidates,
              std::vector<uint8_t>* out) {
  if (eval_cmp_fast(node, batch, candidates, out)) return;
  const Column* lc =
      node.left_col >= 0 ? batch.columns[node.left_col].get() : nullptr;
  const Column* rc =
      node.right_col >= 0 ? batch.columns[node.right_col].get() : nullptr;
  const bool ordering = is_ordering_op(node.op);
  for (size_t i = 0; i < batch.rows; ++i) {
    if (!candidates[i]) continue;
    const ValueKind lk = lc != nullptr ? cell_kind(*lc, i)
                                       : literal_kind(node.left_lit);
    const ValueKind rk = rc != nullptr ? cell_kind(*rc, i)
                                       : literal_kind(node.right_lit);
    if (ordering && !ordered_kinds(lk, rk)) throw_unordered(lk, rk);
    int c;
    if (lc != nullptr && rc != nullptr) {
      c = lc->compare_cells(i, *rc, i);
    } else if (lc != nullptr) {
      c = lc->compare_cell_value(i, node.right_lit);
    } else {
      c = -rc->compare_cell_value(i, node.left_lit);
    }
    (*out)[i] = apply_op(node.op, c);
  }
}

/// Masked evaluation: each node sees only the rows the row-at-a-time
/// evaluator would reach given and/or short-circuiting, so data-dependent
/// errors fire on exactly the same rows.
std::vector<uint8_t> eval_node(const PredNode& node, const ColumnBatch& batch,
                               const std::vector<uint8_t>& candidates) {
  const size_t n = batch.rows;
  switch (node.kind) {
    case PredNode::Kind::Const: {
      if (!node.const_value) return std::vector<uint8_t>(n, 0);
      return candidates;
    }
    case PredNode::Kind::Cmp: {
      std::vector<uint8_t> out(n, 0);
      eval_cmp(node, batch, candidates, &out);
      return out;
    }
    case PredNode::Kind::And: {
      std::vector<uint8_t> a = eval_node(*node.a, batch, candidates);
      return eval_node(*node.b, batch, a);
    }
    case PredNode::Kind::Or: {
      std::vector<uint8_t> a = eval_node(*node.a, batch, candidates);
      std::vector<uint8_t> rest(n, 0);
      for (size_t i = 0; i < n; ++i) rest[i] = candidates[i] && !a[i];
      std::vector<uint8_t> b = eval_node(*node.b, batch, rest);
      for (size_t i = 0; i < n; ++i) a[i] = a[i] || b[i];
      return a;
    }
    case PredNode::Kind::Not: {
      std::vector<uint8_t> a = eval_node(*node.a, batch, candidates);
      std::vector<uint8_t> out(n, 0);
      for (size_t i = 0; i < n; ++i) out[i] = candidates[i] && !a[i];
      return out;
    }
  }
  throw InternalError("corrupt predicate program");
}

bool is_scalar_literal(const Value& v) {
  switch (v.kind()) {
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

/// Resolves a comparison operand: a var.attr path into a column index,
/// or a scalar literal. False on anything else.
bool resolve_operand(const oql::ExprPtr& e, const Schema& schema, int* col,
                     Value* lit) {
  if (e->kind == oql::ExprKind::Literal) {
    if (!is_scalar_literal(e->literal)) return false;
    *lit = e->literal;
    return true;
  }
  if (e->kind == oql::ExprKind::Path &&
      e->child->kind == oql::ExprKind::Ident) {
    const int idx = schema.index_of(e->child->name, e->name);
    if (idx < 0) return false;
    *col = idx;
    return true;
  }
  return false;
}

std::unique_ptr<PredNode> compile_node(const oql::ExprPtr& e,
                                       const Schema& schema) {
  switch (e->kind) {
    case oql::ExprKind::Literal: {
      if (e->literal.kind() != ValueKind::Bool) return nullptr;
      auto node = std::make_unique<PredNode>();
      node->kind = PredNode::Kind::Const;
      node->const_value = e->literal.as_bool();
      return node;
    }
    case oql::ExprKind::Unary: {
      if (e->unary_op != oql::UnaryOp::Not) return nullptr;
      auto a = compile_node(e->child, schema);
      if (a == nullptr) return nullptr;
      auto node = std::make_unique<PredNode>();
      node->kind = PredNode::Kind::Not;
      node->a = std::move(a);
      return node;
    }
    case oql::ExprKind::Binary: {
      if (e->binary_op == oql::BinaryOp::And ||
          e->binary_op == oql::BinaryOp::Or) {
        auto a = compile_node(e->left, schema);
        auto b = compile_node(e->right, schema);
        if (a == nullptr || b == nullptr) return nullptr;
        auto node = std::make_unique<PredNode>();
        node->kind = e->binary_op == oql::BinaryOp::And ? PredNode::Kind::And
                                                        : PredNode::Kind::Or;
        node->a = std::move(a);
        node->b = std::move(b);
        return node;
      }
      switch (e->binary_op) {
        case oql::BinaryOp::Eq:
        case oql::BinaryOp::Ne:
        case oql::BinaryOp::Lt:
        case oql::BinaryOp::Le:
        case oql::BinaryOp::Gt:
        case oql::BinaryOp::Ge:
          break;
        default:
          return nullptr;  // arithmetic inside predicates: row path
      }
      auto node = std::make_unique<PredNode>();
      node->kind = PredNode::Kind::Cmp;
      node->op = e->binary_op;
      if (!resolve_operand(e->left, schema, &node->left_col,
                           &node->left_lit) ||
          !resolve_operand(e->right, schema, &node->right_col,
                           &node->right_lit)) {
        return nullptr;
      }
      if (node->left_col < 0 && node->right_col < 0) {
        return nullptr;  // literal-vs-literal: constant folding is the
                         // evaluator's job, keep the row path
      }
      return node;
    }
    default:
      return nullptr;
  }
}

}  // namespace

std::optional<PredicateProgram> compile_predicate(const oql::ExprPtr& expr,
                                                  const Schema& schema) {
  if (expr == nullptr || schema.shape != RowShape::Env) return std::nullopt;
  std::unique_ptr<PredNode> root = compile_node(expr, schema);
  if (root == nullptr) return std::nullopt;
  PredicateProgram program;
  program.root = std::move(root);
  return program;
}

std::vector<uint8_t> eval_predicate(const PredicateProgram& program,
                                    const ColumnBatch& batch,
                                    const std::vector<uint8_t>& candidates) {
  internal_check(candidates.size() == batch.rows,
                 "candidate mask must cover the batch");
  return eval_node(*program.root, batch, candidates);
}

std::optional<ProjectionProgram> compile_projection(const oql::ExprPtr& expr,
                                                    const Schema& schema) {
  if (expr == nullptr || schema.shape != RowShape::Env) return std::nullopt;
  ProjectionProgram program;
  if (expr->kind == oql::ExprKind::Ident) {
    // `select x ...`: the whole var becomes a Flat struct of its attrs.
    bool found = false;
    for (size_t i = 0; i < schema.columns.size(); ++i) {
      if (schema.columns[i].var != expr->name) continue;
      found = true;
      program.cols.push_back(static_cast<int>(i));
      program.out_schema.columns.push_back({"", schema.columns[i].name});
    }
    if (!found) return std::nullopt;
    program.out_schema.shape = RowShape::Flat;
    return program;
  }
  if (expr->kind == oql::ExprKind::Path &&
      expr->child->kind == oql::ExprKind::Ident) {
    const int idx = schema.index_of(expr->child->name, expr->name);
    if (idx < 0) return std::nullopt;
    program.cols.push_back(idx);
    program.out_schema.shape = RowShape::Scalar;
    program.out_schema.columns.push_back({"", ""});
    return program;
  }
  if (expr->kind == oql::ExprKind::StructCtor) {
    if (expr->struct_fields.empty()) return std::nullopt;
    for (const auto& [name, field] : expr->struct_fields) {
      if (field->kind != oql::ExprKind::Path ||
          field->child->kind != oql::ExprKind::Ident) {
        return std::nullopt;
      }
      const int idx = schema.index_of(field->child->name, field->name);
      if (idx < 0) return std::nullopt;
      program.cols.push_back(idx);
      program.out_schema.columns.push_back({"", name});
    }
    program.out_schema.shape = RowShape::Flat;
    return program;
  }
  return std::nullopt;
}

namespace {

ColumnBatch fresh_batch(size_t columns, size_t reserve_rows) {
  ColumnBatch batch;
  batch.columns.reserve(columns);
  for (size_t i = 0; i < columns; ++i) {
    auto column = std::make_shared<Column>();
    column->reserve(reserve_rows);
    batch.columns.push_back(std::move(column));
  }
  return batch;
}

void gather_row(const ColumnBatch& from, size_t row, ColumnBatch* into) {
  for (size_t c = 0; c < from.columns.size(); ++c) {
    into->columns[c]->append_cell(*from.columns[c], row);
  }
  ++into->rows;
}

}  // namespace

Table filter_table(const Table& in, const PredicateProgram& program) {
  Table out;
  out.schema = in.schema;
  for (const ColumnBatch& batch : in.batches) {
    if (batch.rows == 0) continue;
    const std::vector<uint8_t> all(batch.rows, 1);
    const std::vector<uint8_t> mask = eval_predicate(program, batch, all);
    size_t pass = 0;
    for (size_t i = 0; i < batch.rows; ++i) pass += mask[i];
    if (pass == 0) continue;
    if (pass == batch.rows) {
      out.batches.push_back(batch);  // shares columns, no copy
      continue;
    }
    ColumnBatch gathered = fresh_batch(batch.columns.size(), pass);
    for (size_t i = 0; i < batch.rows; ++i) {
      if (mask[i]) gather_row(batch, i, &gathered);
    }
    out.batches.push_back(std::move(gathered));
  }
  return out;
}

Table project_table(const Table& in, const ProjectionProgram& program) {
  Table out;
  out.schema = program.out_schema;
  for (const ColumnBatch& batch : in.batches) {
    ColumnBatch projected;
    projected.rows = batch.rows;
    projected.columns.reserve(program.cols.size());
    for (int col : program.cols) {
      projected.columns.push_back(batch.columns[col]);
    }
    out.batches.push_back(std::move(projected));
  }
  return out;
}

Table distinct_table(const Table& in, size_t batch_rows) {
  struct Ref {
    uint32_t batch;
    uint32_t row;
  };
  std::unordered_map<uint64_t, std::vector<Ref>> seen;
  std::vector<Ref> keep;
  for (uint32_t b = 0; b < in.batches.size(); ++b) {
    const ColumnBatch& batch = in.batches[b];
    for (uint32_t r = 0; r < batch.rows; ++r) {
      std::vector<Ref>& bucket = seen[hash_row(batch, r)];
      bool duplicate = false;
      for (const Ref& ref : bucket) {
        if (compare_rows(in.batches[ref.batch], ref.row, batch, r) == 0) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      bucket.push_back({b, r});
      keep.push_back({b, r});
    }
  }
  Table out;
  out.schema = in.schema;
  for (size_t i = 0; i < keep.size(); i += batch_rows) {
    const size_t n = std::min(batch_rows, keep.size() - i);
    ColumnBatch gathered = fresh_batch(in.schema.columns.size(), n);
    for (size_t j = 0; j < n; ++j) {
      const Ref& ref = keep[i + j];
      gather_row(in.batches[ref.batch], ref.row, &gathered);
    }
    out.batches.push_back(std::move(gathered));
  }
  return out;
}

Table hash_join_tables(const Table& left, const Table& right, int left_col,
                       int right_col, const PredicateProgram* residual,
                       size_t batch_rows) {
  internal_check(left.schema.shape == RowShape::Env &&
                     right.schema.shape == RowShape::Env,
                 "hash join needs env-shaped inputs");
  Table out;
  out.schema.shape = RowShape::Env;
  out.schema.columns = left.schema.columns;
  out.schema.columns.insert(out.schema.columns.end(),
                            right.schema.columns.begin(),
                            right.schema.columns.end());

  struct Ref {
    uint32_t batch;
    uint32_t row;
  };
  std::unordered_map<uint64_t, std::vector<Ref>> buckets;
  for (uint32_t b = 0; b < right.batches.size(); ++b) {
    const Column& key = *right.batches[b].columns[right_col];
    for (uint32_t r = 0; r < right.batches[b].rows; ++r) {
      buckets[key.hash_cell(r)].push_back({b, r});
    }
  }

  const size_t left_width = left.schema.columns.size();
  ColumnBatch pending = fresh_batch(out.schema.columns.size(), batch_rows);
  auto flush = [&] {
    if (pending.rows == 0) return;
    if (residual != nullptr) {
      const std::vector<uint8_t> all(pending.rows, 1);
      const std::vector<uint8_t> mask =
          eval_predicate(*residual, pending, all);
      size_t pass = 0;
      for (size_t i = 0; i < pending.rows; ++i) pass += mask[i];
      if (pass > 0 && pass < pending.rows) {
        ColumnBatch gathered = fresh_batch(pending.columns.size(), pass);
        for (size_t i = 0; i < pending.rows; ++i) {
          if (mask[i]) gather_row(pending, i, &gathered);
        }
        out.batches.push_back(std::move(gathered));
      } else if (pass == pending.rows) {
        out.batches.push_back(std::move(pending));
      }
    } else {
      out.batches.push_back(std::move(pending));
    }
    pending = fresh_batch(out.schema.columns.size(), batch_rows);
  };

  for (const ColumnBatch& lbatch : left.batches) {
    if (lbatch.rows == 0) continue;
    const Column& lkey = *lbatch.columns[left_col];
    for (uint32_t lr = 0; lr < lbatch.rows; ++lr) {
      auto it = buckets.find(lkey.hash_cell(lr));
      if (it == buckets.end()) continue;
      for (const Ref& ref : it->second) {
        const ColumnBatch& rbatch = right.batches[ref.batch];
        if (lkey.compare_cells(lr, *rbatch.columns[right_col], ref.row) !=
            0) {
          continue;  // hash collision
        }
        for (size_t c = 0; c < left_width; ++c) {
          pending.columns[c]->append_cell(*lbatch.columns[c], lr);
        }
        for (size_t c = 0; c < rbatch.columns.size(); ++c) {
          pending.columns[left_width + c]->append_cell(*rbatch.columns[c],
                                                       ref.row);
        }
        ++pending.rows;
        if (pending.rows >= batch_rows) flush();
      }
    }
  }
  flush();
  return out;
}

bool concat_tables(Table* into, Table&& part) {
  if (part.rows() == 0) return true;
  if (into->rows() == 0) {
    *into = std::move(part);
    return true;
  }
  if (!into->schema.same_layout(part.schema)) return false;
  for (ColumnBatch& batch : part.batches) {
    into->batches.push_back(std::move(batch));
  }
  return true;
}

std::optional<Value> aggregate_table(const Table& table,
                                     const std::string& fn) {
  const size_t rows = table.rows();
  if (fn == "count") return Value::integer(static_cast<int64_t>(rows));
  if (fn != "sum" && fn != "min" && fn != "max" && fn != "avg") {
    return std::nullopt;
  }
  if (rows == 0) {
    // eval_call: empty sum is Int 0, empty avg is real 0, empty min/max
    // throws — decline so the evaluator raises its own error.
    if (fn == "sum") return Value::integer(0);
    if (fn == "avg") return Value::real(0.0);
    return std::nullopt;
  }
  if (table.schema.shape != RowShape::Scalar ||
      table.schema.columns.size() != 1) {
    return std::nullopt;
  }
  if (fn == "min" || fn == "max") {
    // Value::compare over scalars, first-wins on ties (strict compare),
    // exactly as the evaluator's scan.
    const ColumnBatch* best_batch = &table.batches.front();
    size_t best_row = 0;
    for (const ColumnBatch& batch : table.batches) {
      for (size_t r = 0; r < batch.rows; ++r) {
        if (&batch == best_batch && r == 0) continue;
        const int c = batch.columns[0]->compare_cells(
            r, *best_batch->columns[0], best_row);
        if ((fn == "min" && c < 0) || (fn == "max" && c > 0)) {
          best_batch = &batch;
          best_row = r;
        }
      }
    }
    return best_batch->columns[0]->value_at(best_row);
  }
  // sum/avg: numeric, null-free columns only; the evaluator adds every
  // item as a double in row order — reproduce that exact accumulation.
  bool all_int = true;
  double total = 0;
  int64_t int_total = 0;
  for (const ColumnBatch& batch : table.batches) {
    const Column& column = *batch.columns[0];
    if (column.has_nulls()) return std::nullopt;
    if (column.type() == ColType::Int) {
      for (size_t r = 0; r < batch.rows; ++r) {
        total += static_cast<double>(column.ints()[r]);
        int_total += column.ints()[r];
      }
    } else if (column.type() == ColType::Double) {
      all_int = false;
      for (size_t r = 0; r < batch.rows; ++r) total += column.doubles()[r];
    } else {
      return std::nullopt;
    }
  }
  if (fn == "sum") {
    return all_int ? Value::integer(int_total) : Value::real(total);
  }
  return Value::real(total / static_cast<double>(rows));
}

std::optional<Schema> static_schema(const algebra::LogicalPtr& remote,
                                    const catalog::Catalog& catalog) {
  Schema schema;
  schema.shape = RowShape::Env;
  std::function<bool(const algebra::LogicalPtr&)> collect =
      [&](const algebra::LogicalPtr& node) -> bool {
    switch (node->op) {
      case algebra::LOp::Get: {
        if (!catalog.has_extent(node->extent)) return false;
        const catalog::MetaExtent& extent = catalog.extent(node->extent);
        const std::vector<Attribute> attrs =
            catalog.types().all_attributes(extent.interface);
        if (attrs.empty()) return false;
        for (const Attribute& attr : attrs) {
          schema.columns.push_back({node->var, attr.name});
        }
        return true;
      }
      case algebra::LOp::Filter:
        return collect(node->child);
      case algebra::LOp::Join:
        return collect(node->left) && collect(node->right);
      default:
        return false;  // project-topped replies carry computed values
    }
  };
  if (!collect(remote)) return std::nullopt;
  return schema;
}

}  // namespace disco::vec
