#include "wrapper/memdb_wrapper.hpp"

#include <optional>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "oql/printer.hpp"

namespace disco::wrapper {

namespace {

using algebra::LOp;
using algebra::Logical;
using algebra::LogicalPtr;

/// What the reassembled answer looks like (see wrapper.hpp contract).
enum class Shape { Env, Scalar, Struct };

struct Translation {
  std::string sql;
  Shape shape = Shape::Env;
  /// FROM-order (var, extent) pairs; used to regroup env structs.
  std::vector<std::pair<std::string, std::string>> vars;
  /// Mediator field names for Shape::Struct, aligned with the select list.
  std::vector<std::string> struct_fields;
};

struct Refusal {
  std::string reason;
};

/// Either a translation or a reason it cannot be expressed in MiniSQL.
template <typename T>
using OrRefusal = std::variant<T, Refusal>;

const ExtentBinding& binding_for(const BindingMap& bindings,
                                 const std::string& extent) {
  auto it = bindings.find(extent);
  if (it == bindings.end()) {
    throw InternalError("runtime did not provide a binding for extent '" +
                        extent + "'");
  }
  return it->second;
}

class Translator {
 public:
  Translator(const BindingMap& bindings) : bindings_(bindings) {}

  OrRefusal<Translation> run(const LogicalPtr& expr) {
    LogicalPtr body = expr;
    std::optional<std::pair<oql::ExprPtr, bool>> projection;
    if (expr->op == LOp::Project) {
      projection = {expr->projection, expr->distinct};
      body = expr->child;
    }
    if (auto refusal = collect(body)) return *refusal;

    std::string select_list;
    Shape shape = Shape::Env;
    std::vector<std::string> struct_fields;
    if (projection.has_value()) {
      if (projection->second) {
        return Refusal{"MiniSQL has no DISTINCT"};
      }
      const oql::Expr& proj = *projection->first;
      if (proj.kind == oql::ExprKind::Path) {
        auto column = translate_path(proj);
        if (std::holds_alternative<Refusal>(column)) {
          return std::get<Refusal>(column);
        }
        select_list = std::get<std::string>(column);
        shape = Shape::Scalar;
      } else if (proj.kind == oql::ExprKind::StructCtor) {
        std::vector<std::string> columns;
        for (const auto& [field_name, field_expr] : proj.struct_fields) {
          if (field_expr->kind != oql::ExprKind::Path) {
            return Refusal{"projection field '" + field_name +
                           "' is not a plain attribute"};
          }
          auto column = translate_path(*field_expr);
          if (std::holds_alternative<Refusal>(column)) {
            return std::get<Refusal>(column);
          }
          columns.push_back(std::get<std::string>(column));
          struct_fields.push_back(field_name);
        }
        select_list = join(columns, ", ");
        shape = Shape::Struct;
      } else {
        return Refusal{"projection '" + oql::to_oql(proj) +
                       "' is not expressible in MiniSQL"};
      }
    } else {
      select_list = "*";
    }

    std::string sql = "SELECT " + select_list + " FROM ";
    std::vector<std::string> tables;
    for (const auto& [var, extent] : from_) {
      tables.push_back(binding_for(bindings_, extent).source_relation + " " +
                       var);
    }
    sql += join(tables, ", ");
    if (!where_.empty()) {
      sql += " WHERE " + join(where_, " AND ");
    }

    Translation out;
    out.sql = std::move(sql);
    out.shape = shape;
    out.vars = from_;
    out.struct_fields = std::move(struct_fields);
    return out;
  }

 private:
  /// Walks the env-shaped body collecting FROM entries and WHERE conjuncts.
  std::optional<Refusal> collect(const LogicalPtr& node) {
    switch (node->op) {
      case LOp::Get:
        from_.emplace_back(node->var, node->extent);
        var_extent_[node->var] = node->extent;
        return std::nullopt;
      case LOp::Filter: {
        if (auto refusal = collect(node->child)) return refusal;
        return add_predicate(node->predicate);
      }
      case LOp::Join: {
        if (auto refusal = collect(node->left)) return refusal;
        if (auto refusal = collect(node->right)) return refusal;
        if (node->predicate != nullptr) {
          return add_predicate(node->predicate);
        }
        return std::nullopt;
      }
      case LOp::Project:
        return Refusal{"nested projection is not expressible in MiniSQL"};
      case LOp::Union:
      case LOp::Const:
      case LOp::Submit:
        return Refusal{std::string("operator '") + to_string(node->op) +
                       "' is outside the wrapper language"};
    }
    return Refusal{"corrupt logical expression"};
  }

  std::optional<Refusal> add_predicate(const oql::ExprPtr& predicate) {
    auto text = translate_pred(*predicate);
    if (std::holds_alternative<Refusal>(text)) {
      return std::get<Refusal>(text);
    }
    where_.push_back(std::get<std::string>(text));
    return std::nullopt;
  }

  OrRefusal<std::string> translate_pred(const oql::Expr& expr) {
    using oql::BinaryOp;
    using oql::ExprKind;
    if (expr.kind == ExprKind::Unary &&
        expr.unary_op == oql::UnaryOp::Not) {
      auto inner = translate_pred(*expr.child);
      if (std::holds_alternative<Refusal>(inner)) return inner;
      return "NOT (" + std::get<std::string>(inner) + ")";
    }
    if (expr.kind != ExprKind::Binary) {
      return Refusal{"predicate '" + oql::to_oql(expr) +
                     "' is not expressible in MiniSQL"};
    }
    switch (expr.binary_op) {
      case BinaryOp::And:
      case BinaryOp::Or: {
        auto left = translate_pred(*expr.left);
        if (std::holds_alternative<Refusal>(left)) return left;
        auto right = translate_pred(*expr.right);
        if (std::holds_alternative<Refusal>(right)) return right;
        const char* op = expr.binary_op == BinaryOp::And ? " AND " : " OR ";
        return "(" + std::get<std::string>(left) + op +
               std::get<std::string>(right) + ")";
      }
      case BinaryOp::Eq:
      case BinaryOp::Ne:
      case BinaryOp::Lt:
      case BinaryOp::Le:
      case BinaryOp::Gt:
      case BinaryOp::Ge: {
        auto left = translate_operand(*expr.left);
        if (std::holds_alternative<Refusal>(left)) return left;
        auto right = translate_operand(*expr.right);
        if (std::holds_alternative<Refusal>(right)) return right;
        const char* op = nullptr;
        switch (expr.binary_op) {
          case BinaryOp::Eq:
            op = " = ";
            break;
          case BinaryOp::Ne:
            op = " <> ";
            break;
          case BinaryOp::Lt:
            op = " < ";
            break;
          case BinaryOp::Le:
            op = " <= ";
            break;
          case BinaryOp::Gt:
            op = " > ";
            break;
          default:
            op = " >= ";
            break;
        }
        return std::get<std::string>(left) + op +
               std::get<std::string>(right);
      }
      default:
        return Refusal{"operator '" +
                       std::string(to_string(expr.binary_op)) +
                       "' is not expressible in MiniSQL"};
    }
  }

  OrRefusal<std::string> translate_operand(const oql::Expr& expr) {
    if (expr.kind == oql::ExprKind::Literal) {
      const Value& v = expr.literal;
      if (v.is_collection() || v.kind() == ValueKind::Struct) {
        return Refusal{"collection literal in a source predicate"};
      }
      // OQL spells the nil literal `nil`; MiniSQL spells it NULL (a bind
      // join ships nil keys).
      if (v.is_null()) return std::string("NULL");
      return v.to_oql();
    }
    if (expr.kind == oql::ExprKind::Path) {
      return translate_path(expr);
    }
    return Refusal{"operand '" + oql::to_oql(expr) +
                   "' is not expressible in MiniSQL"};
  }

  /// var.attr -> "var.src_attr" with the extent's map applied.
  OrRefusal<std::string> translate_path(const oql::Expr& expr) {
    internal_check(expr.kind == oql::ExprKind::Path, "expected a path");
    if (expr.child->kind != oql::ExprKind::Ident) {
      return Refusal{"path '" + oql::to_oql(expr) +
                     "' is not a variable attribute"};
    }
    const std::string& var = expr.child->name;
    auto it = var_extent_.find(var);
    if (it == var_extent_.end()) {
      return Refusal{"variable '" + var + "' is not bound at this source"};
    }
    const ExtentBinding& binding = binding_for(bindings_, it->second);
    return var + "." + binding.map->to_source_attribute(expr.name);
  }

  const BindingMap& bindings_;
  std::vector<std::pair<std::string, std::string>> from_;
  std::unordered_map<std::string, std::string> var_extent_;
  std::vector<std::string> where_;
};

}  // namespace

MemDbWrapper::MemDbWrapper(grammar::CapabilitySet capabilities)
    : grammar_(capabilities.to_grammar()) {}

void MemDbWrapper::attach_database(const std::string& repository_name,
                                   memdb::Database* database) {
  internal_check(database != nullptr, "null database");
  databases_[repository_name] = database;
}

void MemDbWrapper::set_grammar(grammar::Grammar grammar) {
  grammar_ = std::move(grammar);
}

grammar::Grammar MemDbWrapper::capabilities() const { return grammar_; }

SubmitResult MemDbWrapper::submit(const catalog::Repository& repository,
                                  const algebra::LogicalPtr& expr,
                                  const BindingMap& bindings) {
  auto db_it = databases_.find(repository.name);
  if (db_it == databases_.end()) {
    throw CatalogError("wrapper has no database for repository '" +
                       repository.name + "'");
  }
  // Run-time capability check (§2.1: "At run-time, the wrapper checks").
  if (!grammar_.accepts(expr)) {
    return SubmitResult::refused("expression rejected by the capability "
                                 "grammar: " +
                                 algebra::to_algebra_string(expr));
  }

  Translator translator(bindings);
  auto result = translator.run(expr);
  if (std::holds_alternative<Refusal>(result)) {
    return SubmitResult::refused(std::get<Refusal>(result).reason);
  }
  const Translation& translation = std::get<Translation>(result);
  {
    std::lock_guard<std::mutex> lock(last_sql_mutex_);
    last_sql_ = translation.sql;
  }

  // The language boundary: ship *text*, let the source parse and run it.
  memdb::Engine engine(db_it->second);
  memdb::ResultSet rs = engine.execute_sql(translation.sql);

  const memdb::Engine::Stats& q = engine.last_stats();
  {
    std::lock_guard<std::mutex> lock(last_sql_mutex_);
    stats_.rows_scanned += q.rows_scanned;
    stats_.rows_matched += q.rows_matched;
    stats_.rows_returned += q.rows_returned;
    stats_.index_hits += q.index_hits;
    stats_.index_probes += q.index_probes;
    stats_.rows_joined += q.rows_joined;
    stats_.hash_joins += q.hash_joins;
    stats_.merge_joins += q.merge_joins;
    stats_.nested_loop_joins += q.nested_loop_joins;
  }
  double compute_s = 0;
  if (cost_model_.enabled) {
    compute_s = cost_model_.base_s +
                cost_model_.per_row_scanned_s * double(q.rows_scanned) +
                cost_model_.per_index_probe_s * double(q.index_probes);
  }

  std::vector<Value> items;
  items.reserve(rs.rows.size());
  switch (translation.shape) {
    case Shape::Scalar:
      for (const memdb::Row& row : rs.rows) items.push_back(row[0]);
      break;
    case Shape::Struct:
      for (const memdb::Row& row : rs.rows) {
        std::vector<std::pair<std::string, Value>> fields;
        for (size_t i = 0; i < translation.struct_fields.size(); ++i) {
          fields.emplace_back(translation.struct_fields[i], row[i]);
        }
        items.push_back(Value::strct(std::move(fields)));
      }
      break;
    case Shape::Env: {
      // Group result columns by table alias (= binding variable) and
      // rename every source attribute back into the mediator name space.
      for (const memdb::Row& row : rs.rows) {
        std::vector<std::pair<std::string, Value>> env;
        for (const auto& [var, extent] : translation.vars) {
          const ExtentBinding& binding = binding_for(bindings, extent);
          std::vector<std::pair<std::string, Value>> fields;
          for (size_t c = 0; c < rs.columns.size(); ++c) {
            if (rs.columns[c].alias != var) continue;
            fields.emplace_back(
                binding.map->to_mediator_attribute(rs.columns[c].name),
                row[c]);
          }
          env.emplace_back(var, Value::strct(std::move(fields)));
        }
        items.push_back(Value::strct(std::move(env)));
      }
      break;
    }
  }
  SubmitResult out = SubmitResult::ok(Value::bag(std::move(items)));
  out.compute_s = compute_s;
  return out;
}

std::vector<std::pair<std::string, uint64_t>> MemDbWrapper::stat_gauges()
    const {
  const memdb::Engine::Stats s = stats();
  return {{"memdb.rows_scanned", s.rows_scanned},
          {"memdb.rows_matched", s.rows_matched},
          {"memdb.rows_returned", s.rows_returned},
          {"memdb.index_hits", s.index_hits},
          {"memdb.index_probes", s.index_probes},
          {"memdb.rows_joined", s.rows_joined}};
}

}  // namespace disco::wrapper
