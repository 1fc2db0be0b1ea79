#include "wrapper/csv_wrapper.hpp"

#include "common/error.hpp"

namespace disco::wrapper {

void CsvWrapper::attach_table(const std::string& repository_name,
                              csv::CsvTable table) {
  tables_[repository_name][table.name] = std::move(table);
}

grammar::Grammar CsvWrapper::capabilities() const {
  static const grammar::Grammar grammar =
      grammar::CapabilitySet{.get = true}.to_grammar();
  return grammar;
}

SubmitResult CsvWrapper::submit(const catalog::Repository& repository,
                                const algebra::LogicalPtr& expr,
                                const BindingMap& bindings) {
  if (expr->op != algebra::LOp::Get) {
    return SubmitResult::refused(
        "csv sources only support get(SOURCE), got " +
        algebra::to_algebra_string(expr));
  }
  auto repo_it = tables_.find(repository.name);
  if (repo_it == tables_.end()) {
    throw CatalogError("csv wrapper has no tables for repository '" +
                       repository.name + "'");
  }
  auto binding_it = bindings.find(expr->extent);
  if (binding_it == bindings.end()) {
    throw InternalError("missing binding for extent '" + expr->extent + "'");
  }
  const ExtentBinding& binding = binding_it->second;
  auto table_it = repo_it->second.find(binding.source_relation);
  if (table_it == repo_it->second.end()) {
    return SubmitResult::refused("repository '" + repository.name +
                                 "' has no relation '" +
                                 binding.source_relation + "'");
  }
  const csv::CsvTable& table = table_it->second;
  std::vector<Value> items;
  items.reserve(table.rows.size());
  for (const std::vector<Value>& row : table.rows) {
    std::vector<std::pair<std::string, Value>> fields;
    fields.reserve(row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      fields.emplace_back(binding.map->to_mediator_attribute(table.columns[i]),
                          row[i]);
    }
    items.push_back(Value::strct(
        {{expr->var, Value::strct(std::move(fields))}}));
  }
  return SubmitResult::ok(Value::bag(std::move(items)));
}

}  // namespace disco::wrapper
