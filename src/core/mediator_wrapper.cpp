#include "core/mediator_wrapper.hpp"

#include "algebra/to_oql.hpp"
#include "common/error.hpp"
#include "fedcat/boundary.hpp"
#include "oql/printer.hpp"

namespace disco {

MediatorWrapper::MediatorWrapper(Mediator* remote) : remote_(remote) {
  internal_check(remote_ != nullptr, "MediatorWrapper needs a mediator");
}

grammar::Grammar MediatorWrapper::capabilities() const {
  static const grammar::Grammar grammar =
      grammar::CapabilitySet{.get = true,
                             .project = true,
                             .select = true,
                             .join = true,
                             .compose = true}
          .to_grammar();
  return grammar;
}

wrapper::SubmitResult MediatorWrapper::submit(
    const catalog::Repository& repository, const algebra::LogicalPtr& expr,
    const wrapper::BindingMap& bindings) {
  (void)repository;
  fedcat::RenamedQuery renamed;
  try {
    renamed = fedcat::rename_for_remote(expr, bindings);
  } catch (const ExecutionError& e) {
    return wrapper::SubmitResult::refused(e.what());
  }
  const std::string remote_oql =
      oql::to_oql(algebra::reconstruct(renamed.expr));
  {
    std::lock_guard<std::mutex> lock(last_oql_mutex_);
    last_oql_ = remote_oql;
  }

  Answer answer = remote_->query(remote_oql);
  if (!answer.complete()) {
    throw ExecutionError(
        "remote mediator returned a partial answer for: " + remote_oql);
  }

  // Env-shaped results carry remote attribute names inside each variable's
  // row; rename them back into this mediator's name space.
  if (expr->op != algebra::LOp::Project) {
    return wrapper::SubmitResult::ok(
        fedcat::rename_rows_to_mediator(answer.data(), renamed.var_maps));
  }
  return wrapper::SubmitResult::ok(answer.data());
}

}  // namespace disco
