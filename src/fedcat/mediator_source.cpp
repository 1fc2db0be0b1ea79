#include "fedcat/mediator_source.hpp"

#include <utility>
#include <vector>

#include "algebra/to_oql.hpp"
#include "common/error.hpp"
#include "core/mediator.hpp"
#include "fedcat/boundary.hpp"
#include "oql/printer.hpp"
#include "server/client.hpp"
#include "server/values.hpp"

namespace disco::fedcat {

namespace {

/// One daemon connection, serialized: server::Client is not thread-safe
/// and replies must pair with their requests.
class RemoteBackend {
 public:
  RemoteBackend(const std::string& host, uint16_t port, double deadline_s)
      : client_(host, port), deadline_s_(deadline_s) {}

  Answer query(const std::string& oql) {
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t id =
        client_.submit_id(oql, deadline_s_, /*subscribe=*/true);
    std::optional<server::Response> event = client_.wait_event(
        id, {server::FrameType::kComplete, server::FrameType::kQueryFailed},
        deadline_s_);
    if (!event.has_value()) {
      client_.cancel(id);
      throw ExecutionError("remote mediator did not complete within " +
                           std::to_string(deadline_s_) + "s: " + oql);
    }
    if (event->type == server::FrameType::kQueryFailed) {
      throw ExecutionError("remote mediator failed query: " + oql);
    }
    return Answer::complete_answer(
        server::json_to_value(event->payload.at("rows")), {});
  }

 private:
  std::mutex mutex_;
  server::Client client_;
  double deadline_s_;
};

}  // namespace

MediatorSource::MediatorSource(QueryFn query) : query_(std::move(query)) {}

std::shared_ptr<MediatorSource> MediatorSource::in_process(Mediator* remote) {
  internal_check(remote != nullptr, "MediatorSource needs a mediator");
  return std::shared_ptr<MediatorSource>(new MediatorSource(
      [remote](const std::string& oql) { return remote->query(oql); }));
}

std::shared_ptr<MediatorSource> MediatorSource::connect(
    const std::string& host, uint16_t port, double deadline_s) {
  auto backend = std::make_shared<RemoteBackend>(host, port, deadline_s);
  return std::shared_ptr<MediatorSource>(new MediatorSource(
      [backend](const std::string& oql) { return backend->query(oql); }));
}

grammar::Grammar MediatorSource::capabilities() const {
  static const grammar::Grammar grammar =
      grammar::CapabilitySet{.get = true,
                             .project = true,
                             .select = true,
                             .join = true,
                             .compose = true}
          .to_grammar();
  return grammar;
}

wrapper::SubmitResult MediatorSource::submit(
    const catalog::Repository& repository, const algebra::LogicalPtr& expr,
    const wrapper::BindingMap& bindings) {
  (void)repository;
  RenamedQuery renamed;
  try {
    renamed = rename_for_remote(expr, bindings);
  } catch (const ExecutionError& e) {
    return wrapper::SubmitResult::refused(e.what());
  }
  const std::string remote_oql =
      oql::to_oql(algebra::reconstruct(renamed.expr));
  {
    std::lock_guard<std::mutex> lock(last_oql_mutex_);
    last_oql_ = remote_oql;
  }

  Answer answer = query_(remote_oql);
  if (!answer.complete()) {
    throw ExecutionError(
        "remote mediator returned a partial answer for: " + remote_oql);
  }

  // Env-shaped results carry remote attribute names inside each
  // variable's row; rename them back into this mediator's name space.
  if (expr->op != algebra::LOp::Project) {
    return wrapper::SubmitResult::ok(
        rename_rows_to_mediator(answer.data(), renamed.var_maps));
  }
  return wrapper::SubmitResult::ok(answer.data());
}

}  // namespace disco::fedcat
