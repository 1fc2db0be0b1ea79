#include "physical/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/error.hpp"
#include "oql/printer.hpp"

namespace disco::physical {

namespace {

/// The record of one call of an exec leaf or bind-join probe `node` that
/// ships `remote` (rendered as `remote_key`, or null) and is recorded in
/// the cost history under `cost_key`.
SourceCall exec_call(const Physical& node, algebra::LogicalPtr remote,
                     algebra::CostKeyPtr remote_key,
                     algebra::CostKeyPtr cost_key) {
  SourceCall call;
  call.repository = node.repository;
  call.wrapper = node.wrapper;
  call.remote = std::move(remote);
  call.remote_key = std::move(remote_key);
  call.residual = node.logical;
  call.cost_key = std::move(cost_key);
  return call;
}

/// A call that ships the node's own remote: an exec leaf, or a bind-join
/// probe that shipped no keys.
SourceCall exec_call(const Physical& node) {
  return exec_call(node, node.remote, node.remote_key, node.remote_key);
}

/// The shipped expression's text, for trace tags.
std::string remote_text(const SourceCall& call) {
  return call.remote_key != nullptr ? call.remote_key->text
                                    : algebra::to_algebra_string(call.remote);
}

const char* shed_reason_name(sched::QueryScheduler::ShedReason reason) {
  switch (reason) {
    case sched::QueryScheduler::ShedReason::QueueFull:
      return "queue_full";
    case sched::QueryScheduler::ShedReason::Deadline:
      return "queue_deadline";
    default:
      return "drained";
  }
}

/// Maps every variable bound by a get node of `node` to its extent's
/// interface.
void collect_interfaces(const catalog::Catalog& catalog,
                        const algebra::LogicalPtr& node,
                        std::unordered_map<std::string, std::string>* out) {
  switch (node->op) {
    case algebra::LOp::Get:
      (*out)[node->var] = catalog.extent(node->extent).interface;
      return;
    case algebra::LOp::Filter:
      collect_interfaces(catalog, node->child, out);
      return;
    case algebra::LOp::Join:
      collect_interfaces(catalog, node->left, out);
      collect_interfaces(catalog, node->right, out);
      return;
    default:
      return;
  }
}

/// §2.1's run-time type check: every variable's rows must inhabit the
/// extent's interface (TypeError otherwise). Project-topped replies carry
/// computed values, not typed rows, and are skipped.
void check_rows(const catalog::Catalog& catalog,
                const algebra::LogicalPtr& remote, const Value& data) {
  if (remote->op == algebra::LOp::Project) return;
  std::unordered_map<std::string, std::string> by_var;
  collect_interfaces(catalog, remote, &by_var);
  for (const Value& env : data.items()) {
    for (const auto& [var, row] : env.fields()) {
      auto it = by_var.find(var);
      if (it != by_var.end()) catalog.types().check_row(it->second, row);
    }
  }
}

}  // namespace

Runtime::Runtime(ExecContext context)
    : context_(std::move(context)), evaluator_(context_.resolver) {
  internal_check(context_.catalog != nullptr && context_.network != nullptr &&
                     context_.clock != nullptr,
                 "runtime needs catalog, network and clock");
  internal_check(static_cast<bool>(context_.wrapper_by_name),
                 "runtime needs a wrapper resolver");
}

RunResult Runtime::run(const PhysicalPtr& plan) {
  internal_check(plan != nullptr, "cannot run a null plan");
  stats_ = RunStats{};
  issue_time_ = context_.clock->now();
  max_latency_ = 0;
  any_blocked_ = false;

  const auto wall_start = std::chrono::steady_clock::now();
  Outcome outcome;
  if (wall_clock_mode()) {
    prefetch_execs(plan);
    try {
      outcome = eval(plan);
    } catch (...) {
      drain_prefetched();
      throw;
    }
    drain_prefetched();
  } else {
    outcome = eval(plan);
  }

  double elapsed;
  if (wall_clock_mode()) {
    // Wall-clock mode: the calls genuinely overlapped on the pool and the
    // latency waits really happened; elapsed time is simply measured.
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            wall_start)
                  .count();
  } else {
    // §4 time accounting: parallel calls; if anything blocked we waited
    // for the whole designated period.
    elapsed = any_blocked_ && std::isfinite(context_.deadline_s)
                  ? context_.deadline_s
                  : max_latency_;
  }
  context_.clock->advance(elapsed);
  stats_.elapsed_s = elapsed;

  RunResult result;
  result.data = Value::bag(std::move(outcome.data));
  result.residuals = std::move(outcome.residuals);
  result.stats = stats_;
  return result;
}

void Runtime::prefetch_execs(const PhysicalPtr& plan) {
  switch (plan->op) {
    case POp::Exec:
      if (prefetched_.contains(plan.get())) return;  // shared subplan
      prefetched_.emplace(
          plan.get(),
          launch(exec_call(*plan), /*on_pool=*/true));
      return;
    case POp::Filter:
    case POp::Project:
      prefetch_execs(plan->child);
      return;
    case POp::HashJoin:
    case POp::NestedLoopJoin:
      prefetch_execs(plan->left);
      prefetch_execs(plan->right);
      return;
    case POp::BindJoin:
      // Only the build side: the probe expression depends on the build
      // side's keys and is dispatched when eval_bind_join reaches it.
      prefetch_execs(plan->left);
      return;
    case POp::Union:
      for (const PhysicalPtr& child : plan->children) prefetch_execs(child);
      return;
    case POp::Const:
      return;
  }
}

void Runtime::drain_prefetched() noexcept {
  for (auto& [node, future] : prefetched_) {
    if (future.valid()) future.wait();
  }
  prefetched_.clear();
}

Runtime::Outcome Runtime::eval(const PhysicalPtr& node) {
  switch (node->op) {
    case POp::Exec:
      return eval_exec(*node);
    case POp::Const:
      return Outcome{node->data.items(), {}};
    case POp::Filter: {
      Outcome in = eval(node->child);
      Outcome out;
      for (const Value& env : in.data) {
        if (holds(node->predicate, env)) out.data.push_back(env);
      }
      // filter(union(d, r)) = union(filter(d), filter(r)).
      for (const algebra::LogicalPtr& residual : in.residuals) {
        out.residuals.push_back(
            algebra::filter(residual, node->predicate));
      }
      return out;
    }
    case POp::Project: {
      Outcome in = eval(node->child);
      Outcome out;
      out.data.reserve(in.data.size());
      for (const Value& env : in.data) {
        oql::Env scope;
        for (const auto& [var, row] : env.fields()) scope.bind(var, row);
        out.data.push_back(evaluator_.eval(node->projection, scope));
      }
      if (node->distinct) {
        out.data = Value::set(std::move(out.data)).items();
      }
      for (const algebra::LogicalPtr& residual : in.residuals) {
        out.residuals.push_back(
            algebra::project(residual, node->projection, node->distinct));
      }
      return out;
    }
    case POp::HashJoin:
    case POp::NestedLoopJoin:
      return eval_join(*node);
    case POp::BindJoin:
      return eval_bind_join(*node);
    case POp::Union: {
      Outcome out;
      for (const PhysicalPtr& child : node->children) {
        Outcome part = eval(child);
        out.residuals.insert(out.residuals.end(), part.residuals.begin(),
                             part.residuals.end());
        out.data.insert(out.data.end(),
                        std::make_move_iterator(part.data.begin()),
                        std::make_move_iterator(part.data.end()));
      }
      return out;
    }
  }
  throw InternalError("corrupt physical plan in runtime");
}

Runtime::Outcome Runtime::eval_exec(const Physical& node) {
  auto it = prefetched_.find(&node);
  if (it == prefetched_.end()) {
    return settle(run_call(exec_call(node)));
  }
  std::future<SourceCall> future = std::move(it->second);
  prefetched_.erase(it);
  return settle(future.get());  // rethrows pool and landing exceptions here
}

struct Runtime::Flight {
  SourceCall call;
  obs::ScopedSpan span;  ///< the call's exec span, once it reached perform's
                         ///< wrapper stage
  cache::ResultCache::Ticket ticket;      ///< set when this call leads
  sched::QueryScheduler::Permit permit;   ///< set once admitted

  /// Ends the span and drops the ticket (abandoning it unless published)
  /// and the token.
  void release() {
    span.finish();
    ticket = {};
    permit.release();
  }
};

SourceCall Runtime::run_call(SourceCall call) {
  if (wall_clock_mode()) {
    return launch(std::move(call), /*on_pool=*/false).get();
  }
  Flight flight;
  flight.call = std::move(call);
  if (perform(flight)) {
    SourceCall& c = flight.call;
    const net::CallOutcome net =
        context_.network->call(c.repository, c.reply.data.size(),
                               issue_time_);
    c.attempts = 1;
    // Source compute (the wrapper's opt-in cost model) delays the reply
    // exactly like wire time: it is part of the observed latency in both
    // modes, and in virtual time it counts against the §4 deadline.
    c.latency_s = net.latency_s + c.reply.compute_s;
    c.outcome = !net.available ? SourceCall::Outcome::Unavailable
                : c.latency_s > context_.deadline_s
                    ? SourceCall::Outcome::Timeout
                    : SourceCall::Outcome::Ok;
    land(flight);
  }
  return std::move(flight.call);
}

std::future<SourceCall> Runtime::launch(SourceCall call, bool on_pool) {
  // Shared by the task running perform and the dispatcher's landing.
  struct Launch {
    Flight flight;
    std::promise<SourceCall> done;
  };
  auto shared = std::make_shared<Launch>();
  shared->flight.call = std::move(call);
  std::future<SourceCall> future = shared->done.get_future();

  // Whoever finishes the call — this task, or the landing on the timer
  // thread — is done with every span, ticket, token and Runtime member
  // before it fulfils the promise: the query thread may destroy this
  // Runtime the moment the future is ready.
  auto finish = [](Launch& l, std::exception_ptr error) {
    l.flight.release();
    if (error) {
      l.done.set_exception(error);
    } else {
      l.done.set_value(std::move(l.flight.call));
    }
  };
  auto start = [this, shared, finish] {
    std::exception_ptr error;
    try {
      if (perform(shared->flight)) {
        // Time spent queued counts against the query deadline.
        const SourceCall& c = shared->flight.call;
        double remaining = context_.deadline_s;
        if (std::isfinite(remaining)) {
          remaining = std::max(0.0, remaining - c.queued_s);
        }
        context_.dispatcher->call(
            c.repository, c.reply.data.size(), issue_time_, remaining,
            shared->flight.span.context(),
            [this, shared, finish](const exec::DispatchOutcome& net) {
              SourceCall& landed = shared->flight.call;
              landed.attempts = net.attempts;
              landed.wall_s = net.wall_s;
              landed.latency_s = net.latency_s + landed.reply.compute_s;
              // A Timeout carries the late reply's latency; a call the
              // deadline ended before any reply is Unavailable.
              landed.outcome =
                  net.available ? SourceCall::Outcome::Ok
                  : net.latency_s > 0 ? SourceCall::Outcome::Timeout
                                      : SourceCall::Outcome::Unavailable;
              std::exception_ptr landing_error;
              try {
                land(shared->flight);
              } catch (...) {
                landing_error = std::current_exception();
              }
              finish(*shared, landing_error);
            });
        return;  // the landing finishes the call; touch nothing more
      }
    } catch (...) {
      error = std::current_exception();
    }
    finish(*shared, error);
  };
  if (on_pool) {
    context_.dispatcher->async(std::move(start));
  } else {
    start();
  }
  return future;
}

bool Runtime::perform(Flight& flight) const {
  SourceCall& call = flight.call;
  // Circuit breaker (src/session/): a refused source turns residual with
  // no wrapper work, no network call and no deadline wait. Consulted
  // exactly once per call, here, because admission has trial side effects
  // in HalfOpen.
  if (context_.admit_source && !context_.admit_source(call.repository)) {
    call.outcome = SourceCall::Outcome::ShortCircuit;
    return false;
  }

  // Result cache (src/cache/): a stored reply, or an identical in-flight
  // fetch to join, makes no new source observation. Otherwise this call
  // leads and publishes when it lands; a failed or throwing leader
  // abandons the ticket and its waiters re-race — residual outcomes are
  // never cached.
  if (context_.cache != nullptr) {
    cache::ResultCache::Lookup lookup =
        call.remote_key != nullptr
            ? context_.cache->get_or_begin(call.repository,
                                           call.remote_key->text)
            : context_.cache->get_or_begin(call.repository, call.remote);
    if (lookup.kind != cache::ResultCache::LookupKind::Lead) {
      // The reply is shared-immutable, so handing the same Value to many
      // query threads is safe. Zero latency: a cached answer is faster
      // than the fastest source.
      const bool coalesced =
          lookup.kind == cache::ResultCache::LookupKind::Coalesced;
      call.served = coalesced ? SourceCall::Served::Coalesced
                              : SourceCall::Served::CacheHit;
      call.reply = wrapper::SubmitResult::ok(lookup.result->data);
      if (coalesced && wall_clock_mode()) {
        context_.dispatcher->metrics().on_coalesced();
      }
      return false;
    }
    flight.ticket = std::move(lookup.ticket);
  }

  // One span per call that reaches the wrapper, begun on whatever thread
  // runs perform (a pool thread in wall-clock mode) and ended when the
  // call lands — the trace's per-thread lanes show dispatch overlap.
  obs::ScopedSpan& span = flight.span;
  span = obs::ScopedSpan(context_.obs, "exec", "exec");
  call.span = span.id();
  if (span) {
    span.tag("repository", call.repository);
    span.tag("wrapper", call.wrapper);
    span.tag("remote", remote_text(call));
    if (std::isfinite(context_.deadline_s)) {
      span.tag("deadline_s", context_.deadline_s);
    }
  }

  // Simulation note: the wrapper computes the reply first so that the
  // network call can price the transfer by its row count; if the source
  // then turns out to be unreachable (or the reply would land past the
  // deadline) the computed data is discarded and the exec is classified
  // unavailable (§4). Only simulated work is wasted.
  wrapper::Wrapper* wrapper = context_.wrapper_by_name(call.wrapper);
  if (wrapper == nullptr) {
    throw InternalError("no wrapper object named '" + call.wrapper + "'");
  }
  call.reply = wrapper->submit(
      context_.catalog->repository(call.repository), call.remote,
      wrapper::bindings_for(call.remote, *context_.catalog));
  if (call.reply.status == wrapper::SubmitResult::Status::Refused) {
    call.outcome = SourceCall::Outcome::Refused;
    return false;
  }

  // Per-source admission control (src/sched/, wall-clock mode only):
  // only a call that got past the cache ever holds a token. A shed
  // admission converts the call into a §4 residual without any network
  // attempt.
  if (wall_clock_mode() && context_.scheduler != nullptr) {
    sched::QueryScheduler::Admission admission = context_.scheduler->admit(
        call.repository, context_.query_id, context_.deadline_s);
    call.queued_s = admission.queued_s;
    if (span && call.queued_s > 0) span.tag("queued_s", call.queued_s);
    if (!admission.admitted) {
      call.outcome = SourceCall::Outcome::Shed;
      call.shed_reason = admission.shed_reason;
      span.tag("outcome", "shed");
      return false;
    }
    flight.permit = std::move(admission.permit);
  }
  return true;
}

void Runtime::land(Flight& flight) const {
  SourceCall& call = flight.call;
  // The source's token is free the moment its reply is in.
  flight.permit.release();

  // The one observation site, for every call that reached a source.
  obs::ScopedSpan& span = flight.span;
  if (span) {
    span.tag("attempts", static_cast<uint64_t>(call.attempts));
    span.tag("sim_latency_s", call.latency_s);
    if (call.wall_s > 0) span.tag("wall_s", call.wall_s);
    span.tag("rows", static_cast<uint64_t>(call.rows()));
    span.tag("outcome",
             call.outcome == SourceCall::Outcome::Ok        ? "ok"
             : call.outcome == SourceCall::Outcome::Timeout ? "timeout"
                                                            : "unavailable");
  }
  if (context_.record_exec) context_.record_exec(call);
  if (call.outcome != SourceCall::Outcome::Ok) return;
  if (context_.validate_rows) {
    check_rows(*context_.catalog, call.remote, call.reply.data);
  }
  if (flight.ticket) {
    context_.cache->publish(flight.ticket,
                            cache::CachedResult{call.reply.data,
                                                call.latency_s});
  }
}

Runtime::Outcome Runtime::settle(const SourceCall& call) {
  if (call.outcome == SourceCall::Outcome::Refused) {
    throw CapabilityError("wrapper '" + call.wrapper +
                          "' refused a checked expression: " +
                          call.reply.detail);
  }
  ++stats_.exec_calls;
  if (call.attempts > 1) stats_.retry_attempts += call.attempts - 1;
  if (context_.obs) {
    obs::Trace* trace = context_.obs.trace;
    const bool cached = call.served != SourceCall::Served::Source;
    if (call.outcome == SourceCall::Outcome::Shed) {
      const uint64_t event = trace->instant(call.span, "shed", "sched");
      trace->tag(event, "repository", call.repository);
      trace->tag(event, "reason", shed_reason_name(call.shed_reason));
    } else if (cached || call.outcome == SourceCall::Outcome::ShortCircuit) {
      const uint64_t event =
          cached ? trace->instant(context_.obs.span, "cache_hit", "cache")
                 : trace->instant(context_.obs.span, "short_circuit", "exec");
      trace->tag(event, "repository", call.repository);
      trace->tag(event, "remote", remote_text(call));
      if (call.served == SourceCall::Served::Coalesced) {
        trace->tag(event, "coalesced", "true");
      }
    }
  }
  switch (call.outcome) {
    case SourceCall::Outcome::Ok:
      if (call.served == SourceCall::Served::CacheHit) ++stats_.cache_hits;
      if (call.served == SourceCall::Served::Coalesced) {
        ++stats_.cache_coalesced;
      }
      stats_.rows_fetched += call.rows();
      max_latency_ = std::max(max_latency_, call.latency_s);
      return Outcome{call.reply.data.items(), {}};
    case SourceCall::Outcome::ShortCircuit:
      // No any_blocked_: the query does not pay the §4 deadline wait for
      // a source already known to be down.
      ++stats_.short_circuit_calls;
      break;
    case SourceCall::Outcome::Shed:
      ++stats_.shed_calls;
      [[fallthrough]];
    default:
      any_blocked_ = true;
  }
  ++stats_.unavailable_calls;
  Outcome out;
  out.residuals.push_back(call.residual);
  return out;
}

namespace {

Value merge_envs(const Value& a, const Value& b) {
  std::vector<std::pair<std::string, Value>> fields = a.fields();
  fields.insert(fields.end(), b.fields().begin(), b.fields().end());
  return Value::strct(std::move(fields));
}

}  // namespace

bool Runtime::holds(const oql::ExprPtr& predicate, const Value& env) const {
  if (predicate == nullptr) return true;
  oql::Env scope;
  for (const auto& [var, row] : env.fields()) scope.bind(var, row);
  return evaluator_.eval(predicate, scope).as_bool();
}

std::vector<Value> Runtime::nested_loop(const oql::ExprPtr& predicate,
                                        const std::vector<Value>& left,
                                        const std::vector<Value>& right) const {
  std::vector<Value> out;
  for (const Value& lenv : left) {
    for (const Value& renv : right) {
      Value merged = merge_envs(lenv, renv);
      if (holds(predicate, merged)) out.push_back(std::move(merged));
    }
  }
  return out;
}

std::vector<Value> Runtime::hash_join(const Physical& node,
                                      const std::vector<Value>& left,
                                      const std::vector<Value>& right) const {
  // An empty side reads no key, as the nested loop evaluates no pair.
  if (left.empty() || right.empty()) return {};
  std::vector<const Value*> left_keys;
  std::vector<const Value*> right_keys;
  left_keys.reserve(left.size());
  right_keys.reserve(right.size());
  try {
    for (const Value& env : right) {
      right_keys.push_back(&node.right_key.read(env));
    }
    for (const Value& env : left) left_keys.push_back(&node.left_key.read(env));
  } catch (const ExecutionError&) {
    // A key step over a non-struct value: the nested loop over the node's
    // logical predicate throws (or short-circuits) exactly where a plan
    // without a key would.
    return nested_loop(node.logical->predicate, left, right);
  }
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  for (size_t r = 0; r < right.size(); ++r) {
    buckets[right_keys[r]->hash()].push_back(r);
  }
  std::vector<Value> out;
  for (size_t l = 0; l < left.size(); ++l) {
    const Value& key = *left_keys[l];
    auto it = buckets.find(key.hash());
    if (it == buckets.end()) continue;
    for (size_t r : it->second) {
      if (*right_keys[r] != key) continue;
      Value merged = merge_envs(left[l], right[r]);
      if (holds(node.predicate, merged)) out.push_back(std::move(merged));
    }
  }
  return out;
}

Runtime::Outcome Runtime::eval_join(const Physical& node) {
  Outcome left = eval(node.left);
  Outcome right = eval(node.right);

  Outcome out;
  if (!left.residuals.empty() || !right.residuals.empty()) {
    // A join cannot keep half of its inputs: its logical form (which only
    // references extents) becomes the residual; fetched data for the
    // other side is dropped and will be refetched on resubmission. This
    // is the algebra's own limit: submit has RPC semantics and "cannot
    // accept data from another data source" (§3.2).
    out.residuals.push_back(node.logical);
    return out;
  }
  out.data = node.op == POp::HashJoin
                 ? hash_join(node, left.data, right.data)
                 : nested_loop(node.predicate, left.data, right.data);
  return out;
}

Runtime::Outcome Runtime::eval_bind_join(const Physical& node) {
  Outcome left = eval(node.left);
  Outcome out;
  if (!left.residuals.empty()) {
    out.residuals.push_back(node.logical);
    return out;
  }
  if (left.data.empty()) {
    return out;  // join over an empty build side is empty
  }

  // Distinct build-side keys, in deterministic (first-seen) order. Hash
  // buckets with an equality check replace Value::set's full sort — the
  // build side was just materialized, an O(n log n) ordering of deep
  // values buys nothing here. A key that throws ships no keys at all, as
  // above max_bind_keys; the join below then takes the nested loop.
  std::vector<Value> keys;
  keys.reserve(left.data.size());
  bool keys_read = true;
  try {
    std::unordered_map<uint64_t, std::vector<size_t>> seen;
    for (const Value& env : left.data) {
      const Value& key = node.left_key.read(env);
      std::vector<size_t>& bucket = seen[key.hash()];
      bool duplicate = false;
      for (size_t idx : bucket) {
        if (keys[idx] == key) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      bucket.push_back(keys.size());
      keys.push_back(key);
    }
  } catch (const ExecutionError&) {
    keys_read = false;
  }

  // Probe expression: base remote plus the key disjunction over the
  // probe key's path (a nested key ships as a path predicate) — unless
  // the key set is too large to be worth shipping. A probe that ships
  // keys is recorded in the cost history under the plan's canonical
  // probe_shape (one placeholder key), not under the literal-laden
  // disjunction — so future optimizations can ask "what does a bound
  // probe cost here" and observe indexed probes coming back fast. One
  // that ships none is the base remote and is recorded as that: under
  // the probe shape it would price every later bind join here as a
  // whole-extent fetch.
  SourceCall probe = exec_call(node);
  if (keys_read && keys.size() <= node.max_bind_keys) {
    // Ship the keys in key order: a sorted disjunction gives the source's
    // ordered index a monotone probe sequence (and makes the shipped SQL
    // canonical for identical key sets regardless of build-side order).
    std::stable_sort(keys.begin(), keys.end(),
                     [](const Value& a, const Value& b) {
                       return Value::compare(a, b) < 0;
                     });
    std::vector<oql::ExprPtr> terms;
    terms.reserve(keys.size());
    for (const Value& key : keys) {
      terms.push_back(oql::binary(oql::BinaryOp::Eq, node.right_key.expr,
                                  oql::literal(key)));
    }
    oql::ExprPtr bind_pred = std::move(terms.front());
    for (size_t k = 1; k < terms.size(); ++k) {
      bind_pred = oql::binary(oql::BinaryOp::Or, std::move(bind_pred),
                              std::move(terms[k]));
    }
    algebra::LogicalPtr remote = node.remote;
    if (remote->op == algebra::LOp::Filter) {
      remote = algebra::filter(
          remote->child,
          oql::binary(oql::BinaryOp::And, remote->predicate, bind_pred));
    } else {
      remote = algebra::filter(remote, bind_pred);
    }
    probe = exec_call(node, std::move(remote), nullptr, node.probe_key);
  }
  Outcome right = settle(run_call(std::move(probe)));
  if (!right.residuals.empty()) {
    out.residuals.push_back(node.logical);
    return out;
  }
  // The bind filter narrowed the probe side, but per-tuple matching
  // still applies.
  out.data = hash_join(node, left.data, right.data);
  return out;
}

}  // namespace disco::physical
