#include "core/mediator.hpp"

#include <chrono>

#include "algebra/logical.hpp"
#include "algebra/to_oql.hpp"
#include "common/error.hpp"
#include "odl/odl.hpp"
#include "oql/eval.hpp"
#include "oql/parser.hpp"
#include "oql/printer.hpp"
#include "physical/runtime.hpp"

namespace disco {

Mediator::Mediator() : Mediator(Options{}) {}

Mediator::Mediator(Options options)
    : options_(std::move(options)), network_(options_.network_seed) {
  // Observability (src/obs/). The registry is always wired (counters are
  // cheap); the tracer only exists when tracing is on.
  registry_ = options_.obs.registry != nullptr ? options_.obs.registry
                                               : &obs::Registry::global();
  obs::ObsOptions obs_options = options_.obs;
  obs_options.registry = registry_;
  if (obs_options.enabled) {
    tracer_ = std::make_unique<obs::Tracer>(obs_options);
  }

  if (options_.exec.workers > 0) {
    pool_ = std::make_unique<exec::ThreadPool>(options_.exec.workers);
    dispatcher_ = std::make_unique<exec::ParallelDispatcher>(
        pool_.get(), &network_, options_.exec, &exec_metrics_);
  }

  // Per-source admission control (src/sched/). Only meaningful in
  // wall-clock mode: virtual-time calls are sequential by construction.
  if (options_.sched.enabled && dispatcher_ != nullptr) {
    scheduler_ = std::make_unique<sched::QueryScheduler>(
        options_.sched, options_.exec.latency_scale, &exec_metrics_);
  }

  // Health tracking (src/session/). The tracker's time base is simulated
  // seconds in both modes: the VirtualClock in virtual-time mode, wall
  // time divided by latency_scale in wall-clock mode — so cooldowns and
  // probe intervals mean the same thing everywhere.
  session::SourceHealthTracker::Clock health_clock;
  if (options_.exec.workers > 0) {
    const auto epoch = std::chrono::steady_clock::now();
    const double scale = options_.exec.latency_scale;
    health_clock = [epoch, scale] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           epoch)
                 .count() /
             scale;
    };
  } else {
    health_clock = [this] { return clock_.now(); };
  }
  if (options_.cache.enabled) {
    // Same simulated-seconds time base as the health tracker, so
    // cache TTLs and circuit cooldowns mean the same thing.
    result_cache_ =
        std::make_unique<cache::ResultCache>(options_.cache, health_clock);
  }
  tracker_ = std::make_unique<session::SourceHealthTracker>(
      options_.health, std::move(health_clock));

  sessions_ = std::make_unique<session::ResubmissionManager>(
      [this](const std::string& text, double deadline_s) {
        QueryOptions q;
        q.deadline_s = deadline_s;
        return query(text, q);
      },
      options_.session);
  tracker_->set_listener([this](const std::string&, session::CircuitState,
                                session::CircuitState to) {
    // A circuit closed: some source came back — resubmit residuals now
    // instead of waiting out the retry interval.
    if (to == session::CircuitState::Closed) sessions_->notify_recovery();
  });
  if (result_cache_ != nullptr) {
    // Any circuit-state transition is evidence the source's world moved
    // (it went dark, or it came back — possibly restarted with different
    // data): drop its cached answers so resubmitted residuals and fresh
    // queries refetch.
    tracker_->add_listener([this](const std::string& repository,
                                  session::CircuitState,
                                  session::CircuitState) {
      result_cache_->invalidate_repository(repository);
    });
  }
  if (scheduler_ != nullptr) {
    // A circuit opened: every call queued for that endpoint is waiting
    // for a source now known to be dark — shed them into §4 residuals
    // immediately, so their queries get their partial answers now and
    // the compute-pool workers blocked in admission are free again,
    // instead of both waiting out the queueing deadline.
    tracker_->add_listener([this](const std::string& repository,
                                  session::CircuitState,
                                  session::CircuitState to) {
      if (to == session::CircuitState::Open) scheduler_->drain(repository);
    });
  }

  if (options_.health.enabled && dispatcher_ != nullptr) {
    // Background half-open probes, priced like zero-row calls. Probe
    // latencies keep the §3.3 cost model warm while a source is dark:
    // successful probes are recorded under a sentinel expression, so the
    // per-repository average reflects the source's current round-trip
    // time the moment it recovers.
    static const algebra::LogicalPtr kProbeSignature =
        algebra::get("__health_probe", "p");
    prober_ = std::make_unique<session::Prober>(
        tracker_.get(),
        options_.health.probe_interval_s * options_.exec.latency_scale,
        [this](const std::string& repository, session::Prober::Done done) {
          dispatcher_->probe(repository, clock_.now(),
                             options_.health.probe_deadline_s,
                             std::move(done));
        },
        [this](const std::string& repository,
               const exec::DispatchOutcome& outcome) {
          if (outcome.available) {
            history_.record(repository, kProbeSignature, outcome.latency_s,
                            0);
          }
        });
  }
}

void Mediator::apply_invalidation(const fedcat::UpdateScope& scope) {
  // Plan templates key on the sources each query resolved to, so only an
  // interface definition, which changes what a query means (and how it
  // typechecks), retires them.
  if (scope.types_changed) templates_.clear();
  if (result_cache_ == nullptr) return;
  // Interface definitions change what any query *means*; every cached
  // submit answer is suspect. Extent changes only invalidate their
  // repository's entries (the cache keys carry the extent name inside
  // the remote algebra text, so entries for other repositories cannot
  // alias the changed extents). New wrappers, factories, repositories
  // and view definitions invalidate nothing: a name that did not exist
  // has no cached answers, and views are expanded at planning time.
  //
  // The invalidation runs *after* the new epoch is published. In-flight
  // queries of the old epoch may still publish results for dropped
  // extents afterwards; the cache's repository generation fence and the
  // circuit-transition listeners bound such strays, and they are
  // answers a query of that epoch was entitled to anyway.
  if (scope.types_changed) {
    result_cache_->invalidate_all();
    return;
  }
  for (const std::string& repository : scope.repositories) {
    result_cache_->invalidate_repository(repository);
  }
}

void Mediator::register_wrapper(const std::string& name,
                                std::shared_ptr<wrapper::Wrapper> wrapper) {
  internal_check(wrapper != nullptr, "null wrapper");
  apply_invalidation(
      fedcat_.update([&](fedcat::CatalogManager::Draft& draft) {
        if (draft.wrappers.contains(name)) {
          throw CatalogError("wrapper '" + name + "' is already defined");
        }
        draft.wrappers[name] = std::move(wrapper);
      }));
}

void Mediator::register_wrapper_factory(
    const std::string& constructor,
    std::function<std::shared_ptr<wrapper::Wrapper>()> factory) {
  internal_check(static_cast<bool>(factory), "null wrapper factory");
  std::lock_guard<std::mutex> lock(factories_mutex_);
  factories_[constructor] = std::move(factory);
}

void Mediator::register_repository(catalog::Repository repository,
                                   net::LatencyModel latency,
                                   net::Availability availability) {
  apply_invalidation(
      fedcat_.update([&](fedcat::CatalogManager::Draft& draft) {
        net::Endpoint endpoint;
        endpoint.name = repository.name;
        endpoint.latency = latency;
        endpoint.availability = availability;
        draft.catalog.define_repository(std::move(repository));
        // The network is internally synchronized and add_endpoint is
        // keyed by name, so publishing the endpoint here (rather than
        // after the swap) only makes it reachable a moment early.
        network_.add_endpoint(std::move(endpoint));
      }));
}

wrapper::Wrapper* Mediator::wrapper_by_name(const std::string& name) const {
  // Wrapper bindings are never replaced or dropped, only added; every
  // later epoch copies the map, so the object outlives any epoch swap.
  return fedcat_.snapshot()->wrapper_by_name(name);
}

void Mediator::execute_odl(const std::string& text) {
  // Parse outside the admin path; all statements of one text publish as
  // ONE new epoch — queries never see half an ODL batch.
  const std::vector<odl::Statement> statements = odl::parse_odl(text);
  fedcat::UpdateScope scope =
      fedcat_.update([&](fedcat::CatalogManager::Draft& draft) {
        for (const odl::Statement& statement : statements) {
          if (const auto* interface_def =
                  std::get_if<odl::InterfaceDef>(&statement)) {
            draft.catalog.types().define(interface_def->type);
            draft.scope.types_changed = true;
          } else if (const auto* extent_def =
                         std::get_if<odl::ExtentDef>(&statement)) {
            // The wrapper object must exist so the optimizer can ask for
            // its capabilities.
            if (!draft.wrappers.contains(extent_def->extent.wrapper)) {
              throw CatalogError("unknown wrapper '" +
                                 extent_def->extent.wrapper + "'");
            }
            draft.scope.touch_repository(extent_def->extent.repository);
            draft.catalog.define_extent(extent_def->extent);
          } else if (const auto* drop =
                         std::get_if<odl::DropExtent>(&statement)) {
            draft.scope.touch_repository(
                draft.catalog.extent(drop->name).repository);
            draft.catalog.drop_extent(drop->name);
          } else if (const auto* view_def =
                         std::get_if<odl::ViewDefStmt>(&statement)) {
            draft.catalog.define_view(view_def->name, view_def->query);
          } else if (const auto* assignment =
                         std::get_if<odl::Assignment>(&statement)) {
            if (assignment->constructor == "Repository") {
              catalog::Repository repository;
              repository.name = assignment->var;
              for (const auto& [key, value] : assignment->args) {
                if (key == "host") {
                  repository.host = value;
                } else if (key == "name") {
                  repository.db_name = value;
                } else if (key == "address") {
                  repository.address = value;
                } else {
                  throw CatalogError("Repository has no attribute '" + key +
                                     "'");
                }
              }
              net::Endpoint endpoint;
              endpoint.name = repository.name;
              endpoint.latency = options_.default_latency;
              draft.catalog.define_repository(std::move(repository));
              network_.add_endpoint(std::move(endpoint));
            } else {
              std::function<std::shared_ptr<wrapper::Wrapper>()> factory;
              {
                std::lock_guard<std::mutex> lock(factories_mutex_);
                auto it = factories_.find(assignment->constructor);
                if (it == factories_.end()) {
                  throw CatalogError("unknown constructor '" +
                                     assignment->constructor + "'");
                }
                factory = it->second;
              }
              if (draft.wrappers.contains(assignment->var)) {
                throw CatalogError("wrapper '" + assignment->var +
                                   "' is already defined");
              }
              draft.wrappers[assignment->var] = factory();
            }
          }
        }
      });
  apply_invalidation(scope);
}

optimizer::Optimizer Mediator::make_optimizer(
    const fedcat::SnapshotPtr& snap) const {
  return make_optimizer(snap, options_.optimizer);
}

optimizer::Optimizer Mediator::make_optimizer(
    const fedcat::SnapshotPtr& snap,
    optimizer::OptimizerOptions opt_options) const {
  optimizer::Optimizer opt(
      &snap->catalog,
      [snap](const std::string& name) { return snap->wrapper_by_name(name); },
      &history_, std::move(opt_options));
  if (options_.health.enabled) {
    // Health-aware costing: plans leaning on open-circuit or flaky
    // sources price their expected retries (availability 0 while Open).
    opt.set_health([this](const std::string& repository) {
      return tracker_->availability(repository);
    });
  }
  return opt;
}

physical::ExecContext Mediator::make_context(
    const fedcat::SnapshotPtr& snap,
    const oql::CollectionResolver* resolver, double deadline_s,
    obs::ObsContext obs) {
  physical::ExecContext context;
  context.obs = obs;
  context.catalog = &snap->catalog;
  context.network = &network_;
  context.clock = &clock_;
  // Captures the snapshot: the epoch stays alive for as long as this
  // runtime context does.
  context.wrapper_by_name = [snap](const std::string& name) {
    return snap->wrapper_by_name(name);
  };
  context.resolver = resolver;
  context.dispatcher = dispatcher_.get();
  if (scheduler_ != nullptr) {
    context.scheduler = scheduler_.get();
    // Fair-queue identity: one fresh id per runtime context, so every
    // top-level run (query, submit, resubmission round) competes as one
    // party in the round-robin dequeue. Auxiliary materialization runs
    // get their own contexts/ids, which only subdivides this query's
    // share further — it never inflates it.
    context.query_id = next_query_id_.fetch_add(1, std::memory_order_relaxed)
                       + 1;
  }
  if (result_cache_ != nullptr) {
    // No version fence here: invalidation is epoch-scoped now
    // (apply_invalidation drops exactly what an admin update touched,
    // the moment it publishes).
    context.cache = result_cache_.get();
  }
  context.deadline_s = deadline_s;
  context.validate_rows = options_.validate_source_rows;
  // One feed in both modes: every call that reached a source reports its
  // health outcome (tracked even when breaking is disabled — passive
  // monitoring) and, when a reply came, its §3.3 cost observation. A
  // reply that would land past the deadline is recorded too, with its
  // true latency and the rows the wrapper computed: otherwise a plan
  // too slow for the deadline is never priced, and resubmission picks
  // it again forever.
  context.record_exec = [this](const physical::SourceCall& call) {
    using Outcome = physical::SourceCall::Outcome;
    const bool ok = call.outcome == Outcome::Ok;
    tracker_->on_outcome(call.repository, ok, call.latency_s);
    if (ok || call.outcome == Outcome::Timeout) {
      history_.record(call.repository, *call.cost_key, call.latency_s,
                      call.reply.data.size());
    }
  };
  if (options_.health.enabled) {
    context.admit_source = [this](const std::string& repository) {
      bool admitted = tracker_->admit(repository);
      if (!admitted) exec_metrics_.on_short_circuit();
      return admitted;
    };
  }
  return context;
}

Answer Mediator::query(const std::string& oql_text, QueryOptions options) {
  QueryTrace qt = begin_trace(oql_text);
  oql::ExprPtr parsed;
  {
    obs::ScopedSpan parse(qt.obs(), "parse", "mediator");
    parsed = oql::parse(oql_text);
  }
  Answer answer = query_impl(parsed, options, qt);
  finish_query_trace(qt, answer);
  return answer;
}

Answer Mediator::query(const oql::ExprPtr& query_expr,
                       QueryOptions options) {
  // The OQL text is only reconstructed when someone will read it.
  QueryTrace qt = begin_trace(tracer_ != nullptr ? oql::to_oql(query_expr)
                                                 : std::string());
  Answer answer = query_impl(query_expr, options, qt);
  finish_query_trace(qt, answer);
  return answer;
}

Answer Mediator::query_impl(const oql::ExprPtr& query_expr,
                            QueryOptions options, const QueryTrace& qt) {
  // Read before the epoch is pinned: an interface definition publishes
  // its epoch, then clears the templates, so a template built from an
  // epoch older than a clear is never kept.
  const uint64_t generation = templates_.generation();
  // Pin the current epoch: this query plans and executes against exactly
  // this snapshot, no matter what administration does meanwhile.
  const fedcat::SnapshotPtr snap = fedcat_.snapshot();
  optimizer::Optimizer::Result planned =
      optimize_traced(snap, query_expr, generation, qt);
  return run_planned(snap, planned, options, qt);
}

#ifdef DISCO_PLANCHECK
namespace {

/// Every node's logical form and source keys, in plan order: the residual
/// forms a partial answer would be made of.
void logical_forms(const physical::PhysicalPtr& node, std::string& out) {
  if (node == nullptr) return;
  out += algebra::to_algebra_string(node->logical);
  for (const algebra::CostKeyPtr& key : {node->remote_key, node->probe_key}) {
    if (key != nullptr) out += '|' + key->text + '|' + key->signature;
  }
  out += '\n';
  logical_forms(node->child, out);
  logical_forms(node->left, out);
  logical_forms(node->right, out);
  for (const physical::PhysicalPtr& child : node->children) {
    logical_forms(child, out);
  }
}

/// Plan-check builds: a template hit must plan exactly as a fresh
/// optimize of the same query priced from the same estimates.
void check_same_plan(const optimizer::Optimizer::Result& hit,
                     const optimizer::Optimizer::Result& fresh) {
  internal_check((hit.plan == nullptr) == (fresh.plan == nullptr),
                 "plan check: template and fresh optimize disagree on mode");
  if (hit.plan == nullptr) return;
  std::string hit_forms;
  std::string fresh_forms;
  logical_forms(hit.plan, hit_forms);
  logical_forms(fresh.plan, fresh_forms);
  internal_check(physical::to_physical_string(hit.plan) ==
                     physical::to_physical_string(fresh.plan),
                 "plan check: template and fresh optimize chose different "
                 "plans");
  internal_check(hit_forms == fresh_forms,
                 "plan check: residual logical forms differ");
  internal_check(hit.estimated.net_s == fresh.estimated.net_s &&
                     hit.estimated.cpu_s == fresh.estimated.cpu_s &&
                     hit.estimated.rows == fresh.estimated.rows,
                 "plan check: estimates differ");
  internal_check(hit.plans_considered == fresh.plans_considered,
                 "plan check: plans_considered differs");
}

}  // namespace
#endif

optimizer::Optimizer::Result Mediator::optimize_traced(
    const fedcat::SnapshotPtr& snap, const oql::ExprPtr& query_expr,
    uint64_t generation, const QueryTrace& qt) const {
  obs::ScopedSpan span(qt.obs(), "optimize", "optimizer");
  const optimizer::Optimizer opt = make_optimizer(snap);
  const optimizer::QueryShape shape =
      optimizer::shape_of(query_expr, snap->catalog, /*keyed=*/true);
  std::shared_ptr<const optimizer::PlanTemplate> plan;
  if (!shape.key.empty()) plan = templates_.find(shape.key);
  const bool hit = plan != nullptr;
  if (!hit) {
    // Built outside the table's lock: concurrent misses of one shape may
    // each build, and the first insert is kept.
    templates_.count_build();
    plan = opt.enumerate(shape, span.context());
    if (plan->reusable) templates_.insert(shape.key, plan, generation);
  }
#ifdef DISCO_PLANCHECK
  optimizer::PricingMemo memo;
  optimizer::Optimizer::Result planned =
      opt.bind(*plan, shape, span.context(), &memo);
  if (hit) {
    check_same_plan(planned, opt.bind(*opt.enumerate(shape), shape, {}, &memo));
  }
#else
  optimizer::Optimizer::Result planned =
      opt.bind(*plan, shape, span.context());
#endif
  if (span) {
    span.tag("template", hit ? "hit" : "miss");
    span.tag("plans_considered",
             static_cast<uint64_t>(planned.plans_considered));
    span.tag("estimated_net_s", planned.estimated.net_s);
    span.tag("estimated_rows", planned.estimated.rows);
    if (planned.plan != nullptr) {
      span.tag("plan", physical::to_physical_string(planned.plan));
    } else {
      span.tag("mode", "local evaluation");
    }
  }
  return planned;
}

session::QueryHandle Mediator::submit(const std::string& oql_text,
                                      QueryOptions options) {
  session::QueryHandle handle =
      sessions_->submit(oql_text, options.deadline_s);
  {
    std::lock_guard<std::mutex> lock(handles_mutex_);
    // Soft cap: a long-lived daemon accumulates handles from clients
    // that never poll again; sweep settled ones before growing further.
    constexpr size_t kSweepThreshold = 4096;
    if (handles_.size() >= kSweepThreshold) {
      for (auto it = handles_.begin(); it != handles_.end();) {
        if (it->second.state() != session::SessionState::Pending) {
          it = handles_.erase(it);
        } else {
          ++it;
        }
      }
    }
    handles_.emplace(handle.id(), handle);
  }
  return handle;
}

session::QueryHandle Mediator::find_handle(uint64_t query_id) const {
  std::lock_guard<std::mutex> lock(handles_mutex_);
  auto it = handles_.find(query_id);
  return it == handles_.end() ? session::QueryHandle{} : it->second;
}

bool Mediator::cancel(uint64_t query_id) {
  session::QueryHandle handle;
  {
    std::lock_guard<std::mutex> lock(handles_mutex_);
    auto it = handles_.find(query_id);
    if (it == handles_.end()) return false;
    handle = it->second;
    handles_.erase(it);
  }
  // cancel() fires settled callbacks inline; never call it while holding
  // handles_mutex_ (a callback may re-enter the registry).
  handle.cancel();
  return true;
}

bool Mediator::release_handle(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(handles_mutex_);
  return handles_.erase(query_id) > 0;
}

size_t Mediator::live_handles() const {
  std::lock_guard<std::mutex> lock(handles_mutex_);
  return handles_.size();
}

Answer Mediator::run_planned(const fedcat::SnapshotPtr& snap,
                             const optimizer::Optimizer::Result& planned,
                             QueryOptions options, const QueryTrace& qt) {

  QueryStats stats;
  stats.plans_considered = planned.plans_considered;
  stats.estimated = planned.estimated;
  stats.local_mode = planned.plan == nullptr;
  stats.trace = qt.trace;

  // Materialize auxiliary collections (extents referenced from nested
  // subqueries, or everything in local mode). If any auxiliary source is
  // unavailable, the whole query is the residual answer — finer-grained
  // partial evaluation only applies to the main plan's branches.
  oql::MapResolver resolver;
  bool aux_incomplete = false;
  auto materialize = [&](const std::vector<std::pair<
                             std::string, physical::PhysicalPtr>>& plans,
                         bool closure) {
    for (const auto& [name, plan] : plans) {
      obs::ScopedSpan aux_span(qt.obs(), "aux", "mediator");
      aux_span.tag("name", name + (closure ? "*" : ""));
      physical::Runtime runtime(make_context(snap, nullptr,
                                             options.deadline_s,
                                             aux_span.context()));
      physical::RunResult run = runtime.run(plan);
      stats.run += run.stats;
      if (!run.complete()) {
        aux_incomplete = true;
        continue;
      }
      if (closure) {
        resolver.bind_closure(name, run.data);
      } else {
        resolver.bind(name, run.data);
      }
    }
  };
  materialize(planned.aux, false);
  materialize(planned.aux_closures, true);
  if (aux_incomplete) {
    return Answer::partial_answer(Value::bag({}), {planned.expanded},
                                  std::move(stats));
  }

  if (planned.plan == nullptr) {
    // Local mode: the mediator evaluates the expression itself over the
    // materialized collections.
    obs::ScopedSpan local(qt.obs(), "local_eval", "mediator");
    Value data = oql::Evaluator(&resolver).eval(planned.local);
    return Answer::complete_answer(std::move(data), std::move(stats));
  }

  physical::RunResult run;
  {
    obs::ScopedSpan exec_span(qt.obs(), "execute", "mediator");
    physical::Runtime runtime(make_context(snap, &resolver,
                                           options.deadline_s,
                                           exec_span.context()));
    run = runtime.run(planned.plan);
  }
  stats.run += run.stats;

  if (run.complete()) {
    return Answer::complete_answer(std::move(run.data), std::move(stats));
  }
  // §4: transform the unfinished physical parts back into OQL.
  obs::ScopedSpan residual_span(qt.obs(), "residuals", "mediator");
  std::vector<oql::ExprPtr> residuals;
  residuals.reserve(run.residuals.size());
  for (const algebra::LogicalPtr& residual : run.residuals) {
    residuals.push_back(algebra::reconstruct(residual));
  }
  residual_span.tag("count", static_cast<uint64_t>(residuals.size()));
  return Answer::partial_answer(std::move(run.data), std::move(residuals),
                                std::move(stats));
}

namespace {

const char* basis_name(optimizer::CostHistory::Basis basis) {
  switch (basis) {
    case optimizer::CostHistory::Basis::Exact:
      return "exact";
    case optimizer::CostHistory::Basis::Close:
      return "close";
    case optimizer::CostHistory::Basis::Repository:
      return "repository";
    case optimizer::CostHistory::Basis::Default:
      return "default";
  }
  return "default";
}

/// Collects every source call (Exec and BindJoin leaves) of a physical
/// plan, in plan order, with its §3.3 learned cost estimate and whether
/// the result cache holds a fresh answer for it right now.
void collect_submits(const physical::PhysicalPtr& node,
                     const optimizer::CostHistory& history,
                     const cache::ResultCache* cache,
                     std::vector<Mediator::ExplainReport::Submit>* out) {
  if (node == nullptr) return;
  if (node->op == physical::POp::Exec ||
      node->op == physical::POp::BindJoin) {
    Mediator::ExplainReport::Submit submit;
    submit.repository = node->repository;
    submit.wrapper = node->wrapper;
    submit.remote = node->remote_key->text;
    submit.bind_join = node->op == physical::POp::BindJoin;
    // Bind joins ship the base remote *plus* a run-time key disjunction,
    // so only the non-bound key can be probed statically; a "cached"
    // bind join means its exact probe was cached (keys included) only
    // when the plan degenerates to the base remote.
    submit.cached = cache != nullptr &&
                    cache->contains(node->repository, node->remote_key->text);
    // Bind-join probes that ship keys are recorded (and costed) under the
    // plan's canonical one-key probe_shape, so report the estimate the
    // Coster actually consulted.
    submit.learned = history.estimate(
        node->repository,
        submit.bind_join ? *node->probe_key : *node->remote_key);
    out->push_back(std::move(submit));
  }
  collect_submits(node->child, history, cache, out);
  collect_submits(node->left, history, cache, out);
  collect_submits(node->right, history, cache, out);
  for (const physical::PhysicalPtr& child : node->children) {
    collect_submits(child, history, cache, out);
  }
}

}  // namespace

Mediator::ExplainReport Mediator::explain_report(
    const std::string& oql_text) const {
  const fedcat::SnapshotPtr snap = fedcat_.snapshot();
  optimizer::OptimizerOptions opt_options = options_.optimizer;
  opt_options.record_decisions = true;
  optimizer::Optimizer::Result planned =
      make_optimizer(snap, opt_options).optimize(oql::parse(oql_text));

  ExplainReport report;
  report.query = oql_text;
  report.expanded = oql::to_oql(planned.expanded);
  report.local_mode = planned.plan == nullptr;
  report.estimated = planned.estimated;
  report.plans_considered = planned.plans_considered;
  report.prune = planned.prune;
  report.decisions = std::move(planned.decisions);
  report.candidates = std::move(planned.candidates);
  for (const auto& [name, plan] : planned.aux) {
    report.aux.emplace_back(name, physical::to_physical_string(plan));
    collect_submits(plan, history_, result_cache_.get(), &report.submits);
  }
  for (const auto& [name, plan] : planned.aux_closures) {
    report.aux.emplace_back(name + "*", physical::to_physical_string(plan));
    collect_submits(plan, history_, result_cache_.get(), &report.submits);
  }
  if (planned.plan != nullptr) {
    report.plan = physical::to_physical_string(planned.plan);
    collect_submits(planned.plan, history_, result_cache_.get(),
                    &report.submits);
  }
  return report;
}

std::string Mediator::ExplainReport::to_string() const {
  std::string out;
  out += "expanded: " + expanded + "\n";
  for (const auto& [name, plan_text] : aux) {
    out += "aux " + name + ": " + plan_text + "\n";
  }
  if (local_mode) {
    out += "mode: local evaluation\n";
    return out;
  }
  out += "plan: " + plan + "\n";
  out += "plans considered: " + std::to_string(plans_considered) + "\n";
  out += "pruning: " + std::to_string(prune.extents_considered) + "/" +
         std::to_string(prune.extents_total) + " extents considered, " +
         std::to_string(prune.pruned_by_type) + " pruned by type; " +
         std::to_string(prune.grammar_consultations) +
         " grammar consultations, " +
         std::to_string(prune.variants_skipped) +
         " variants shape-shared\n";
  out += "estimated: net " + std::to_string(estimated.net_s) + "s, cpu " +
         std::to_string(estimated.cpu_s) + "s, rows " +
         std::to_string(estimated.rows) + "\n";
  for (const Submit& submit : submits) {
    out += "submit " + submit.repository + " [" + submit.wrapper + "]";
    if (submit.bind_join) out += " (bindjoin)";
    if (submit.cached) out += " (served from cache)";
    out += ": " + submit.remote + " -- learned: time " +
           std::to_string(submit.learned.time_s) + "s, rows " +
           std::to_string(submit.learned.rows) + " (" +
           basis_name(submit.learned.basis) + ", " +
           std::to_string(submit.learned.observations) + " obs)\n";
  }
  for (const optimizer::PushdownDecision& d : decisions) {
    out += "decision " + d.rule + " @ " + d.repository + "/" + d.wrapper +
           ": " + (d.accepted ? "accept " : "reject ") + d.expr + "\n";
  }
  for (const optimizer::PlanCandidate& c : candidates) {
    std::string flags;
    if (c.push_select) flags += " R1";
    if (c.push_project) flags += " R2";
    if (c.merge_joins) flags += " R3";
    if (c.bind_join) flags += " bind";
    if (flags.empty()) flags = " none";
    out += std::string("candidate") + (c.chosen ? " (chosen)" : "") + ":" +
           flags + ", net " + std::to_string(c.cost.net_s) + "s, rows " +
           std::to_string(c.cost.rows) + ", " + c.logical + "\n";
  }
  return out;
}

std::string Mediator::explain(const std::string& oql_text) const {
  return explain_report(oql_text).to_string();
}

Mediator::QueryTrace Mediator::begin_trace(const std::string& query_text) {
  if (tracer_ == nullptr) return {};
  QueryTrace qt;
  qt.trace = tracer_->start_query(query_text);
  qt.root = qt.trace->begin(0, "query", "mediator");
  qt.trace->tag(qt.root, "query", query_text);
  // Queries run by the session worker carry their session identity, so a
  // trace ring over a busy mediator tells initial runs from residual
  // resubmissions apart.
  const session::ResubmissionManager::ActiveRun run =
      session::ResubmissionManager::current_run();
  if (run.active) {
    qt.trace->tag(qt.root, "session.id", run.session_id);
    qt.trace->tag(qt.root, "session.resubmission",
                  static_cast<uint64_t>(run.resubmission));
  }
  return qt;
}

void Mediator::finish_query_trace(const QueryTrace& qt,
                                  const Answer& answer) {
  if (qt.trace == nullptr) return;
  obs::Trace& trace = *qt.trace;
  trace.tag(qt.root, "outcome",
            std::string(answer.complete() ? "complete" : "partial"));
  trace.tag(qt.root, "rows",
            static_cast<uint64_t>(answer.stats().run.rows_fetched));
  if (!answer.complete()) {
    trace.tag(qt.root, "residuals",
              static_cast<uint64_t>(answer.residuals().size()));
  }
  trace.end(qt.root);

  registry_->counter("mediator.queries").add();
  if (!answer.complete()) {
    registry_->counter("mediator.queries.partial").add();
  }
  obs::Span span;
  if (trace.find_span("parse", &span)) {
    registry_->histogram("stage.parse.seconds").observe(span.duration_s());
  }
  if (trace.find_span("optimize", &span)) {
    registry_->histogram("stage.optimize.seconds").observe(span.duration_s());
  }
  if (trace.find_span("execute", &span)) {
    registry_->histogram("stage.execute.seconds").observe(span.duration_s());
  }
  tracer_->finish(qt.trace);
}

obs::RegistrySnapshot Mediator::obs_snapshot() const {
  obs::RegistrySnapshot snap = registry_->snapshot();
  const exec::MetricsSnapshot m = exec_metrics_.snapshot();
  snap.counters["exec.dispatched"] = m.dispatched;
  snap.counters["exec.succeeded"] = m.succeeded;
  snap.counters["exec.failed"] = m.failed;
  snap.counters["exec.timed_out"] = m.timed_out;
  snap.counters["exec.retries"] = m.retries;
  snap.counters["exec.rows"] = m.rows;
  snap.counters["exec.short_circuits"] = m.short_circuits;
  snap.counters["exec.probes"] = m.probes;
  snap.counters["exec.queued"] = m.queued;
  snap.counters["exec.shed"] = m.shed;
  if (scheduler_ != nullptr) {
    const sched::SchedStats sched = scheduler_->totals();
    snap.counters["sched.admitted"] = sched.admitted;
    snap.counters["sched.queued_calls"] = sched.queued_calls;
    snap.counters["sched.shed"] = sched.shed;
    snap.counters["sched.in_flight"] = sched.in_flight;
    snap.counters["sched.queue_depth"] = sched.queued;
  }
  const session::ResubmissionManager::Stats s = sessions_->stats();
  snap.counters["session.submitted"] = s.submitted;
  snap.counters["session.completed"] = s.completed;
  snap.counters["session.failed"] = s.failed;
  snap.counters["session.cancelled"] = s.cancelled;
  snap.counters["session.resubmissions"] = s.resubmissions;
  snap.counters["health.tracked_sources"] = tracker_->tracked();
  snap.counters["health.probes"] = tracker_->total_probes();
  // Per-source circuit state and availability. Repository names are
  // free-form (quotes, backslashes, anything a DBA typed), so they rely
  // on RegistrySnapshot::to_json escaping every key.
  for (const std::string& name : tracker_->tracked_repositories()) {
    const session::SourceHealth h = tracker_->health(name);
    const std::string prefix = "health.source." + name;
    snap.counters[prefix + ".state"] = static_cast<uint64_t>(h.state);
    snap.counters[prefix + ".availability_ppm"] =
        static_cast<uint64_t>(h.availability * 1e6 + 0.5);
    snap.counters[prefix + ".failures"] = h.failures;
  }
  snap.counters["mediator.live_handles"] = live_handles();
  {
    const fedcat::SnapshotPtr fed = fedcat_.snapshot();
    snap.counters["fedcat.epoch"] = fed->epoch;
    snap.counters["fedcat.extents"] = fed->catalog.extent_count();
    snap.counters["fedcat.interfaces_indexed"] = fed->index.interface_count();
    snap.counters["fedcat.capability_shards"] = fed->index.shard_count();
    // Source-side gauges (e.g. memdb.rows_scanned / index_hits), summed
    // across every registered wrapper of the current epoch so federations
    // with several wrappers of one kind report one family.
    for (const auto& [name, wrapper] : fed->wrappers) {
      for (const auto& [gauge, value] : wrapper->stat_gauges()) {
        snap.counters[gauge] += value;
      }
    }
  }
  snap.counters["fedcat.live_epochs"] = fedcat_.live_epochs();
  snap.counters["fedcat.retired_epochs"] = fedcat_.retired_epochs();
  return snap;
}

}  // namespace disco
