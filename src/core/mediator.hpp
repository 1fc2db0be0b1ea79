// The DISCO mediator (M in Figure 1) — the paper's primary contribution.
//
// One Mediator bundles the Prototype-0 pipeline of Figure 2: the ODL/OQL
// parsers, the internal database (catalog), the query optimizer, the
// run-time system, and the bindings to wrapper objects. It talks to data
// sources through wrappers over the simulated network, learns per-source
// costs (§3.3), and returns Answers with partial-evaluation semantics
// (§4).
//
// Typical setup (see examples/quickstart.cpp):
//
//   disco::Mediator m;
//   m.register_wrapper_factory("WrapperMiniSql", [&] { ... });
//   m.execute_odl(R"(
//     interface Person (extent person) {
//       attribute String name;
//       attribute Short salary; };
//     r0 := Repository(host="rodin", name="db", address="123.45.6.7");
//     w0 := WrapperMiniSql();
//     extent person0 of Person wrapper w0 repository r0;
//   )");
//   disco::Answer a = m.query("select x.name from x in person");
//
// Concurrency: query() is safe to call from many threads at once — the
// plan-template table sits under a shared_mutex, CostHistory and the
// network are internally synchronized, and with Options::exec.workers > 0
// the source calls of each plan fan out across one shared thread pool.
// Administration (execute_odl, register_*) is concurrent with queries:
// the federation catalog lives in epoch-numbered immutable snapshots
// (src/fedcat/). Every query pins the snapshot current at its start and
// runs against it to completion; each admin call builds the next
// snapshot aside and atomically publishes it. Mid-query registration
// neither blocks nor corrupts — running queries keep answering from the
// epoch they started in, later queries see the new world, and an old
// epoch is retired when its last query drains. Concurrent admin calls
// serialize against each other (blocking, not throwing).
//
// Resilience (src/session/): every source-call outcome feeds a
// SourceHealthTracker. With Options::health.enabled the tracker's
// circuit breakers short-circuit calls to dark sources (partial answers
// with zero wait instead of a timeout), a background prober re-tests
// open circuits, and the optimizer penalizes plans leaning on unhealthy
// sources. submit() returns a QueryHandle whose partial answer finishes
// itself as sources recover.
#pragma once

#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cache/result_cache.hpp"
#include "catalog/catalog.hpp"
#include "core/answer.hpp"
#include "exec/dispatcher.hpp"
#include "exec/metrics.hpp"
#include "exec/thread_pool.hpp"
#include "fedcat/snapshot.hpp"
#include "net/network.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "optimizer/cost.hpp"
#include "optimizer/optimizer.hpp"
#include "optimizer/plan_template.hpp"
#include "sched/scheduler.hpp"
#include "session/health.hpp"
#include "session/session.hpp"
#include "wrapper/wrapper.hpp"

namespace disco {

/// Per-query knobs.
struct QueryOptions {
  /// §4's designated time: calls slower than this are classified
  /// unavailable and the answer becomes partial.
  double deadline_s = std::numeric_limits<double>::infinity();
};

class Mediator {
 public:
  struct Options {
    uint64_t network_seed = 1;
    optimizer::OptimizerOptions optimizer;
    /// Network model for repositories defined through ODL assignments.
    net::LatencyModel default_latency;
    /// §2.1 run-time type checking: validate every row wrappers return
    /// against the extent's interface. Off by default (costs a pass over
    /// every fetched row).
    bool validate_source_rows = false;
    /// Read by nothing. Plan templates (optimizer/plan_template.hpp) are
    /// always on: every query binds the template of its shape, priced
    /// afresh. The field stays so that existing configurations compile.
    bool enable_plan_cache = false;
    /// Concurrent executor (src/exec/): workers == 0 keeps the paper's
    /// deterministic sequential virtual-time simulation; workers >= 1
    /// switches to wall-clock mode — source calls fan out over a thread
    /// pool with per-call deadlines and retry-with-backoff.
    exec::ExecOptions exec;
    /// Circuit breakers + background probing (src/session/). Health is
    /// always *tracked*; set health.enabled to also short-circuit calls
    /// to open circuits and run the half-open prober.
    session::HealthOptions health;
    /// Background completion of partial answers (Mediator::submit()).
    session::SessionOptions session;
    /// Query tracing (src/obs/). Off by default: with obs.enabled false
    /// no tracer is allocated and every instrumentation site in the
    /// pipeline reduces to a single null-pointer check.
    obs::ObsOptions obs;
    /// Submit-result cache + single-flight coalescing (src/cache/). Off
    /// by default — the §4 semantics fetches from the sources on every
    /// query. With cache.enabled, successful submit replies are memoized
    /// (LRU under cache.max_bytes, per-entry cache.ttl_s in simulated
    /// seconds) and concurrent identical submits coalesce onto one
    /// source call. Invalidated on any catalog change, on circuit-state
    /// transitions, and by invalidate_cache().
    cache::CacheOptions cache;
    /// Per-source admission control & fair scheduling (src/sched/). Off
    /// by default. With sched.enabled (and exec.workers > 0), every
    /// source call first acquires that endpoint's token: at most
    /// sched.per_endpoint_limit calls (overridable per repository via
    /// sched.limits) are in flight per source, excess calls wait in a
    /// bounded fair queue (round-robin across queries), and overload
    /// sheds calls into §4 residuals that complete later by
    /// resubmission. Virtual-time mode (workers == 0) never needs it:
    /// calls there are sequential by construction.
    sched::SchedOptions sched;
  };

  Mediator();
  explicit Mediator(Options options);

  // -- component access (the internal db, the simulated world) -------------
  /// The *current* epoch's catalog. Read-only: mutations go through
  /// execute_odl / register_* so they publish a fresh epoch. The
  /// reference is stable until the next admin call — code that may race
  /// with administration pins catalog_snapshot() instead.
  const catalog::Catalog& catalog() const {
    return fedcat_.current_catalog();
  }
  /// Pins the current federation epoch (catalog + wrappers + extent
  /// index); holding it keeps that epoch alive across admin swaps.
  fedcat::SnapshotPtr catalog_snapshot() const { return fedcat_.snapshot(); }
  /// Current catalog generation, and how many epochs are still pinned by
  /// draining queries / have fully drained.
  uint64_t catalog_epoch() const { return fedcat_.epoch(); }
  size_t live_epochs() const { return fedcat_.live_epochs(); }
  uint64_t retired_epochs() const { return fedcat_.retired_epochs(); }
  net::Network& network() { return network_; }
  net::VirtualClock& clock() { return clock_; }
  optimizer::CostHistory& cost_history() { return history_; }

  // -- administration (the DBA interface, §2) --------------------------------
  /// Executes ODL text: interface / extent / define / assignments.
  /// `x := Repository(...)` defines a repository and a network endpoint;
  /// `x := SomeCtor(...)` instantiates a wrapper via a registered factory.
  void execute_odl(const std::string& text);

  /// Binds a wrapper object to a name (the programmatic alternative to
  /// `w0 := WrapperMiniSql();`).
  void register_wrapper(const std::string& name,
                        std::shared_ptr<wrapper::Wrapper> wrapper);
  /// Registers a constructor usable from ODL assignments.
  void register_wrapper_factory(
      const std::string& constructor,
      std::function<std::shared_ptr<wrapper::Wrapper>()> factory);

  /// Defines a repository and its network endpoint in one step.
  void register_repository(catalog::Repository repository,
                           net::LatencyModel latency = {},
                           net::Availability availability = {});

  wrapper::Wrapper* wrapper_by_name(const std::string& name) const;

  // -- querying (§3, §4) ------------------------------------------------------
  Answer query(const std::string& oql_text, QueryOptions options = {});
  Answer query(const oql::ExprPtr& query, QueryOptions options = {});

  // -- asynchronous sessions (src/session/) ----------------------------------
  /// Submits a query for background execution and returns immediately.
  /// The handle's snapshot() is the current best (§4 partial) answer;
  /// the ResubmissionManager re-executes the residuals as sources
  /// recover until the answer is complete. The handle is also retained
  /// in the mediator's registry under its id, so out-of-process clients
  /// (src/server/) can poll/cancel by id alone. Thread-safe.
  session::QueryHandle submit(const std::string& oql_text,
                              QueryOptions options = {});

  /// Looks up a registered handle by query id; !valid() when the id is
  /// unknown (never registered, or already released). Thread-safe.
  session::QueryHandle find_handle(uint64_t query_id) const;

  /// Cancels the registered session with this id and releases it from
  /// the registry: pending resubmissions are dropped (settled callbacks
  /// fire with Cancelled) and no tokens or cache leader tickets stay
  /// held on its behalf. Returns false for unknown ids. Thread-safe.
  bool cancel(uint64_t query_id);

  /// Drops a handle from the registry without cancelling the session
  /// (a client that fetched its complete answer and is done with the
  /// id). Returns false for unknown ids. Thread-safe.
  bool release_handle(uint64_t query_id);

  /// Handles currently retained in the registry (any state; terminal
  /// handles are swept opportunistically on submit()).
  size_t live_handles() const;

  /// Per-repository circuit-breaker state and EWMA health.
  session::SourceHealthTracker& health_tracker() { return *tracker_; }
  const session::SourceHealthTracker& health_tracker() const {
    return *tracker_;
  }
  session::SourceHealth source_health(const std::string& repository) const {
    return tracker_->health(repository);
  }
  /// Background-completion counters (submitted/completed/resubmissions).
  session::ResubmissionManager::Stats session_stats() const {
    return sessions_->stats();
  }

  // -- explain & trace (src/obs/) --------------------------------------------
  /// Structured optimizer report for one query text: the chosen logical/
  /// physical plan, every capability-grammar pushdown decision (accepted
  /// or rejected), every costed alternative, and the §3.3 learned cost
  /// estimate per submit. Does not execute the query.
  struct ExplainReport {
    /// One source call the chosen plan will issue.
    struct Submit {
      std::string repository;
      std::string wrapper;
      std::string remote;  ///< shipped expression (algebra text)
      bool bind_join = false;
      /// A fresh cache entry holds this submit's answer right now — the
      /// call would be served from the cache, not the source.
      bool cached = false;
      optimizer::CostHistory::Estimate learned;
    };

    std::string query;
    std::string expanded;  ///< view-expanded OQL
    bool local_mode = false;
    std::string plan;  ///< physical plan text; empty in local mode
    optimizer::Cost estimated;
    size_t plans_considered = 0;
    /// Federation-scale pruning counters: how much of the registered
    /// extent world planning touched, and what the grammar verdict tables
    /// / shape sharing saved (src/fedcat/). to_string() leaves out the
    /// memo-hit count: verdict tables outlive a query, so it depends on
    /// what was planned before, and explain text stays a function of the
    /// catalog, the learned costs and the query.
    optimizer::PruneStats prune;
    std::vector<Submit> submits;
    std::vector<optimizer::PushdownDecision> decisions;
    std::vector<optimizer::PlanCandidate> candidates;
    /// Auxiliary materialization plans: (name, plan text); closures are
    /// suffixed '*'.
    std::vector<std::pair<std::string, std::string>> aux;

    std::string to_string() const;
  };
  ExplainReport explain_report(const std::string& oql_text) const;

  /// Optimizer output for a query: chosen physical plan, cost estimate,
  /// alternatives considered, per-submit pushdown decisions and learned
  /// costs. The printable form of explain_report(). For debugging and
  /// the benches.
  std::string explain(const std::string& oql_text) const;

  /// The tracer, or null when Options::obs.enabled is false.
  obs::Tracer* tracer() { return tracer_.get(); }
  /// Most recently finished query trace (null when tracing is off or no
  /// query ran yet).
  std::shared_ptr<const obs::Trace> last_trace() const {
    return tracer_ != nullptr ? tracer_->last() : nullptr;
  }
  /// The counter/histogram registry this mediator reports into
  /// (Options::obs.registry or the process-wide default).
  obs::Registry& obs_registry() const { return *registry_; }
  /// One consistent snapshot unifying the obs registry with the
  /// executor's Metrics, the session manager's stats and per-source
  /// health — the single pane of glass for a mediator under load.
  obs::RegistrySnapshot obs_snapshot() const;

  /// Plan-template counters: `hits` are queries that bound a kept
  /// template, `misses` the enumerations on the query path (a shape seen
  /// first, or one no template may serve), `invalidations` the templates
  /// dropped (batch eviction, or an interface definition).
  struct PlanCacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;
  };
  /// Snapshot (the counters move concurrently under load).
  PlanCacheStats plan_cache_stats() const {
    const optimizer::TemplateTable::Stats stats = templates_.stats();
    return PlanCacheStats{stats.hits, stats.builds, stats.drops};
  }

  // -- result cache (src/cache/) ---------------------------------------------
  /// Drops every cached submit result (explicit refresh — e.g. the
  /// operator knows a source reloaded). No-op when the cache is off.
  void invalidate_cache() {
    if (result_cache_ != nullptr) result_cache_->invalidate_all();
  }
  /// Hit/coalesced/miss/eviction counters plus current size; zeroes when
  /// the cache is off.
  cache::CacheStats cache_stats() const {
    return result_cache_ != nullptr ? result_cache_->stats()
                                    : cache::CacheStats{};
  }
  /// cache_stats() plus the per-entry inventory as one JSON object
  /// (repository names and remote algebra text are escaped — they may
  /// contain quotes and backslashes). `{"enabled":false}` when off.
  std::string cache_stats_json() const {
    return result_cache_ != nullptr ? result_cache_->stats_json()
                                    : std::string("{\"enabled\":false}");
  }
  /// The cache itself, or null when Options::cache.enabled is false.
  cache::ResultCache* result_cache() { return result_cache_.get(); }

  /// Aggregated per-endpoint network counters across the whole
  /// federation — one number stream for load tests instead of polling
  /// every repository. Thread-safe.
  net::TrafficStats traffic_stats() const { return network_.total_stats(); }

  /// Concurrent-executor counters (zeroes when exec.workers == 0).
  exec::MetricsSnapshot exec_metrics() const {
    return exec_metrics_.snapshot();
  }

  // -- admission control (src/sched/) ----------------------------------------
  /// The scheduler, or null when Options::sched.enabled is false (or
  /// exec.workers == 0 — virtual-time mode never schedules).
  sched::QueryScheduler* scheduler() { return scheduler_.get(); }
  /// Aggregate admission counters across every endpoint; zeroes when the
  /// scheduler is off.
  sched::SchedStats sched_stats() const {
    return scheduler_ != nullptr ? scheduler_->totals() : sched::SchedStats{};
  }
  /// One endpoint's admission counters; zeroes when the scheduler is off.
  sched::EndpointSchedStats sched_stats(const std::string& repository) const {
    return scheduler_ != nullptr ? scheduler_->endpoint_stats(repository)
                                 : sched::EndpointSchedStats{};
  }

 private:
  /// One query's live trace: the Trace plus its root span. Empty (null
  /// trace) when tracing is disabled — every helper below checks once.
  struct QueryTrace {
    std::shared_ptr<obs::Trace> trace;
    uint64_t root = 0;
    obs::ObsContext obs() const { return {trace.get(), root}; }
  };
  /// Mints a trace with an open root "query" span (tagged with the text
  /// and, when running inside a session resubmission, the session id);
  /// empty when tracing is off.
  QueryTrace begin_trace(const std::string& query_text);
  /// Closes the root span, tags the outcome, feeds the stage histograms
  /// and query counters into the registry, and retains the trace.
  void finish_query_trace(const QueryTrace& qt, const Answer& answer);

  /// The query pipeline under one pinned snapshot: every stage below
  /// plans and executes against the epoch current when it starts, so a
  /// concurrent registration can never change the world out from under a
  /// running query. The lambdas handed to the optimizer / runtime capture
  /// the SnapshotPtr by value, which is what keeps the epoch alive.
  Answer query_impl(const oql::ExprPtr& query, QueryOptions options,
                    const QueryTrace& qt);
  /// Optimizes under an "optimize" span (plan tags, candidate events,
  /// "template": hit or miss): binds the template of the query's shape,
  /// enumerating it first when there is none, and keeping it unless the
  /// template table moved past `generation` meanwhile.
  optimizer::Optimizer::Result optimize_traced(
      const fedcat::SnapshotPtr& snap, const oql::ExprPtr& query,
      uint64_t generation, const QueryTrace& qt) const;
  Answer run_planned(const fedcat::SnapshotPtr& snap,
                     const optimizer::Optimizer::Result& planned,
                     QueryOptions options, const QueryTrace& qt);
  optimizer::Optimizer make_optimizer(const fedcat::SnapshotPtr& snap) const;
  optimizer::Optimizer make_optimizer(
      const fedcat::SnapshotPtr& snap,
      optimizer::OptimizerOptions options) const;
  physical::ExecContext make_context(const fedcat::SnapshotPtr& snap,
                                     const oql::CollectionResolver* resolver,
                                     double deadline_s,
                                     obs::ObsContext obs = {});
  /// Epoch-scoped cache invalidation: drops only what an admin update
  /// declared it touched (types changed -> everything; otherwise the
  /// affected repositories' entries).
  void apply_invalidation(const fedcat::UpdateScope& scope);

  Options options_;
  /// The federation catalog: epoch snapshots of (catalog, wrappers,
  /// extent index). See src/fedcat/snapshot.hpp.
  fedcat::CatalogManager fedcat_;
  net::Network network_;
  net::VirtualClock clock_;
  optimizer::CostHistory history_;
  /// ODL constructors. Not part of the snapshot: factories are mediator
  /// configuration, not federation state — a query never consults them.
  mutable std::mutex factories_mutex_;
  std::unordered_map<std::string,
                     std::function<std::shared_ptr<wrapper::Wrapper>()>>
      factories_;

  // Observability (src/obs/). registry_ is never null (Options::obs's
  // sink or the process-global registry); tracer_ is allocated only when
  // Options::obs.enabled — its nullness IS the disabled fast path.
  obs::Registry* registry_ = nullptr;
  std::unique_ptr<obs::Tracer> tracer_;

  // Concurrent executor (Options::exec.workers > 0); shared by every
  // query so the pool bounds total source-call parallelism.
  exec::Metrics exec_metrics_;
  std::unique_ptr<exec::ThreadPool> pool_;
  std::unique_ptr<exec::ParallelDispatcher> dispatcher_;

  // Handle registry: every submit()'s QueryHandle retained by id so
  // network clients can poll/cancel without holding the handle object.
  // Swept of terminal handles once it outgrows a soft cap.
  mutable std::mutex handles_mutex_;
  std::unordered_map<uint64_t, session::QueryHandle> handles_;

  // Per-source admission control (Options::sched.enabled and wall-clock
  // mode only); shared by every query and by session resubmissions.
  std::unique_ptr<sched::QueryScheduler> scheduler_;
  /// Fair-queue identity for the scheduler: one fresh id per top-level
  /// run (query / submit / resubmission round).
  std::atomic<uint64_t> next_query_id_{0};

  // Submit-result cache (Options::cache.enabled); shared by every query
  // and by the session worker's resubmissions, so it must outlive the
  // session subsystem below (destroyed after it).
  std::unique_ptr<cache::ResultCache> result_cache_;

  // Plan templates, one per query shape, shared across concurrent
  // queries. Keys name the sources each query resolved to, so catalog
  // updates need no invalidation but an interface definition's; every
  // use is priced afresh, so cost observations need none at all.
  mutable optimizer::TemplateTable templates_;

  // Session subsystem (src/session/). Declared last on purpose —
  // destroyed first, in order: sessions_ (its worker runs queries
  // against everything above), then prober_ (submits probe jobs to
  // pool_ and reports into tracker_), then tracker_.
  std::unique_ptr<session::SourceHealthTracker> tracker_;
  std::unique_ptr<session::Prober> prober_;
  std::unique_ptr<session::ResubmissionManager> sessions_;
};

}  // namespace disco
