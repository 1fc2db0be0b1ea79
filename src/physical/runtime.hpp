// The mediator run-time system (§3.3, §4 of the paper).
//
// Executes a physical plan against the wrappers through the simulated
// network, under a query deadline:
//
//   "Query processing proceeds normally until a designed time has
//    elapsed. At this point, data sources are classified as unavailable
//    ... The query is rewritten into two parts, one which contains a
//    query to the unavailable data, and the other ... data." (§4)
//
// All exec calls of a plan are issued logically in parallel at the same
// virtual instant (§4: "These calls proceed in parallel. Calls to
// available data sources succeed. Calls to unavailable data sources
// block."). A call whose simulated latency exceeds the deadline is
// classified unavailable. The query's elapsed virtual time is the max
// completed-call latency, or the full deadline when anything blocked.
//
// Results propagate as (data, residuals):
//   * exec: data when the source answered, otherwise its logical form
//     becomes a residual;
//   * filter/project distribute over residuals (filter(union(d, r)) =
//     union(filter(d), filter(r)));
//   * a join with any residual input turns entirely residual — its
//     logical form references only extents, so resubmission refetches
//     both sides (the submit operator cannot ship data between sources,
//     §3.2, so this is also what the paper's algebra can express);
//   * union concatenates.
// The final answer is union(residuals..., data) — a query again.
//
// One source call is one SourceCall record, filled in a fixed order:
// Runtime::perform runs the CPU part (circuit breaker, result cache,
// wrapper submit, scheduler admission), then the network answers, then
// Runtime::land runs the one observation site (health and §3.3 cost
// history through ExecContext::record_exec, §2.1 row validation,
// exec-span tags) before the cache publishes the reply. Breaker
// refusals, cache-served, shed and wrapper-refused calls end in perform
// and are never observed. Runtime::settle then turns the finished record
// into RunStats, trace instants and data-or-residual, on the query
// thread.
//
// Two execution modes share this path and the operator code (DESIGN.md
// §2, "Execution concurrency"):
//   * virtual-time (ExecContext::dispatcher == nullptr): the seed's
//     deterministic simulation — calls run inline and sequentially,
//     parallelism is accounted as max over latencies, the VirtualClock
//     advances;
//   * wall-clock (dispatcher set): perform runs for every exec leaf on
//     the dispatcher's compute pool (prefetch), and for a bind-join probe
//     on the query thread; the dispatcher then waits out the simulated
//     latency on its timer thread, retrying blips with backoff, and land
//     runs there when the reply lands, before it fulfils the future the
//     query thread waits on. Elapsed time is measured.
#pragma once

#include <cmath>
#include <functional>
#include <future>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/logical.hpp"
#include "cache/result_cache.hpp"
#include "catalog/catalog.hpp"
#include "exec/dispatcher.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "oql/eval.hpp"
#include "physical/plan.hpp"
#include "sched/scheduler.hpp"
#include "wrapper/wrapper.hpp"

namespace disco::physical {

/// One source call (§3.3's exec call), from breaker admission to its
/// final outcome. Runtime::perform fills it; ExecContext::record_exec and
/// Runtime::settle read the finished record.
struct SourceCall {
  enum class Outcome {
    Ok,
    Unavailable,   ///< no reply: the source was down (after any retries),
                   ///< or the deadline passed before it answered
    Timeout,       ///< the reply would land past the §4 deadline
    Shed,          ///< the scheduler shed the call before the network
    ShortCircuit,  ///< an open circuit refused the call
    Refused,       ///< the wrapper refused the expression
  };
  enum class Served { Source, CacheHit, Coalesced };

  std::string repository;
  std::string wrapper;
  algebra::LogicalPtr remote;    ///< the expression shipped to the wrapper
  /// `remote` rendered (its text is the result-cache key); null for a
  /// bind-join probe that shipped keys, rendered only when read.
  algebra::CostKeyPtr remote_key;
  algebra::LogicalPtr residual;  ///< the §4 residual when the call fails
  /// The key the cost history records the call under: the remote's, or
  /// for a bind-join probe that shipped keys the plan's one-key
  /// probe_shape.
  algebra::CostKeyPtr cost_key;
  Served served = Served::Source;
  Outcome outcome = Outcome::Ok;
  uint32_t attempts = 0;  ///< network rounds; 0 if the network was not reached
  double queued_s = 0;    ///< simulated seconds waiting for a scheduler token
  double latency_s = 0;   ///< simulated: network plus source compute; for a
                          ///< Timeout, the late reply's
  double wall_s = 0;      ///< wall-clock mode: dispatch to landing
  wrapper::SubmitResult reply;  ///< the rows, or the wrapper's refusal
  sched::QueryScheduler::ShedReason shed_reason =
      sched::QueryScheduler::ShedReason::None;
  uint64_t span = 0;  ///< the call's exec span (0 when untraced)

  /// Rows delivered to the query: the reply's, unless the call failed.
  size_t rows() const {
    return outcome == Outcome::Ok ? reply.data.size() : 0;
  }
};

/// Everything the runtime needs from the mediator.
struct ExecContext {
  const catalog::Catalog* catalog = nullptr;
  net::Network* network = nullptr;
  net::VirtualClock* clock = nullptr;
  /// Resolves a wrapper object name to the wrapper. Never returns null.
  std::function<wrapper::Wrapper*(const std::string&)> wrapper_by_name;
  /// Extra collections visible to predicate/projection evaluation
  /// (materialized auxiliary extents for nested subqueries); may be null.
  const oql::CollectionResolver* resolver = nullptr;
  /// Wall-clock executor; null selects the sequential virtual-time path.
  exec::ParallelDispatcher* dispatcher = nullptr;
  /// Per-source admission control (src/sched/); null (the default) means
  /// every call goes straight to the dispatcher. Only consulted in
  /// wall-clock mode, after the cache — a cache hit or a coalesced waiter
  /// never holds a token.
  sched::QueryScheduler* scheduler = nullptr;
  /// Identity of the submitting query for the scheduler's fair queue
  /// (round-robin across query ids); assigned by the mediator.
  uint64_t query_id = 0;
  /// Submit-result cache + single-flight coalescer (src/cache/); null
  /// (the default) preserves the fetch-every-time §4 semantics. Only
  /// successful replies are cached — residual outcomes never are.
  cache::ResultCache* cache = nullptr;
  /// Query deadline in seconds of virtual time (§4's "designated time").
  double deadline_s = std::numeric_limits<double>::infinity();
  /// §2.1: "At run-time, the wrapper checks that these types are indeed
  /// the same." When set, every env-shaped row a wrapper returns is
  /// validated against its extent's interface (TypeError on mismatch).
  bool validate_rows = false;
  /// Circuit-breaker admission (src/session/): when set and returning
  /// false for a repository, the exec leaf short-circuits — its residual
  /// is emitted immediately, with no network call and no deadline wait.
  /// Consulted exactly once per source call; may be empty.
  std::function<bool(const std::string& repository)> admit_source;
  /// Observation hook, fired once for every call that reached a source
  /// (ok, unavailable or timed out), in both modes — inline in virtual
  /// time, on the dispatcher's timer thread in wall-clock mode, where it
  /// must not block. The mediator feeds the
  /// health tracker and the §3.3 cost history from it ("When the exec
  /// call finishes, the arguments of the call, the time taken and the
  /// amount of data generated is recorded"). May be empty.
  std::function<void(const SourceCall& call)> record_exec;
  /// Tracing context (src/obs/): when set, every call that reaches a
  /// wrapper records an "exec" span (repository, remote expression,
  /// attempts, latency, rows, outcome); cache-served calls, sheds and
  /// circuit refusals record "cache_hit", "shed" and "short_circuit"
  /// instants. Default-off: one pointer check per site.
  obs::ObsContext obs;
};

struct RunStats {
  size_t exec_calls = 0;
  size_t unavailable_calls = 0;  ///< down, past-deadline, or open-circuit
  size_t short_circuit_calls = 0;  ///< subset: refused by an open circuit
  size_t rows_fetched = 0;
  size_t retry_attempts = 0;  ///< wall-clock mode: attempts beyond the first
  size_t cache_hits = 0;       ///< source calls served from a stored entry
  size_t cache_coalesced = 0;  ///< source calls that joined an in-flight
                               ///< identical fetch (single-flight)
  size_t shed_calls = 0;  ///< subset of unavailable: shed by the scheduler
                          ///< (queue full / queue deadline / drain) and
                          ///< converted to §4 residuals
  double elapsed_s = 0;  ///< virtual (or wall, in wall-clock mode) time

  /// Accumulation across runs (aux materialization, resubmissions).
  RunStats& operator+=(const RunStats& other) {
    exec_calls += other.exec_calls;
    unavailable_calls += other.unavailable_calls;
    short_circuit_calls += other.short_circuit_calls;
    rows_fetched += other.rows_fetched;
    retry_attempts += other.retry_attempts;
    cache_hits += other.cache_hits;
    cache_coalesced += other.cache_coalesced;
    shed_calls += other.shed_calls;
    elapsed_s += other.elapsed_s;
    return *this;
  }
};

struct RunResult {
  /// Data part of the answer (a bag).
  Value data;
  /// Residual logical branches; empty means the answer is complete.
  std::vector<algebra::LogicalPtr> residuals;
  RunStats stats;

  bool complete() const { return residuals.empty(); }
};

class Runtime {
 public:
  explicit Runtime(ExecContext context);

  /// Executes the plan; advances the virtual clock by the elapsed time.
  RunResult run(const PhysicalPtr& plan);

 private:
  struct Outcome {
    std::vector<Value> data;  ///< env structs or projected values
    std::vector<algebra::LogicalPtr> residuals;
  };

  Outcome eval(const PhysicalPtr& node);
  Outcome eval_exec(const Physical& node);
  Outcome eval_join(const Physical& node);
  Outcome eval_bind_join(const Physical& node);
  /// The row equi-join of HashJoin and BindJoin: buckets `right` on its
  /// EquiKey, probes with `left`'s, then applies the residual. Keys are
  /// read only when both sides are non-empty; if any key read throws,
  /// the join runs the nested loop over the node's logical predicate
  /// instead, so errors land exactly where the nested loop puts them.
  std::vector<Value> hash_join(const Physical& node,
                               const std::vector<Value>& left,
                               const std::vector<Value>& right) const;
  /// Every (left, right) env pair that satisfies `predicate`.
  std::vector<Value> nested_loop(const oql::ExprPtr& predicate,
                                 const std::vector<Value>& left,
                                 const std::vector<Value>& right) const;
  /// `predicate` (null: true) over one env row struct(var: row, ...).
  bool holds(const oql::ExprPtr& predicate, const Value& env) const;
  /// A source call between its stages: the record plus the exec span,
  /// the cache leader's ticket and the scheduler token it holds until
  /// it lands.
  struct Flight;
  /// Runs one call to its finished record on the calling thread: inline
  /// in virtual time; in wall-clock mode it waits for the landing.
  SourceCall run_call(SourceCall call);
  /// Wall-clock mode: runs perform for `call` on the compute pool
  /// (`on_pool`) or on this thread, hands the network wait to the
  /// dispatcher, and returns the future its landing fulfils.
  std::future<SourceCall> launch(SourceCall call, bool on_pool);
  /// The CPU part of a call, in the fixed stage order: breaker, cache,
  /// wrapper submit and, in wall-clock mode, scheduler admission. Returns
  /// true when the call goes on to the network; otherwise the record is
  /// finished. Touches only thread-safe components and no per-run state,
  /// so it runs on a pool thread in wall-clock mode.
  bool perform(Flight& flight) const;
  /// The tail of a call that reached a source, once the network answered:
  /// frees the scheduler token, runs the one observation site and
  /// publishes to the cache. Runs on the timer thread in wall-clock mode.
  void land(Flight& flight) const;
  /// Derives RunStats, the trace instants and data-or-residual from a
  /// finished call, on the query thread; throws on a wrapper refusal.
  Outcome settle(const SourceCall& call);
  bool wall_clock_mode() const { return context_.dispatcher != nullptr; }
  /// Wall-clock mode: launch every exec leaf of `plan` onto the pool.
  void prefetch_execs(const PhysicalPtr& plan);
  /// Blocks until every still-pending prefetched call has landed, so no
  /// pool task or landing outlives this Runtime (exception path,
  /// DAG-shaped plans).
  void drain_prefetched() noexcept;

  ExecContext context_;
  oql::Evaluator evaluator_;
  double issue_time_ = 0;      ///< virtual instant the execs are issued
  double max_latency_ = 0;     ///< slowest completed call
  bool any_blocked_ = false;   ///< at least one call missed the deadline
  RunStats stats_;
  std::unordered_map<const Physical*, std::future<SourceCall>> prefetched_;
};

}  // namespace disco::physical
