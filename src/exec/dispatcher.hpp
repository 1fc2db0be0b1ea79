// The parallel source dispatcher (wall-clock counterpart of §4).
//
// "These calls proceed in parallel. Calls to available data sources
//  succeed. Calls to unavailable data sources block." (§4)
//
// In virtual-time mode the physical runtime *accounts* for that
// parallelism; here it is real. A ParallelDispatcher fans the exec /
// bind-join calls of a plan out across a ThreadPool. Each call:
//
//   * consults the simulated network for availability and latency,
//   * actually waits out the (scaled) latency in wall time,
//   * on an availability blip (Availability::Random / Periodic outage)
//     retries with exponential backoff plus jitter, bounded by
//     RetryPolicy::max_attempts and the per-call deadline,
//   * reports a DispatchOutcome (latency, attempts) that the runtime
//     records in its SourceCall — from which it derives data-or-residual
//     and feeds the health tracker and the CostHistory,
//   * bumps the shared exec::Metrics counter block.
//
// probe() issues a zero-payload health check under the same
// retry/deadline machinery; the session prober uses it for half-open
// probes and reports the outcome to the tracker itself.
//
// The dispatcher holds no lock across wrapper or network calls and is
// safe to share between every Runtime of one mediator: all state is a
// ThreadPool, a thread-safe Network, atomics, and immutable options.
#pragma once

#include <cstdint>
#include <limits>
#include <mutex>

#include "exec/metrics.hpp"
#include "exec/thread_pool.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"

namespace disco::exec {

/// Bounded retry with exponential backoff + jitter, for sources whose
/// unavailability is a blip (Availability::Random, Periodic outages)
/// rather than a hard down.
struct RetryPolicy {
  uint32_t max_attempts = 3;        ///< total attempts, including the first
  double initial_backoff_s = 0.002; ///< wait before the second attempt
  double backoff_multiplier = 2.0;
  double max_backoff_s = 0.050;
  double jitter = 0.2;              ///< +/- fraction applied to each backoff;
                                    ///< must lie in [0, 1] (validated by the
                                    ///< dispatcher constructor)
};

struct ExecOptions {
  /// 0 = sequential virtual-time path (the paper's deterministic
  /// simulation; no threads, no retries, no wall-clock waits).
  /// >= 1 = wall-clock mode: source calls run on a pool of this many
  /// workers and simulated latency is actually waited out.
  size_t workers = 0;
  RetryPolicy retry;
  /// Per-call wall-clock deadline; combined (min) with the query's
  /// QueryOptions::deadline_s.
  double call_deadline_s = std::numeric_limits<double>::infinity();
  /// Wall seconds waited per simulated second. 1.0 replays simulated
  /// latencies in real time; smaller values compress heavy simulated
  /// worlds so wall-clock tests and benches stay fast.
  double latency_scale = 1.0;
};

/// Outcome of one dispatched source call (possibly several attempts).
struct DispatchOutcome {
  bool available = false;
  bool timed_out = false;  ///< gave up because the deadline passed
  double latency_s = 0;    ///< simulated latency of the answering attempt
  uint32_t attempts = 0;   ///< attempted rounds (1 = no retries); >= 1 for
                           ///< every dispatched call, even when the deadline
                           ///< expires before the first network call
  double wall_s = 0;       ///< wall time spent, including backoff waits
};

class ParallelDispatcher {
 public:
  /// All pointers are borrowed and must outlive the dispatcher.
  ParallelDispatcher(ThreadPool* pool, net::Network* network,
                     ExecOptions options, Metrics* metrics);

  size_t workers() const { return pool_->size(); }
  const ExecOptions& options() const { return options_; }

  /// Runs `fn` on the pool; the returned future rethrows its exceptions.
  template <typename F>
  auto async(F&& fn) {
    return pool_->submit(std::forward<F>(fn));
  }

  /// Issues one source call with the retry/deadline policy, waiting out
  /// (scaled) simulated latency and backoff in wall time. `issue_at` is
  /// the virtual instant of the first attempt; retries advance it by the
  /// elapsed wall time so Periodic sources can come back up mid-call.
  /// `deadline_s` is the query deadline (min-combined with
  /// ExecOptions::call_deadline_s). `obs` (optional) receives an instant
  /// "retry" event per re-attempt, under the caller's exec span.
  /// Thread-safe.
  DispatchOutcome call(const std::string& endpoint, size_t result_rows,
                       double issue_at, double deadline_s,
                       obs::ObsContext obs = {});

  /// Issues one zero-payload health probe under the same retry/deadline
  /// machinery (net::Network::probe). Counted as a probe, not a
  /// dispatch. Thread-safe.
  DispatchOutcome probe(const std::string& endpoint, double issue_at,
                        double deadline_s);

  Metrics& metrics() { return *metrics_; }

 private:
  /// Shared attempt loop; `probe` selects probe pricing and counters.
  DispatchOutcome dispatch(const std::string& endpoint, size_t result_rows,
                           double issue_at, double deadline_s, bool probe,
                           obs::ObsContext obs);

  ThreadPool* pool_;
  net::Network* network_;
  ExecOptions options_;
  Metrics* metrics_;
  std::atomic<uint64_t> jitter_seed_{0x9e3779b97f4a7c15ULL};
};

}  // namespace disco::exec
