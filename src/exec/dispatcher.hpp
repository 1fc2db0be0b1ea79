// The parallel source dispatcher (wall-clock counterpart of §4).
//
// "These calls proceed in parallel. Calls to available data sources
//  succeed. Calls to unavailable data sources block." (§4)
//
// In virtual-time mode the physical runtime *accounts* for that
// parallelism; here it is real. The runtime runs each call's CPU part
// (breaker, cache lookup, wrapper submit, admission) on a ThreadPool
// worker and hands the call to the dispatcher, which waits nothing out
// on that worker. Each call:
//
//   * consults the simulated network for availability and latency at
//     the moment each attempt is made,
//   * on an availability blip (Availability::Random / Periodic outage)
//     retries with exponential backoff plus jitter, bounded by
//     RetryPolicy::max_attempts and the per-call deadline,
//   * lands when its (scaled) simulated latency has passed — or, when
//     the reply would arrive past the deadline, when the deadline has —
//     by running its Landing with a DispatchOutcome (latency, attempts),
//     from which the runtime derives data-or-residual and feeds the
//     health tracker and the CostHistory,
//   * bumps the shared exec::Metrics counter block.
//
// Backoffs and reply latencies are entries of one deadline-ordered timer
// thread owned by the dispatcher: a waiting call holds no thread, so a
// fan-out's calls overlap fully whatever the pool size, and every
// landing runs on the timer thread — never on a pool worker, which may
// be blocked in admission or on a coalesced cache fetch.
//
// probe() issues a zero-payload health check through the same attempt
// loop; the session prober uses it for half-open probes and reports the
// outcome to the tracker itself.
//
// The dispatcher holds no lock across network calls or landings and is
// safe to share between every Runtime of one mediator: all state is a
// ThreadPool, a thread-safe Network, the timer queue under its mutex,
// atomics, and immutable options.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

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
  /// >= 1 = wall-clock mode: the CPU part of source calls runs on a
  /// compute pool of this many workers, and simulated latency is
  /// actually waited out — by the dispatcher's timer thread, so the pool
  /// size does not bound how many calls wait at once.
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
  /// Simulated latency of the reply: the answering attempt's, or that of
  /// a reply that would have landed past the deadline (timed_out). 0 when
  /// no reply came: the source was down, or the deadline passed first.
  double latency_s = 0;
  uint32_t attempts = 0;   ///< attempted rounds (1 = no retries); >= 1 for
                           ///< every dispatched call, even when the deadline
                           ///< expires before the first network call
  double wall_s = 0;       ///< wall time spent, including backoff waits
};

class ParallelDispatcher {
 public:
  /// Receives a call's outcome on the timer thread when the call lands.
  /// It must neither block nor throw: every landing of the mediator runs
  /// on that one thread.
  using Landing = std::function<void(const DispatchOutcome&)>;

  /// All pointers are borrowed and must outlive the dispatcher.
  ParallelDispatcher(ThreadPool* pool, net::Network* network,
                     ExecOptions options, Metrics* metrics);
  /// Lands every call still pending (at its due time), then joins the
  /// timer thread.
  ~ParallelDispatcher();

  ParallelDispatcher(const ParallelDispatcher&) = delete;
  ParallelDispatcher& operator=(const ParallelDispatcher&) = delete;

  size_t workers() const { return pool_->size(); }
  const ExecOptions& options() const { return options_; }

  /// Runs `fn` on the compute pool; the returned future rethrows its
  /// exceptions.
  template <typename F>
  auto async(F&& fn) {
    return pool_->submit(std::forward<F>(fn));
  }

  /// Issues one source call with the retry/deadline policy and returns at
  /// once; `landing` receives the outcome once the (scaled) simulated
  /// latency and any backoff have passed in wall time. `issue_at` is the
  /// virtual instant of the call; each attempt consults the network at
  /// `issue_at` plus the simulated time elapsed so far, so Periodic
  /// sources can come back up mid-call. `deadline_s` is the query
  /// deadline (min-combined with ExecOptions::call_deadline_s). `obs`
  /// (optional) receives an instant "retry" event per re-attempt, under
  /// the caller's exec span. Thread-safe.
  void call(const std::string& endpoint, size_t result_rows,
            double issue_at, double deadline_s, obs::ObsContext obs,
            Landing landing);

  /// Issues one zero-payload health probe through the same attempt loop
  /// (net::Network::probe). Counted as a probe, not a dispatch.
  /// Thread-safe.
  void probe(const std::string& endpoint, double issue_at,
             double deadline_s, Landing landing);

  /// Calls waiting for their next attempt or their landing.
  size_t pending() const;

  Metrics& metrics() { return *metrics_; }

 private:
  using Clock = std::chrono::steady_clock;
  struct InFlight;

  void start(std::unique_ptr<InFlight> call);
  /// One round of the attempt loop, at the moment it is made.
  void attempt(std::unique_ptr<InFlight> call);
  /// Ends the attempt loop: the call lands at `due`.
  void finish(std::unique_ptr<InFlight> call, Clock::time_point due);
  void land(std::unique_ptr<InFlight> call);
  void schedule(Clock::time_point due, std::unique_ptr<InFlight> call);
  void timer_loop();
  /// Wall-clock duration of `simulated_s` simulated seconds.
  Clock::duration wall(double simulated_s) const;

  ThreadPool* pool_;
  net::Network* network_;
  ExecOptions options_;
  Metrics* metrics_;
  std::atomic<uint64_t> jitter_seed_{0x9e3779b97f4a7c15ULL};

  mutable std::mutex timer_mutex_;
  std::condition_variable timer_wake_;
  /// Due instant -> call; equal instants keep their insertion order.
  std::multimap<Clock::time_point, std::unique_ptr<InFlight>> timers_;
  bool stopping_ = false;
  std::thread timer_;
};

}  // namespace disco::exec
