// Per-source admission control & fair query scheduling (src/sched/).
//
// DISCO's premise is scaling a mediator to *many* autonomous sources
// (§1), but the executor alone does not protect them: every concurrent
// query fans its exec calls straight out to the dispatcher, which waits
// them out on its timer thread without limit, so nothing bounds the
// number of in-flight calls a source sees — an overloaded, slow
// repository keeps receiving new calls and each of them waits out its
// whole latency (or the deadline) before the query hears back. This
// module is the protective layer between the physical runtime and the
// ParallelDispatcher (cf. the Mask-Mediator-Wrapper argument for a
// dedicated intermediary component):
//
//   * Token semaphore per endpoint: at most `limit` calls of the whole
//     mediator are in flight against one repository at any instant
//     (default from ExecOptions::workers, overridable per repository).
//   * Bounded wait queue per endpoint with *fair* dequeue: waiters are
//     grouped by query id and granted round-robin across queries, so an
//     8-source fan-out query cannot starve a 1-source query no matter
//     how many of its calls arrived first.
//   * Load shedding: when the queue is full, the queueing deadline
//     expires, or the endpoint's circuit opens (drain()), the call is
//     *shed* — the runtime converts it into a §4 residual (reusing the
//     partial-answer union machinery) instead of an error, and the
//     session layer's resubmission loop completes it later, exactly
//     like any other residual.
//
// Interaction with the result cache's single-flight tickets: admission
// happens in Runtime::perform after the cache lookup, i.e. only the
// fetching *leader* of a coalesced flight ever holds a token — a waiter
// joining an in-flight identical fetch blocks on the shared future, not
// on the semaphore, so coalescing never multiplies token demand.
//
// Token lifetime: admit() runs in Runtime::perform on a compute-pool
// worker and blocks that worker while the call is queued; the token is
// held until the call lands and is released by Runtime::land on the
// dispatcher's timer thread, which never needs a worker — so a queued
// worker is always woken by a landing, even with a pool of one.
//
// Thread safety: one mutex per endpoint (calls are coarse —
// milliseconds of simulated network wait each); the endpoint registry
// sits under a shared_mutex like net::Network's. Grants hand the freed
// token directly to the next waiter under the endpoint lock, so
// in_flight can never overshoot the limit. TSan-clean
// (tests/test_sched.cpp, label `concurrency`).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "exec/metrics.hpp"

namespace disco::sched {

struct SchedOptions {
  /// Master switch; off by default so the executor's fan-everything-out
  /// behaviour is unchanged unless asked for.
  bool enabled = false;
  /// Max concurrent in-flight calls per endpoint (at least 1). A call
  /// waiting for its reply holds no worker, so this is independent of
  /// ExecOptions::workers.
  size_t per_endpoint_limit = 4;
  /// Per-repository overrides of per_endpoint_limit (e.g. a fragile
  /// source that tolerates only 2 concurrent requests).
  std::unordered_map<std::string, size_t> limits;
  /// Bounded wait queue per endpoint; a call arriving at a full queue
  /// is shed immediately (no blocking).
  size_t queue_capacity = 32;
  /// Max *simulated* seconds a call may wait for a token before it is
  /// shed (min-combined with the call's remaining deadline; the wall
  /// wait scales by ExecOptions::latency_scale like everything else).
  double queue_deadline_s = std::numeric_limits<double>::infinity();
};

/// One endpoint's admission counters and gauges at one instant.
struct EndpointSchedStats {
  size_t limit = 0;
  size_t in_flight = 0;       ///< tokens held right now
  size_t queued = 0;          ///< waiters queued right now
  size_t max_in_flight = 0;   ///< high-water mark of in_flight
  size_t max_queued = 0;      ///< high-water mark of queued
  uint64_t admitted = 0;      ///< calls granted a token
  uint64_t queued_calls = 0;  ///< admissions that had to wait
  uint64_t shed = 0;          ///< calls turned into residuals
  uint64_t shed_queue_full = 0;  ///< subset: queue was at capacity
  uint64_t shed_deadline = 0;    ///< subset: queueing deadline expired
  uint64_t shed_drained = 0;     ///< subset: drained (circuit opened)
  double queue_wait_s = 0;    ///< summed simulated seconds spent queued

  EndpointSchedStats& operator+=(const EndpointSchedStats& other) {
    limit += other.limit;
    in_flight += other.in_flight;
    queued += other.queued;
    max_in_flight += other.max_in_flight;
    max_queued += other.max_queued;
    admitted += other.admitted;
    queued_calls += other.queued_calls;
    shed += other.shed;
    shed_queue_full += other.shed_queue_full;
    shed_deadline += other.shed_deadline;
    shed_drained += other.shed_drained;
    queue_wait_s += other.queue_wait_s;
    return *this;
  }
};

/// Aggregate across every endpoint (Mediator::sched_stats()).
using SchedStats = EndpointSchedStats;

class QueryScheduler {
 private:
  struct Ep;

 public:
  /// RAII token: released on destruction, so a throwing fetch can never
  /// leak an endpoint's capacity.
  class Permit {
   public:
    Permit() = default;
    ~Permit() { release(); }
    Permit(Permit&& other) noexcept
        : scheduler_(std::exchange(other.scheduler_, nullptr)),
          endpoint_(std::exchange(other.endpoint_, nullptr)) {}
    Permit& operator=(Permit&& other) noexcept {
      if (this != &other) {
        release();
        scheduler_ = std::exchange(other.scheduler_, nullptr);
        endpoint_ = std::exchange(other.endpoint_, nullptr);
      }
      return *this;
    }
    Permit(const Permit&) = delete;
    Permit& operator=(const Permit&) = delete;

    explicit operator bool() const { return scheduler_ != nullptr; }
    /// Returns the token now (idempotent); the freed token is handed to
    /// the fairest waiter.
    void release();

   private:
    friend class QueryScheduler;
    Permit(QueryScheduler* scheduler, Ep* endpoint)
        : scheduler_(scheduler), endpoint_(endpoint) {}

    QueryScheduler* scheduler_ = nullptr;
    Ep* endpoint_ = nullptr;
  };

  enum class ShedReason { None, QueueFull, Deadline, Drained };

  /// Outcome of one admission attempt.
  struct Admission {
    bool admitted = false;
    /// Held token when admitted; dropping it releases the slot.
    Permit permit;
    /// Simulated seconds spent waiting in the endpoint queue.
    double queued_s = 0;
    ShedReason shed_reason = ShedReason::None;
  };

  /// `latency_scale` converts simulated waits to wall waits, exactly as
  /// in ExecOptions. `metrics` (optional, borrowed) receives queue-wait
  /// and shed events.
  QueryScheduler(SchedOptions options, double latency_scale,
                 exec::Metrics* metrics = nullptr);

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  const SchedOptions& options() const { return options_; }

  /// Requests a token for one source call against `endpoint`, on behalf
  /// of query `query_id` (the fair-queue identity). Blocks — fairly —
  /// until a token frees, the bounded queue overflows, the queueing
  /// deadline (min of options().queue_deadline_s and `deadline_s`, in
  /// simulated seconds) expires, or drain() sheds the queue.
  /// Thread-safe; called from pool threads.
  Admission admit(const std::string& endpoint, uint64_t query_id,
                  double deadline_s);

  /// Sheds every queued waiter of `endpoint` immediately (the health
  /// tracker calls this when the endpoint's circuit opens: waiting for
  /// a source known to be dark only delays the partial answer and keeps
  /// the waiter's compute-pool worker blocked here). Tokens already
  /// granted are unaffected — their calls are already in flight.
  /// Thread-safe.
  void drain(const std::string& endpoint);

  /// Changes one endpoint's concurrency limit at run time; raising it
  /// grants queued waiters immediately. Thread-safe.
  void set_limit(const std::string& endpoint, size_t limit);
  size_t limit(const std::string& endpoint) const;

  EndpointSchedStats endpoint_stats(const std::string& endpoint) const;
  /// Sum over every endpoint seen so far.
  SchedStats totals() const;

 private:
  struct Waiter {
    enum class State { Waiting, Granted, Shed };
    explicit Waiter(uint64_t query_id) : query_id(query_id) {}
    uint64_t query_id;
    State state = State::Waiting;
    std::condition_variable cv;
  };

  struct Ep {
    explicit Ep(size_t limit) : limit(limit) {}
    mutable std::mutex mutex;
    size_t limit;
    size_t in_flight = 0;
    size_t queued = 0;
    /// Round-robin ring of query ids that currently have waiters; each
    /// active query appears exactly once.
    std::deque<uint64_t> rr;
    /// FIFO of waiters per query id.
    std::unordered_map<uint64_t, std::deque<std::shared_ptr<Waiter>>>
        by_query;
    // Counters (all guarded by mutex).
    size_t max_in_flight = 0;
    size_t max_queued = 0;
    uint64_t admitted = 0;
    uint64_t queued_calls = 0;
    uint64_t shed = 0;
    uint64_t shed_queue_full = 0;
    uint64_t shed_deadline = 0;
    uint64_t shed_drained = 0;
    double queue_wait_s = 0;
  };

  Ep& entry(const std::string& endpoint);
  const Ep* find(const std::string& endpoint) const;
  void release(Ep& ep);
  /// Must hold ep.mutex: hands free tokens to waiters, round-robin
  /// across query ids.
  void grant_next_locked(Ep& ep);
  /// Must hold ep.mutex: unlinks `waiter` from its query's FIFO (after
  /// a timeout won the race against a grant).
  void unlink_locked(Ep& ep, const std::shared_ptr<Waiter>& waiter);

  SchedOptions options_;
  double latency_scale_;
  exec::Metrics* metrics_;

  mutable std::shared_mutex registry_mutex_;
  std::unordered_map<std::string, std::unique_ptr<Ep>> endpoints_;
};

}  // namespace disco::sched
