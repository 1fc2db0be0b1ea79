// Source-health tracking: per-repository circuit breakers (src/session/).
//
// The paper's §4 semantics pays the full "designated time" to discover
// that a down source is still down — on *every* query. A production
// mediator serving heavy traffic cannot afford that: the health
// knowledge belongs inside the system (cf. the mask-mediator-wrapper
// argument for a dedicated mediator-side resilience component). This
// module keeps one circuit breaker per repository:
//
//     Closed ──(failure_threshold consecutive failures)──> Open
//     Open   ──(open_cooldown_s elapsed, one trial call)──> HalfOpen
//     HalfOpen ──(trial succeeds)──> Closed
//     HalfOpen ──(trial fails)────> Open (cooldown restarts)
//
// While a circuit is Open, admit() refuses calls, so the runtime emits
// the residual query immediately — a partial answer with *zero* wait
// instead of a timeout. Alongside the state machine the tracker keeps
// EWMA availability and latency estimates per repository; the optimizer
// consults them (Optimizer::set_health) to penalize plans that lean on
// unhealthy sources.
//
// Time base: the tracker takes a clock function returning seconds. The
// mediator wires the VirtualClock in virtual-time mode and scaled wall
// time in wall-clock mode, so cooldowns are always in simulated seconds
// and the virtual-time tests stay deterministic.
//
// Thread safety: every method is safe from concurrent executor, probe,
// and client threads; state sits under one mutex (calls are coarse —
// milliseconds of simulated network wait each). The transition listener
// is invoked *outside* the lock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exec/dispatcher.hpp"

namespace disco::session {

enum class CircuitState { Closed, Open, HalfOpen };

const char* to_string(CircuitState state);

struct HealthOptions {
  /// Master switch: when false the mediator still *tracks* health but
  /// never short-circuits a call (passive monitoring). Off by default so
  /// the paper's §4 semantics is unchanged unless asked for.
  bool enabled = false;
  /// Consecutive failures that trip a Closed circuit to Open.
  uint32_t failure_threshold = 3;
  /// Open -> HalfOpen after this many (simulated) seconds.
  double open_cooldown_s = 1.0;
  /// EWMA weight of the newest availability/latency observation.
  double ewma_alpha = 0.3;
  /// Background prober period, in simulated seconds (wall-clock mode
  /// scales by ExecOptions::latency_scale).
  double probe_interval_s = 0.25;
  /// Deadline for one background probe call, in simulated seconds.
  double probe_deadline_s = 5.0;
};

/// Snapshot of one repository's health.
struct SourceHealth {
  CircuitState state = CircuitState::Closed;
  double availability = 1.0;   ///< EWMA of the success indicator
  double latency_ewma_s = 0;   ///< EWMA latency of successful calls
  uint32_t consecutive_failures = 0;
  uint64_t successes = 0;
  uint64_t failures = 0;
  uint64_t short_circuits = 0;  ///< calls refused while Open
  uint64_t transitions = 0;     ///< state changes since first sighting
  double state_since_s = 0;     ///< clock time of the last transition
};

class SourceHealthTracker {
 public:
  using Clock = std::function<double()>;
  /// Invoked (outside the tracker lock) on every state transition.
  using TransitionListener = std::function<void(
      const std::string& repository, CircuitState from, CircuitState to)>;

  explicit SourceHealthTracker(HealthOptions options = {}, Clock clock = {});

  const HealthOptions& options() const { return options_; }

  /// Feeds one finished source-call outcome (success or final failure
  /// after retries). Drives the EWMAs and the state machine.
  void on_outcome(const std::string& repository, bool available,
                  double latency_s);

  /// Admission control for one source call. Closed: true. Open: false
  /// (records a short-circuit) unless the cooldown elapsed, in which
  /// case the circuit turns HalfOpen and this call is admitted as the
  /// trial. HalfOpen: false while the trial is in flight.
  bool admit(const std::string& repository);

  /// Like admit() but for the background prober: never records a
  /// short-circuit, returns true only when a trial probe should be
  /// issued now (Open past cooldown, or HalfOpen with no trial running).
  bool try_begin_probe(const std::string& repository);

  /// Repositories currently worth probing (Open or HalfOpen).
  std::vector<std::string> probe_candidates() const;

  /// Every repository that ever reported an outcome, sorted — the
  /// iteration base for per-source obs_snapshot gauges.
  std::vector<std::string> tracked_repositories() const;

  SourceHealth health(const std::string& repository) const;
  CircuitState state(const std::string& repository) const;
  /// Availability estimate in [0, 1]; 0 while the circuit is Open (the
  /// optimizer's health signal). 1 for never-seen repositories.
  double availability(const std::string& repository) const;

  /// Replaces every registered listener with `listener`.
  void set_listener(TransitionListener listener);
  /// Registers an additional transition listener; all registered
  /// listeners fire (outside the tracker lock) on every transition.
  void add_listener(TransitionListener listener);

  /// Monotonic counter bumped whenever any circuit transitions to
  /// Closed — the "a source came back" wake-up signal.
  uint64_t recovery_epoch() const {
    return recovery_epoch_.load(std::memory_order_acquire);
  }

  size_t tracked() const;
  uint64_t total_probes() const {
    return probes_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    CircuitState state = CircuitState::Closed;
    double availability = 1.0;
    double latency_ewma_s = 0;
    bool latency_seen = false;
    uint32_t consecutive_failures = 0;
    uint64_t successes = 0;
    uint64_t failures = 0;
    uint64_t short_circuits = 0;
    uint64_t transitions = 0;
    double state_since_s = 0;
    bool trial_in_flight = false;
  };

  double now() const { return clock_(); }
  Entry& entry(const std::string& repository);
  /// Must hold mutex_; returns the (from, to) pair to report, if any.
  void transition(Entry& e, CircuitState to);
  /// Fire the transition listener (and bump the recovery epoch) outside
  /// the tracker lock.
  void notify(const std::string& repository, CircuitState from,
              CircuitState to);

  HealthOptions options_;
  Clock clock_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::vector<TransitionListener> listeners_;
  std::mutex listener_mutex_;
  std::atomic<uint64_t> recovery_epoch_{0};
  std::atomic<uint64_t> probes_{0};
};

/// Background half-open prober (wall-clock mode). A scheduler thread
/// wakes every probe interval and, for each circuit the tracker wants
/// probed, issues one probe that lands asynchronously (the dispatcher's
/// timer thread waits it out) — so probe network waits hold no thread
/// and overlap with query traffic. The probe outcome feeds the tracker
/// (closing circuits whose source came back) and an optional result hook
/// (the mediator routes it into optimizer::CostHistory, keeping the §3.3
/// cost model warm while a source is dark).
class Prober {
 public:
  /// Receives one probe's outcome when it lands.
  using Done = std::function<void(const exec::DispatchOutcome&)>;
  /// Issues one probe call (e.g. ParallelDispatcher::probe) and returns
  /// at once; `done` runs exactly once, when the probe lands. Must be
  /// thread-safe.
  using ProbeFn =
      std::function<void(const std::string& repository, Done done)>;
  /// Invoked after every probe with its outcome (on the landing thread).
  using ResultFn = std::function<void(const std::string& repository,
                                      const exec::DispatchOutcome&)>;

  /// `interval_wall_s` is the scheduler period in wall seconds (the
  /// mediator scales probe_interval_s by latency_scale). Pointers are
  /// borrowed and must outlive the prober.
  Prober(SourceHealthTracker* tracker, double interval_wall_s, ProbeFn probe,
         ResultFn on_result = {});
  ~Prober();

  Prober(const Prober&) = delete;
  Prober& operator=(const Prober&) = delete;

  /// Stops the scheduler and waits until every issued probe has landed.
  void stop();

  uint64_t sweeps() const { return sweeps_.load(std::memory_order_relaxed); }

 private:
  void loop();

  SourceHealthTracker* tracker_;
  double interval_wall_s_;
  ProbeFn probe_;
  ResultFn on_result_;

  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  size_t in_flight_ = 0;  ///< probes issued and not yet landed
  std::condition_variable landed_;
  std::atomic<uint64_t> sweeps_{0};
  std::thread scheduler_;
};

}  // namespace disco::session
