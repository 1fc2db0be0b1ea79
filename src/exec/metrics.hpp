// Executor-wide counters, updated lock-free from dispatcher threads.
//
// §3.3 records per-call cost observations into CostHistory for the
// optimizer; this block is the *operational* counterpart — aggregate
// dispatch outcomes for monitoring a mediator under concurrent load
// (bench_parallel, examples/concurrent_federation).
//
// Consistency: each on_* event updates several fields that belong
// together (a success bumps succeeded, rows and latency as one fact).
// Writers hold the mutex shared — they stay concurrent with each other,
// the per-field atomics keep them race-free — while snapshot()/reset()
// take it exclusive. A snapshot therefore sits between events, never in
// the middle of one: to_string()/to_json() cannot report a success whose
// rows are missing, or totals where succeeded + failed > dispatched.
#pragma once

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <string>

namespace disco::exec {

/// Plain-value copy of the counters at one instant.
struct MetricsSnapshot {
  uint64_t dispatched = 0;   ///< source calls entering the dispatcher
  uint64_t succeeded = 0;    ///< calls that returned data in time
  uint64_t failed = 0;       ///< calls given up on (blips or deadline)
  uint64_t timed_out = 0;    ///< subset of failed: per-call deadline hit
  uint64_t retries = 0;      ///< re-attempts after an availability blip
  uint64_t rows = 0;         ///< rows fetched by successful calls
  uint64_t coalesced = 0;    ///< calls answered by joining another call's
                             ///< in-flight fetch (src/cache/ single-flight)
  // Session subsystem (src/session/) counters:
  uint64_t short_circuits = 0;  ///< calls refused by an open circuit
  uint64_t probes = 0;          ///< background half-open probe calls
  // Scheduler (src/sched/) counters:
  uint64_t queued = 0;       ///< admissions that waited for a token
  uint64_t shed = 0;         ///< calls shed by the scheduler (→ residuals)
  double queue_wait_s = 0;   ///< summed simulated seconds spent queued
  double sim_latency_s = 0;  ///< summed simulated latency of successes
  double wall_s = 0;         ///< summed wall time from dispatch to landing

  std::string to_string() const {
    return "dispatched=" + std::to_string(dispatched) +
           " succeeded=" + std::to_string(succeeded) +
           " failed=" + std::to_string(failed) +
           " timed_out=" + std::to_string(timed_out) +
           " retries=" + std::to_string(retries) +
           " rows=" + std::to_string(rows) +
           " coalesced=" + std::to_string(coalesced) +
           " short_circuits=" + std::to_string(short_circuits) +
           " probes=" + std::to_string(probes) +
           " queued=" + std::to_string(queued) +
           " shed=" + std::to_string(shed) +
           " queue_wait_s=" + std::to_string(queue_wait_s) +
           " sim_latency_s=" + std::to_string(sim_latency_s) +
           " wall_s=" + std::to_string(wall_s);
  }

  std::string to_json() const {
    return "{\"dispatched\":" + std::to_string(dispatched) +
           ",\"succeeded\":" + std::to_string(succeeded) +
           ",\"failed\":" + std::to_string(failed) +
           ",\"timed_out\":" + std::to_string(timed_out) +
           ",\"retries\":" + std::to_string(retries) +
           ",\"rows\":" + std::to_string(rows) +
           ",\"coalesced\":" + std::to_string(coalesced) +
           ",\"short_circuits\":" + std::to_string(short_circuits) +
           ",\"probes\":" + std::to_string(probes) +
           ",\"queued\":" + std::to_string(queued) +
           ",\"shed\":" + std::to_string(shed) +
           ",\"queue_wait_s\":" + std::to_string(queue_wait_s) +
           ",\"sim_latency_s\":" + std::to_string(sim_latency_s) +
           ",\"wall_s\":" + std::to_string(wall_s) + "}";
  }
};

class Metrics {
 public:
  void on_dispatch() {
    std::shared_lock lock(mutex_);
    dispatched_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_retry() {
    std::shared_lock lock(mutex_);
    retries_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_success(size_t rows, double sim_latency_s) {
    std::shared_lock lock(mutex_);
    succeeded_.fetch_add(1, std::memory_order_relaxed);
    rows_.fetch_add(rows, std::memory_order_relaxed);
    add_micros(sim_latency_us_, sim_latency_s);
  }
  void on_failure(bool timed_out) {
    std::shared_lock lock(mutex_);
    failed_.fetch_add(1, std::memory_order_relaxed);
    if (timed_out) timed_out_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_coalesced() {
    std::shared_lock lock(mutex_);
    coalesced_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_short_circuit() {
    std::shared_lock lock(mutex_);
    short_circuits_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_probe() {
    std::shared_lock lock(mutex_);
    probes_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_wall(double wall_s) {
    std::shared_lock lock(mutex_);
    add_micros(wall_us_, wall_s);
  }
  /// Scheduler (src/sched/): one admission waited `wait_s` simulated
  /// seconds for a token.
  void on_queued(double wait_s) {
    std::shared_lock lock(mutex_);
    queued_.fetch_add(1, std::memory_order_relaxed);
    add_micros(queue_wait_us_, wait_s);
  }
  /// Scheduler: one call shed (converted to a §4 residual).
  void on_shed() {
    std::shared_lock lock(mutex_);
    shed_.fetch_add(1, std::memory_order_relaxed);
  }

  /// One consistent copy: taken between events, never inside one.
  MetricsSnapshot snapshot() const {
    std::unique_lock lock(mutex_);
    MetricsSnapshot s;
    s.dispatched = dispatched_.load(std::memory_order_relaxed);
    s.succeeded = succeeded_.load(std::memory_order_relaxed);
    s.failed = failed_.load(std::memory_order_relaxed);
    s.timed_out = timed_out_.load(std::memory_order_relaxed);
    s.retries = retries_.load(std::memory_order_relaxed);
    s.rows = rows_.load(std::memory_order_relaxed);
    s.coalesced = coalesced_.load(std::memory_order_relaxed);
    s.short_circuits = short_circuits_.load(std::memory_order_relaxed);
    s.probes = probes_.load(std::memory_order_relaxed);
    s.queued = queued_.load(std::memory_order_relaxed);
    s.shed = shed_.load(std::memory_order_relaxed);
    s.queue_wait_s =
        static_cast<double>(queue_wait_us_.load(std::memory_order_relaxed)) /
        1e6;
    s.sim_latency_s =
        static_cast<double>(sim_latency_us_.load(std::memory_order_relaxed)) /
        1e6;
    s.wall_s =
        static_cast<double>(wall_us_.load(std::memory_order_relaxed)) / 1e6;
    return s;
  }

  void reset() {
    std::unique_lock lock(mutex_);
    dispatched_ = 0;
    succeeded_ = 0;
    failed_ = 0;
    timed_out_ = 0;
    retries_ = 0;
    rows_ = 0;
    coalesced_ = 0;
    short_circuits_ = 0;
    probes_ = 0;
    queued_ = 0;
    shed_ = 0;
    queue_wait_us_ = 0;
    sim_latency_us_ = 0;
    wall_us_ = 0;
  }

 private:
  static void add_micros(std::atomic<uint64_t>& counter, double seconds) {
    counter.fetch_add(static_cast<uint64_t>(seconds * 1e6),
                      std::memory_order_relaxed);
  }

  mutable std::shared_mutex mutex_;
  std::atomic<uint64_t> dispatched_{0};
  std::atomic<uint64_t> succeeded_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> timed_out_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> coalesced_{0};
  std::atomic<uint64_t> short_circuits_{0};
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> queued_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> queue_wait_us_{0};
  std::atomic<uint64_t> sim_latency_us_{0};
  std::atomic<uint64_t> wall_us_{0};
};

}  // namespace disco::exec
