// Process-wide named counters & histograms (src/obs/).
//
// One Registry unifies every subsystem's statistics behind a single
// consistent snapshot: exec::Metrics folds its totals in, the session
// health tracker contributes per-source availability, and the mediator
// records per-stage latency histograms. Instruments are get-or-create by
// name and live for the registry's lifetime, so callers may cache the
// returned reference and update it lock-free (instruments are atomics;
// the registry lock is only taken on first lookup and on snapshot).
//
// Naming convention: dotted lowercase paths, subsystem first —
// "mediator.queries", "exec.rows", "session.resubmissions",
// "stage.optimize.seconds" (histogram).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

namespace disco::obs {

/// Monotone (between resets) additive counter. Lock-free.
class Counter {
 public:
  void add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void set(uint64_t value) { value_.store(value, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Lock-free log-scale histogram for non-negative values (latencies in
/// seconds, row counts). Values are bucketed by the base-2 exponent of
/// the value expressed in microunits (1e-6), covering ~1e-6 .. ~4e6 with
/// one bucket per octave.
class Histogram {
 public:
  static constexpr size_t kBuckets = 44;

  void observe(double value);

  struct Snapshot {
    uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    std::vector<uint64_t> buckets;  ///< kBuckets entries

    double mean() const { return count == 0 ? 0 : sum / count; }
    /// Approximate quantile (bucket upper bound), q in [0, 1].
    double quantile(double q) const;
  };

  Snapshot snapshot() const;
  void reset();

  /// Upper bound (in value units) of bucket `index`.
  static double bucket_bound(size_t index);

 private:
  std::atomic<uint64_t> sum_micro_{0};  ///< sum in microunits
  std::atomic<uint64_t> min_micro_{UINT64_MAX};
  std::atomic<uint64_t> max_micro_{0};
  std::atomic<uint64_t> buckets_[kBuckets] = {};
};

/// A consistent snapshot of every instrument in a registry.
struct RegistrySnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, Histogram::Snapshot> histograms;

  uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  bool has(const std::string& name) const;
  std::string to_string() const;
  std::string to_json() const;
};

class Registry {
 public:
  /// Get-or-create. The returned reference is stable for the registry's
  /// lifetime; cache it on hot paths.
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  RegistrySnapshot snapshot() const;
  /// Zeroes every instrument (instruments stay registered).
  void reset();

  /// The process-wide default registry.
  static Registry& global();

 private:
  mutable std::shared_mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace disco::obs
