// Measurement helpers shared by the workloads and the self-test: the tail
// percentile, the order-insensitive answer digest and process gauges.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "value/value.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile of `samples` (p in (0, 1)). Sorts in place.
inline double percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

/// Samples strictly above the nearest-rank p-th percentile position. A
/// tail figure is only reported when at least ten samples lie beyond it.
inline size_t samples_beyond(size_t n, double p) {
  if (n == 0) return 0;
  const double rank = std::ceil(p * static_cast<double>(n));
  const size_t kept = rank < 1 ? 1 : std::min(n, static_cast<size_t>(rank));
  return n - kept;
}

inline uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline uint64_t hash_text(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return mix64(h);
}

/// Structural hash of one value. Bags and sets hash their items as a
/// multiset (sum of item hashes, so order is ignored and duplicates
/// count); lists and structs hash in order. Numbers hash by their value
/// rounded to 12 significant digits, so an Int and an equal Double agree
/// and float sums taken in another order still match.
inline uint64_t value_hash(const disco::Value& v) {
  using disco::ValueKind;
  switch (v.kind()) {
    case ValueKind::Null:
      return mix64(1);
    case ValueKind::Bool:
      return mix64(v.as_bool() ? 3 : 2);
    case ValueKind::Int:
    case ValueKind::Double: {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.12g", v.as_double());
      return hash_text(std::string("n") + buf);
    }
    case ValueKind::String:
      return hash_text("s" + v.as_string());
    case ValueKind::Bag:
    case ValueKind::Set: {
      uint64_t sum = 0;
      for (const disco::Value& item : v.items()) sum += value_hash(item);
      return mix64(sum ^ (v.items().size() * 0x51ull));
    }
    case ValueKind::List: {
      uint64_t h = 0x4c;
      for (const disco::Value& item : v.items()) h = mix64(h ^ value_hash(item));
      return h;
    }
    case ValueKind::Struct: {
      uint64_t h = 0x53;
      for (const auto& [name, field] : v.fields()) {
        h = mix64(h ^ hash_text(name));
        h = mix64(h ^ value_hash(field));
      }
      return h;
    }
  }
  return 0;
}

/// Order-insensitive digest of an answer's data part: row count plus two
/// independent multiset sums of the row hashes.
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  uint64_t sum2 = 0;

  bool operator==(const Digest&) const = default;
};

inline Digest digest(const disco::Value& bag) {
  Digest d;
  if (!bag.is_collection()) {
    d.rows = 1;
    d.sum = value_hash(bag);
    d.sum2 = mix64(d.sum ^ 0x2545f4914f6cdd1dull);
    return d;
  }
  for (const disco::Value& row : bag.items()) {
    const uint64_t h = value_hash(row);
    ++d.rows;
    d.sum += h;
    d.sum2 += mix64(h ^ 0x2545f4914f6cdd1dull);
  }
  return d;
}

/// Spreads a single-threaded measurement over every CPU the process may
/// use. CPUs of a shared host run at different speeds that drift with
/// the neighbours' load, so a run that stays on whichever CPU it started
/// on measures that CPU. Rotating the calling thread over all of them in
/// short slices makes every run sample each CPU alike.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Moves the calling thread to the next CPU once its slice is used up.
  void tick();
  /// Pins the calling thread to the i-th allowed CPU (modulo their count).
  void pin(size_t i);
  /// Gives every thread of the process all allowed CPUs again.
  void release_all();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
  Clock::time_point slice_end_;
};

/// Sets the process's peak resident set size back to its current one
/// (Linux 4.0 and later); false if the kernel refused.
bool reset_peak_rss();
/// Peak resident set size of this process since its start or the last
/// reset_peak_rss(), in MiB (VmHWM).
double peak_rss_mb();
/// CPU time of this process over all threads, in seconds.
double process_cpu_s();

}  // namespace perfbench
