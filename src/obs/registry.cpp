#include "obs/registry.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/trace.hpp"  // json_escape

namespace disco::obs {

namespace {

uint64_t to_micro(double value) {
  if (value <= 0) return 0;
  const double micro = value * 1e6;
  if (micro >= 9e18) return static_cast<uint64_t>(9e18);
  return static_cast<uint64_t>(micro + 0.5);
}

size_t bucket_for(uint64_t micro) {
  if (micro == 0) return 0;
  size_t bucket = 0;
  while (micro > 1 && bucket + 1 < Histogram::kBuckets) {
    micro >>= 1;
    ++bucket;
  }
  return bucket;
}

std::string format_double(double value) {
  // %g renders inf/nan as bare words, which is invalid JSON; snapshots
  // flow straight into the STATS wire frames, so clamp here.
  if (!std::isfinite(value)) return value > 0 ? "1e308" : "-1e308";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

void fetch_min(std::atomic<uint64_t>& slot, uint64_t value) {
  uint64_t seen = slot.load(std::memory_order_relaxed);
  while (value < seen &&
         !slot.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
}

void fetch_max(std::atomic<uint64_t>& slot, uint64_t value) {
  uint64_t seen = slot.load(std::memory_order_relaxed);
  while (value > seen &&
         !slot.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

// ---------------------------------------------------------------- Histogram --

void Histogram::observe(double value) {
  const uint64_t micro = to_micro(value);
  sum_micro_.fetch_add(micro, std::memory_order_relaxed);
  fetch_min(min_micro_, micro);
  fetch_max(max_micro_, micro);
  buckets_[bucket_for(micro)].fetch_add(1, std::memory_order_relaxed);
}

double Histogram::bucket_bound(size_t index) {
  return static_cast<double>(uint64_t{1} << (index + 1)) * 1e-6;
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.sum = static_cast<double>(sum_micro_.load(std::memory_order_relaxed)) *
             1e-6;
  const uint64_t lo = min_micro_.load(std::memory_order_relaxed);
  snap.min = lo == UINT64_MAX ? 0 : static_cast<double>(lo) * 1e-6;
  snap.max =
      static_cast<double>(max_micro_.load(std::memory_order_relaxed)) * 1e-6;
  snap.buckets.resize(kBuckets);
  // The count is the bucket sum, so a snapshot taken while writers run
  // is always self-consistent.
  for (size_t i = 0; i < kBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count += snap.buckets[i];
  }
  return snap;
}

void Histogram::reset() {
  sum_micro_.store(0, std::memory_order_relaxed);
  min_micro_.store(UINT64_MAX, std::memory_order_relaxed);
  max_micro_.store(0, std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

double Histogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const uint64_t rank =
      static_cast<uint64_t>(q * static_cast<double>(count - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) return bucket_bound(i);
  }
  return max;
}

// ----------------------------------------------------------------- Registry --

Counter& Registry::counter(const std::string& name) {
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = counters_.find(name);
    if (it != counters_.end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = histograms_.find(name);
    if (it != histograms_.end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

RegistrySnapshot Registry::snapshot() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  RegistrySnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms[name] = histogram->snapshot();
  }
  return snap;
}

void Registry::reset() {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) counter->reset();
  for (const auto& [name, histogram] : histograms_) histogram->reset();
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // never destroyed
  return *instance;
}

// --------------------------------------------------------- RegistrySnapshot --

bool RegistrySnapshot::has(const std::string& name) const {
  return counters.count(name) > 0 || histograms.count(name) > 0;
}

std::string RegistrySnapshot::to_string() const {
  std::ostringstream out;
  for (const auto& [name, value] : counters) {
    out << name << " = " << value << '\n';
  }
  for (const auto& [name, h] : histograms) {
    out << name << " = {count " << h.count << ", mean "
        << format_double(h.mean()) << ", p50 "
        << format_double(h.quantile(0.5)) << ", p99 "
        << format_double(h.quantile(0.99)) << ", max "
        << format_double(h.max) << "}\n";
  }
  return out.str();
}

std::string RegistrySnapshot::to_json() const {
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(name) << "\":" << value;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(name) << "\":{\"count\":" << h.count
        << ",\"sum\":" << format_double(h.sum)
        << ",\"mean\":" << format_double(h.mean())
        << ",\"min\":" << format_double(h.min)
        << ",\"max\":" << format_double(h.max)
        << ",\"p50\":" << format_double(h.quantile(0.5))
        << ",\"p90\":" << format_double(h.quantile(0.9))
        << ",\"p99\":" << format_double(h.quantile(0.99)) << '}';
  }
  out << "}}";
  return out.str();
}

}  // namespace disco::obs
