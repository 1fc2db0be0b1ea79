#include "optimizer/cost.hpp"

#include <algorithm>
#include <mutex>
#include <vector>

#include "common/error.hpp"

namespace disco::optimizer {

void CostHistory::update(Entry& entry, double time_s, double rows) const {
  if (entry.count == 0) {
    entry.time_ewma = time_s;
    entry.rows_ewma = rows;
  } else {
    entry.time_ewma = alpha_ * time_s + (1 - alpha_) * entry.time_ewma;
    entry.rows_ewma = alpha_ * rows + (1 - alpha_) * entry.rows_ewma;
  }
  ++entry.count;
}

void CostHistory::record(const std::string& repository,
                         const algebra::CostKey& key, double time_s,
                         size_t rows) {
  Shard& shard = shard_for(repository);
  const double row_count = static_cast<double>(rows);
  std::unique_lock lock(shard.mutex);
  Observed& observed = shard.repositories[repository];
  Entry& exact = observed.exact[key.text];
  update(exact, time_s, row_count);
  exact.recorded = ++observed.records;
  update(observed.close[key.signature], time_s, row_count);
  update(observed.average, time_s, row_count);
  if (observed.exact.size() > kMaxExactKeys) evict_oldest(observed);
}

void CostHistory::evict_oldest(Observed& observed) {
  std::vector<uint64_t> stamps;
  stamps.reserve(observed.exact.size());
  for (const auto& [text, entry] : observed.exact) {
    stamps.push_back(entry.recorded);
  }
  // Stamps are distinct, so exactly kEvictBatch entries are at or below
  // the kEvictBatch-th smallest.
  std::nth_element(stamps.begin(), stamps.begin() + (kEvictBatch - 1),
                   stamps.end());
  const uint64_t newest_dropped = stamps[kEvictBatch - 1];
  std::erase_if(observed.exact, [newest_dropped](const auto& item) {
    return item.second.recorded <= newest_dropped;
  });
}

void CostHistory::record(const std::string& repository,
                         const algebra::LogicalPtr& remote, double time_s,
                         size_t rows) {
  internal_check(remote != nullptr, "cannot record a null expression");
  record(repository, *algebra::cost_key(remote), time_s, rows);
}

CostHistory::Estimate CostHistory::estimate(
    const std::string& repository, const algebra::CostKey& key) const {
  return estimate(repository, key.text, key.signature);
}

CostHistory::Estimate CostHistory::estimate(
    const std::string& repository, const std::string& text,
    const std::string& signature) const {
  Shard& shard = shard_for(repository);
  std::shared_lock lock(shard.mutex);
  auto repo_it = shard.repositories.find(repository);
  if (repo_it == shard.repositories.end()) {
    return Estimate{};  // the paper's 0/1 default
  }
  const Observed& observed = repo_it->second;
  auto exact_it = observed.exact.find(text);
  if (exact_it != observed.exact.end()) {
    return Estimate{exact_it->second.time_ewma, exact_it->second.rows_ewma,
                    Basis::Exact, exact_it->second.count};
  }
  auto close_it = observed.close.find(signature);
  if (close_it != observed.close.end()) {
    return Estimate{close_it->second.time_ewma, close_it->second.rows_ewma,
                    Basis::Close, close_it->second.count};
  }
  return Estimate{observed.average.time_ewma, observed.average.rows_ewma,
                  Basis::Repository, observed.average.count};
}

CostHistory::Estimate CostHistory::estimate(
    const std::string& repository, const algebra::LogicalPtr& remote) const {
  internal_check(remote != nullptr, "cannot estimate a null expression");
  return estimate(repository, *algebra::cost_key(remote));
}

size_t CostHistory::exact_entries() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    for (const auto& [repository, observed] : shard.repositories) {
      total += observed.exact.size();
    }
  }
  return total;
}

size_t CostHistory::repository_entries() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    total += shard.repositories.size();
  }
  return total;
}

size_t CostHistory::close_entries() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    for (const auto& [repository, observed] : shard.repositories) {
      total += observed.close.size();
    }
  }
  return total;
}

void CostHistory::clear() {
  for (Shard& shard : shards_) {
    std::unique_lock lock(shard.mutex);
    shard.repositories.clear();
  }
}

}  // namespace disco::optimizer
