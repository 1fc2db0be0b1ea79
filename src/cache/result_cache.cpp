#include "cache/result_cache.hpp"

#include <utility>
#include <vector>

#include "obs/trace.hpp"  // json_escape

namespace disco::cache {

/// The single-flight rendezvous. The leader resolves the promise exactly
/// once — with the shared result on publish, with nullptr on abandon —
/// always *after* releasing the cache lock, so joiners never wake into
/// contention.
struct ResultCache::Ticket::Flight {
  std::promise<std::shared_ptr<const CachedResult>> promise;
  std::shared_future<std::shared_ptr<const CachedResult>> future;
  std::string key;
  std::string repository;
  /// Generations at flight creation; publish() stores the entry only
  /// when both still match (no invalidation happened mid-fetch).
  uint64_t generation = 0;
  uint64_t repo_generation = 0;

  Flight() : future(promise.get_future().share()) {}
};

ResultCache::Ticket::~Ticket() {
  if (cache_ != nullptr && flight_ != nullptr) cache_->abandon(flight_);
}

ResultCache::Ticket::Ticket(Ticket&& other) noexcept
    : cache_(std::exchange(other.cache_, nullptr)),
      flight_(std::move(other.flight_)) {
  other.flight_.reset();
}

ResultCache::Ticket& ResultCache::Ticket::operator=(Ticket&& other) noexcept {
  if (this != &other) {
    if (cache_ != nullptr && flight_ != nullptr) cache_->abandon(flight_);
    cache_ = std::exchange(other.cache_, nullptr);
    flight_ = std::move(other.flight_);
    other.flight_.reset();
  }
  return *this;
}

ResultCache::ResultCache(CacheOptions options, Clock clock)
    : options_(options), clock_(std::move(clock)) {}

std::string ResultCache::make_key(const std::string& repository,
                                  const std::string& remote_text) {
  // '\n' cannot appear in a repository name or the algebra text, so the
  // pair is unambiguous.
  return repository + '\n' + remote_text;
}

uint64_t ResultCache::repo_generation_locked(
    const std::string& repository) const {
  auto it = repo_generations_.find(repository);
  return it == repo_generations_.end() ? 0 : it->second;
}

void ResultCache::erase_locked(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  bytes_ -= it->second->bytes;
  entries_.erase(it);
}

void ResultCache::evict_over_budget_locked() {
  while (bytes_ > options_.max_bytes && !entries_.empty()) {
    auto victim = entries_.end();
    uint64_t oldest = 0;
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      const uint64_t used =
          it->second->last_used.load(std::memory_order_relaxed);
      if (victim == entries_.end() || used < oldest) {
        victim = it;
        oldest = used;
      }
    }
    bytes_ -= victim->second->bytes;
    entries_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

ResultCache::Lookup ResultCache::get_or_begin(
    const std::string& repository, const algebra::LogicalPtr& remote) {
  return get_or_begin(repository, algebra::to_algebra_string(remote));
}

ResultCache::Lookup ResultCache::get_or_begin(const std::string& repository,
                                              const std::string& remote_text) {
  const std::string key = make_key(repository, remote_text);
  for (;;) {
    {
      // Fast path: a fresh entry under the shared lock. Recency is an
      // atomic tick so hits never need the exclusive side.
      std::shared_lock lock(mutex_);
      auto it = entries_.find(key);
      if (it != entries_.end() && fresh(*it->second)) {
        it->second->last_used.store(
            tick_.fetch_add(1, std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
        hits_.fetch_add(1, std::memory_order_relaxed);
        Lookup lookup;
        lookup.kind = LookupKind::Hit;
        lookup.result = it->second->result;
        return lookup;
      }
    }
    std::shared_future<std::shared_ptr<const CachedResult>> wait_on;
    {
      std::unique_lock lock(mutex_);
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        if (fresh(*it->second)) {  // raced with another leader's publish
          it->second->last_used.store(
              tick_.fetch_add(1, std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
          hits_.fetch_add(1, std::memory_order_relaxed);
          Lookup lookup;
          lookup.kind = LookupKind::Hit;
          lookup.result = it->second->result;
          return lookup;
        }
        // Expired: drop it now; the flight below refreshes it.
        bytes_ -= it->second->bytes;
        entries_.erase(it);
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
      auto flight_it = flights_.find(key);
      if (flight_it != flights_.end()) {
        wait_on = flight_it->second->future;
      } else {
        auto flight = std::make_shared<Ticket::Flight>();
        flight->key = key;
        flight->repository = repository;
        flight->generation = generation_;
        flight->repo_generation = repo_generation_locked(repository);
        flights_.emplace(key, flight);
        misses_.fetch_add(1, std::memory_order_relaxed);
        Lookup lookup;
        lookup.kind = LookupKind::Lead;
        lookup.ticket = Ticket(this, std::move(flight));
        return lookup;
      }
    }
    // Join: wait outside every lock. A null result means the leader's
    // fetch failed (never cached, never shared) — loop and re-race.
    std::shared_ptr<const CachedResult> result = wait_on.get();
    if (result != nullptr) {
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      Lookup lookup;
      lookup.kind = LookupKind::Coalesced;
      lookup.result = std::move(result);
      return lookup;
    }
  }
}

void ResultCache::publish(Ticket& ticket, CachedResult result) {
  if (ticket.flight_ == nullptr) return;
  std::shared_ptr<Ticket::Flight> flight = std::move(ticket.flight_);
  ticket.cache_ = nullptr;
  auto shared = std::make_shared<const CachedResult>(std::move(result));
  {
    std::unique_lock lock(mutex_);
    auto it = flights_.find(flight->key);
    if (it != flights_.end() && it->second == flight) flights_.erase(it);
    // Store only when no invalidation fenced this flight off: a result
    // computed before a catalog change or circuit transition must not
    // outlive it.
    if (flight->generation == generation_ &&
        flight->repo_generation ==
            repo_generation_locked(flight->repository)) {
      auto entry = std::make_unique<Entry>();
      entry->result = shared;
      entry->repository = flight->repository;
      entry->bytes = flight->key.size() + shared->data.deep_size() +
                     /*fixed bookkeeping overhead*/ 128;
      entry->expires_at_s = now() + options_.ttl_s;
      entry->last_used.store(
          tick_.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      erase_locked(flight->key);
      bytes_ += entry->bytes;
      entries_[flight->key] = std::move(entry);
      insertions_.fetch_add(1, std::memory_order_relaxed);
      evict_over_budget_locked();
    }
  }
  flight->promise.set_value(std::move(shared));  // wake joiners, lock-free
}

void ResultCache::abandon(const std::shared_ptr<Ticket::Flight>& flight) {
  {
    std::unique_lock lock(mutex_);
    auto it = flights_.find(flight->key);
    if (it != flights_.end() && it->second == flight) flights_.erase(it);
  }
  flight->promise.set_value(nullptr);  // joiners re-race for leadership
}

bool ResultCache::contains(const std::string& repository,
                           const algebra::LogicalPtr& remote) const {
  return contains(repository, algebra::to_algebra_string(remote));
}

bool ResultCache::contains(const std::string& repository,
                           const std::string& remote_text) const {
  const std::string key = make_key(repository, remote_text);
  std::shared_lock lock(mutex_);
  auto it = entries_.find(key);
  return it != entries_.end() && fresh(*it->second);
}

void ResultCache::invalidate_all() {
  std::unique_lock lock(mutex_);
  ++generation_;
  entries_.clear();
  bytes_ = 0;
  invalidations_.fetch_add(1, std::memory_order_relaxed);
}

void ResultCache::invalidate_repository(const std::string& repository) {
  std::unique_lock lock(mutex_);
  ++repo_generations_[repository];
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second->repository == repository) {
      bytes_ -= it->second->bytes;
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  invalidations_.fetch_add(1, std::memory_order_relaxed);
}

void ResultCache::on_catalog_version(uint64_t version) {
  {
    std::shared_lock lock(mutex_);
    if (catalog_version_seen_ && last_catalog_version_ == version) return;
  }
  std::unique_lock lock(mutex_);
  if (catalog_version_seen_ && last_catalog_version_ == version) return;
  const bool first = !catalog_version_seen_;
  catalog_version_seen_ = true;
  last_catalog_version_ = version;
  if (first) return;  // nothing cached before the first sighting
  ++generation_;
  entries_.clear();
  bytes_ = 0;
  invalidations_.fetch_add(1, std::memory_order_relaxed);
}

CacheStats ResultCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  std::shared_lock lock(mutex_);
  s.entries = entries_.size();
  s.bytes = bytes_;
  return s;
}

std::string ResultCache::stats_json() const {
  const CacheStats s = stats();
  std::string out = "{\"enabled\":true";
  out += ",\"hits\":" + std::to_string(s.hits);
  out += ",\"coalesced\":" + std::to_string(s.coalesced);
  out += ",\"misses\":" + std::to_string(s.misses);
  out += ",\"insertions\":" + std::to_string(s.insertions);
  out += ",\"evictions\":" + std::to_string(s.evictions);
  out += ",\"invalidations\":" + std::to_string(s.invalidations);
  out += ",\"entry_count\":" + std::to_string(s.entries);
  out += ",\"bytes\":" + std::to_string(s.bytes);
  out += ",\"entries\":[";
  {
    std::shared_lock lock(mutex_);
    bool first = true;
    for (const auto& [key, entry] : entries_) {
      if (!first) out += ',';
      first = false;
      // make_key() joined repository and algebra text with '\n'.
      const size_t sep = key.find('\n');
      const std::string remote =
          sep == std::string::npos ? std::string() : key.substr(sep + 1);
      out += "{\"repository\":\"" + obs::json_escape(entry->repository);
      out += "\",\"remote\":\"" + obs::json_escape(remote);
      out += "\",\"bytes\":" + std::to_string(entry->bytes) + '}';
    }
  }
  out += "]}";
  return out;
}

}  // namespace disco::cache
