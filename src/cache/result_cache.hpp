// Submit-result cache with single-flight coalescing (src/cache/).
//
// DISCO's cost model (§3.3) shows that the exec round-trips to the data
// sources dominate query latency; a mediator serving heavy traffic keeps
// re-paying them even when the federation hasn't changed (cf. HERMES's
// caching of external-source calls and Garlic's wrapper architecture).
// This module sits between the physical runtime and the dispatcher and
// memoizes *submit results*:
//
//   key   = (repository, canonical serialized remote algebra)
//   value = the materialized reply rows (an immutable, shared Value)
//
// so a warm query costs zero source calls. Three mechanisms keep it
// honest:
//
//   * Eviction: LRU under a byte budget (Value::deep_size accounting)
//     plus a per-entry TTL in simulated seconds — the staleness contract
//     for autonomous sources the mediator cannot watch for updates.
//   * Invalidation: the mediator drops everything when the catalog
//     version moves (register_* / execute_odl — "the mediator must
//     monitor updates to extents", §3.3), drops one repository's entries
//     on every circuit-state transition (src/session/ health tracking:
//     a source that flapped may have restarted with different data), and
//     exposes Mediator::invalidate_cache() for explicit refresh.
//   * Single-flight: when N concurrent queries need the same
//     (repository, remote) submit, the first becomes the *leader* and
//     dispatches; the rest block on a shared future and reuse its reply
//     — an 8-way identical fan-out costs one network call. Failed
//     fetches are never cached and never shared: the leader abandons,
//     waiters re-race for leadership (§4 residual semantics stay
//     per-query).
//
// Concurrency: the table sits under a shared_mutex — hits take the
// shared side and bump an atomic recency tick (approximate LRU);
// insert/evict/invalidate take the exclusive side. Joiners wait on a
// shared_future outside any lock; the leader resolves it after
// releasing the lock. TSan-clean (tests/test_cache.cpp, label
// `concurrency`).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "algebra/logical.hpp"
#include "value/value.hpp"

namespace disco::cache {

struct CacheOptions {
  /// Master switch; off by default so the §4 fetch-every-time semantics
  /// is unchanged unless asked for.
  bool enabled = false;
  /// Byte budget for cached replies (Value::deep_size accounting plus a
  /// fixed per-entry overhead). LRU-evicted when exceeded.
  size_t max_bytes = 8ull << 20;
  /// Per-entry time-to-live in *simulated* seconds (the VirtualClock in
  /// virtual-time mode, scaled wall time in wall-clock mode). Infinity
  /// means entries live until evicted or invalidated.
  double ttl_s = std::numeric_limits<double>::infinity();
};

/// Plain-value snapshot of the cache counters at one instant.
struct CacheStats {
  uint64_t hits = 0;        ///< lookups served from a stored entry
  uint64_t coalesced = 0;   ///< lookups served by joining an in-flight leader
  uint64_t misses = 0;      ///< lookups that became the fetching leader
  uint64_t insertions = 0;  ///< successful publishes stored in the table
  uint64_t evictions = 0;   ///< entries dropped by LRU pressure or TTL
  uint64_t invalidations = 0;  ///< invalidation *events* (not entries)
  uint64_t entries = 0;     ///< current entry count
  uint64_t bytes = 0;       ///< current accounted bytes
};

/// One cached submit reply. Immutable once published; shared between the
/// table and every thread that was served from it (Value payloads are
/// shared-immutable, so cross-thread reads are safe).
struct CachedResult {
  Value data;                 ///< the wrapper's reply (a bag)
  double source_latency_s = 0;  ///< simulated latency of the call that
                                ///< produced it (for introspection)
};

class ResultCache {
 public:
  /// Seconds for TTL accounting; the mediator wires the same simulated-
  /// seconds clock it gives the health tracker. Empty = no expiry.
  using Clock = std::function<double()>;

  explicit ResultCache(CacheOptions options, Clock clock = {});

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  const CacheOptions& options() const { return options_; }

  /// The canonical cache key: repository plus the exact algebra text of
  /// the shipped expression (the same serialization the §3.3 cost
  /// history keys on, algebra::CostKey::text). Bind-join probes include
  /// their key disjunction in the text, so different build sides cache
  /// separately.
  static std::string make_key(const std::string& repository,
                              const std::string& remote_text);

  /// Move-only leader obligation: exactly one publish(), or abandonment
  /// on destruction (exception safety — a dead leader must not leave
  /// joiners blocked forever).
  class Ticket {
   public:
    Ticket() = default;
    ~Ticket();
    Ticket(Ticket&& other) noexcept;
    Ticket& operator=(Ticket&& other) noexcept;
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    explicit operator bool() const { return flight_ != nullptr; }

   private:
    friend class ResultCache;
    struct Flight;
    Ticket(ResultCache* cache, std::shared_ptr<Flight> flight)
        : cache_(cache), flight_(std::move(flight)) {}

    ResultCache* cache_ = nullptr;
    std::shared_ptr<Flight> flight_;
  };

  enum class LookupKind {
    Hit,        ///< served from a stored entry
    Coalesced,  ///< served by waiting on another thread's in-flight fetch
    Lead,       ///< caller must fetch, then publish() (or drop the Ticket)
  };

  struct Lookup {
    LookupKind kind = LookupKind::Lead;
    /// Set for Hit / Coalesced.
    std::shared_ptr<const CachedResult> result;
    /// Set for Lead; publish through it or let it abandon on destruction.
    Ticket ticket;
  };

  /// The single-flight entry point. Returns a stored result (Hit), waits
  /// for and returns another thread's in-flight result (Coalesced — the
  /// wait happens outside every lock), or appoints the caller leader
  /// (Lead). When a leader abandons, its waiters re-race: one becomes
  /// the new leader, so a flight is never orphaned.
  Lookup get_or_begin(const std::string& repository,
                      const std::string& remote_text);
  /// Same, rendering `remote` first.
  Lookup get_or_begin(const std::string& repository,
                      const algebra::LogicalPtr& remote);

  /// Leader success: stores the entry (unless the world moved since the
  /// flight began — catalog or repository invalidation), wakes every
  /// joiner with the shared result, and consumes the ticket.
  void publish(Ticket& ticket, CachedResult result);

  /// True when a fresh entry for this submit is stored right now (no
  /// stats or recency side effects — explain's "served from cache").
  bool contains(const std::string& repository,
                const std::string& remote_text) const;
  /// Same, rendering `remote` first.
  bool contains(const std::string& repository,
                const algebra::LogicalPtr& remote) const;

  /// Drops everything (explicit refresh, catalog changes).
  void invalidate_all();
  /// Drops one repository's entries and fences its in-flight publishes
  /// (circuit-state transitions from src/session/ health tracking).
  void invalidate_repository(const std::string& repository);
  /// Invalidates everything iff `version` differs from the last seen
  /// catalog version (cheap no-op fast path on the query hot path).
  void on_catalog_version(uint64_t version);

  CacheStats stats() const;

  /// stats() plus the per-entry inventory as one JSON object:
  /// {"enabled":true,"hits":..,...,"entries":[{"repository":..,
  /// "remote":..,"bytes":..},...]}. Repository names and remote algebra
  /// text are free-form (string predicates carry quotes; names may carry
  /// backslashes) and are escaped, so the output is always valid JSON.
  std::string stats_json() const;

 private:
  friend class Ticket;

  struct Entry {
    std::shared_ptr<const CachedResult> result;
    std::string repository;
    size_t bytes = 0;
    double expires_at_s = std::numeric_limits<double>::infinity();
    /// Recency tick; written under the *shared* lock, hence atomic.
    std::atomic<uint64_t> last_used{0};
  };

  double now() const { return clock_ ? clock_() : 0.0; }
  bool fresh(const Entry& entry) const {
    return entry.expires_at_s > now();
  }
  uint64_t repo_generation_locked(const std::string& repository) const;
  /// Must hold the exclusive lock.
  void erase_locked(const std::string& key);
  void evict_over_budget_locked();
  void abandon(const std::shared_ptr<Ticket::Flight>& flight);

  CacheOptions options_;
  Clock clock_;

  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<Entry>> entries_;
  std::unordered_map<std::string, std::shared_ptr<Ticket::Flight>> flights_;
  /// Bumped by invalidate_all(); flights born under an older generation
  /// still wake their joiners but are not stored.
  uint64_t generation_ = 0;
  /// Per-repository fence bumped by invalidate_repository().
  std::unordered_map<std::string, uint64_t> repo_generations_;
  uint64_t last_catalog_version_ = 0;
  bool catalog_version_seen_ = false;
  size_t bytes_ = 0;

  std::atomic<uint64_t> tick_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> coalesced_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace disco::cache
