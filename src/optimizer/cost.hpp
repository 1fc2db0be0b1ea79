// The learned cost model (§3.3 of the paper).
//
// "DISCO solves this problem by recording previous exec calls to a data
//  source and the actual cost of the call. ... a smoothing function is
//  used to combine the associated data to generate a new estimate. ...
//  In the case that the exec call does not exactly match, DISCO searches
//  for close matches ... In the case that there are no close matches to
//  the exec call, a default time cost of 0 and a data cost of 1 is used."
//
// Exact matches key on the full algebraic text of the shipped expression;
// close matches key on the constant-masked signature (a selection "whose
// comparison operators match but whose constants do not match"). Both are
// rendered once per plan node (algebra::CostKey) and travel with it, so
// estimates and recorded calls look them up without rendering. Only a
// fixed number of observations influence an estimate: an exponentially-
// weighted moving average with a bounded effective window implements the
// paper's "fixed number of exactly matching calls are recorded" +
// smoothing in O(1) space.
//
// The 0/1 default is load-bearing: with no information the optimizer
// "will choose plans where the maximum amount of computation is done at
// the data source, since every logical operation done at the data source
// has a 0 time cost" — bench_costmodel measures exactly this behaviour.
//
// One refinement beyond the paper's text: between "close match" and the
// 0/1 default sits a per-repository average over all recorded calls.
// Without it the optimizer oscillates: after one query the executed
// plan's shape has a real (nonzero) recorded cost while every alternative
// still estimates 0, so the optimizer would flee from whatever it just
// measured. The repository average is still "recorded cost information"
// in the paper's sense — it just pools it per source.
//
// The exact table is bounded: a mediator fed varied literals ships a
// new text per query, and one entry per text would grow without end.
// Past kMaxExactKeys texts in one repository, the kEvictBatch least
// recently recorded ones are dropped together; such a text then
// estimates from its close match, like any text not seen before.
//
// Thread safety: record() runs from executor threads while estimate()
// runs inside concurrent optimizations. State is sharded by repository
// (every key lives under its repository, so one call touches one shard)
// under per-shard shared_mutexes. Nothing caches an estimate: the
// mediator's plan templates price every query afresh (§3.3's "modify or
// recompute plans that are affected" then holds by construction).
#pragma once

#include <array>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "algebra/logical.hpp"

namespace disco::optimizer {

class CostHistory {
 public:
  /// `alpha` is the EWMA weight of the newest observation.
  explicit CostHistory(double alpha = 0.5) : alpha_(alpha) {}

  /// Records one finished exec call (§3.3) under the key of the
  /// expression that was shipped to the wrapper. Thread-safe.
  void record(const std::string& repository, const algebra::CostKey& key,
              double time_s, size_t rows);
  /// Same, rendering `remote`'s key first.
  void record(const std::string& repository,
              const algebra::LogicalPtr& remote, double time_s, size_t rows);

  enum class Basis { Exact, Close, Repository, Default };

  struct Estimate {
    double time_s = 0;  ///< the paper's default time cost 0
    double rows = 1;    ///< the paper's default data cost 1
    Basis basis = Basis::Default;
    size_t observations = 0;
  };

  /// Thread-safe.
  Estimate estimate(const std::string& repository,
                    const algebra::CostKey& key) const;
  /// Same, rendering `remote`'s key first.
  Estimate estimate(const std::string& repository,
                    const algebra::LogicalPtr& remote) const;
  /// Same, for a key given as its two texts (CostKey::text and
  /// CostKey::signature).
  Estimate estimate(const std::string& repository, const std::string& text,
                    const std::string& signature) const;

  /// Exact keys kept per repository, and how many go at once when a
  /// repository passes that.
  static constexpr size_t kMaxExactKeys = 8192;
  static constexpr size_t kEvictBatch = 1024;

  size_t exact_entries() const;
  size_t repository_entries() const;
  size_t close_entries() const;
  void clear();

 private:
  struct Entry {
    double time_ewma = 0;
    double rows_ewma = 0;
    size_t count = 0;
    uint64_t recorded = 0;  ///< exact keys: Observed::records at last record
  };
  /// Everything recorded for one repository.
  struct Observed {
    Entry average;                                 ///< over all its calls
    std::unordered_map<std::string, Entry> exact;  ///< by CostKey::text
    std::unordered_map<std::string, Entry> close;  ///< by CostKey::signature
    uint64_t records = 0;  ///< record() calls so far: the eviction clock
  };
  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<std::string, Observed> repositories;
  };
  static constexpr size_t kShards = 8;

  Shard& shard_for(const std::string& repository) const {
    return shards_[std::hash<std::string>{}(repository) % kShards];
  }
  /// Folds one observation into `entry`'s moving averages.
  void update(Entry& entry, double time_s, double rows) const;
  /// Drops the kEvictBatch least recently recorded exact keys.
  static void evict_oldest(Observed& observed);

  double alpha_;
  mutable std::array<Shard, kShards> shards_;
};

/// Plan cost in the optimizer's model. Network time composes by max
/// (§4: exec calls proceed in parallel); mediator CPU composes by sum.
struct Cost {
  double net_s = 0;
  double cpu_s = 0;
  double rows = 0;

  double total() const { return net_s + cpu_s; }
};

}  // namespace disco::optimizer
