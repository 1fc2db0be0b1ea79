#include "workloads.hpp"

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common/rng.hpp"
#include "optimizer/translate.hpp"
#include "oql/parser.hpp"
#include "server/client.hpp"
#include "server/values.hpp"

namespace perfbench {

using namespace disco;

namespace {

// Set-up is repeated and its median reported, so one slow set-up does
// not move setup_s. Every set-up but the measured world's runs in a child
// process of its own; see child_setup_s.
constexpr size_t kSetups = 4;
// serve's writer adds or drops an extent every this many of its
// operations.
constexpr size_t kAdminEvery = 25;
// lookup resubmits every pending partial answer every this many queries.
constexpr size_t kResubmitEvery = 10;
constexpr size_t kServeClients = 3;
constexpr double kInfinity = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------- mixes --

struct ClassSpec {
  const char* name;
  size_t per_deck;
};

/// Each workload's query classes and how many of each one deck holds.
/// Decks are shuffled per seed but always hold exactly these counts, so
/// the mix, and every mean over whole decks, does not drift with the
/// seed.
const std::vector<ClassSpec>& classes(Workload workload) {
  static const std::vector<ClassSpec> lookup = {
      {"point", 15}, {"range", 10}, {"doc", 6},   {"kv", 6},
      {"view", 6},   {"csv", 3},    {"fanout", 4}};
  static const std::vector<ClassSpec> analytics = {
      {"join", 6},     {"csvjoin", 12}, {"aggregate", 2},
      {"distinct", 4}, {"union", 10},   {"docjoin", 6}};
  static const std::vector<ClassSpec> serve = {
      {"hot", 16}, {"tail", 14}, {"fanout", 6}, {"slow", 4}};
  switch (workload) {
    case Workload::Lookup: return lookup;
    case Workload::Analytics: return analytics;
    case Workload::Serve: return serve;
  }
  return lookup;
}

/// The percentile tail_ms reports. Each is chosen to fall inside the
/// workload's heaviest class (fanout, docjoin, slow), which holds more
/// of the mix than the share beyond the percentile. lookup's lies in the
/// lower tenth of its fanout class: the host alternates between a fast
/// and a slower phase every few tens of milliseconds, and a quantile
/// where the two phases' samples meet moves with the share of slow ones.
double tail_percentile(Workload workload) {
  switch (workload) {
    case Workload::Lookup: return 0.93;
    case Workload::Analytics: return 0.925;
    case Workload::Serve: return 0.95;
  }
  return 0.95;
}

/// First queries after the warm-up whose counts must repeat exactly
/// (lookup, analytics).
size_t exact_window(Workload workload, bool smoke) {
  if (workload == Workload::Lookup) return smoke ? 500 : 10'000;
  return smoke ? 60 : 400;
}

/// First queries run before timing starts. The learned cost model
/// settles in this phase (a plan it has not priced yet may fetch a whole
/// extent once), and the first seconds of a run measure slower than the
/// rest.
size_t warmup_queries(Workload workload, bool smoke) {
  if (workload == Workload::Lookup) return smoke ? 100 : 10'000;
  return smoke ? 20 : 80;
}

/// lookup and analytics time catalog updates between their queries:
/// their mixes have no writes, but every workload reports admin_ms. An
/// update pair (add `scratch`, then drop it, so no query sees it) follows
/// every this many first queries after the warm-up, so the updates sample
/// the host over the whole run. Counted in queries, not seconds, so they
/// fall at the same places in every run of one seed.
size_t admin_every(Workload workload, bool smoke) {
  if (workload == Workload::Lookup) return smoke ? 20 : 100;
  return smoke ? 2 : 4;
}

std::string num(uint64_t v) { return std::to_string(v); }

class QueryGen {
 public:
  struct Op {
    uint8_t cls = 0;
    std::string text;
  };

  QueryGen(Workload workload, const Scale& scale, uint64_t seed,
           uint64_t stream)
      : workload_(workload),
        scale_(scale),
        rng_(mix64(seed * 1000003 + stream)) {
    const std::vector<ClassSpec>& specs = classes(workload);
    for (size_t c = 0; c < specs.size(); ++c) {
      pattern_.insert(pattern_.end(), specs[c].per_deck,
                      static_cast<uint8_t>(c));
    }
    if (workload == Workload::Serve) {
      // The hot set is the same for every client of one seed: point
      // lookups and narrow ranges, so cache hits serve multi-row replies.
      SplitMix64 hot_rng(mix64(seed + 77));
      for (int i = 0; i < 16; ++i) {
        hot_.push_back(point(hot_rng));
        hot_.push_back(salary_range(hot_rng, "person" + repo(hot_rng), 10,
                                    "struct(n: x.name, s: x.salary)"));
      }
    }
  }

  size_t deck_size() const { return pattern_.size(); }

  Op next() {
    if (pos_ == deck_.size()) {
      deck_ = pattern_;
      for (size_t i = deck_.size(); i > 1; --i) {
        std::swap(deck_[i - 1], deck_[rng_.next_below(i)]);
      }
      pos_ = 0;
    }
    const uint8_t cls = deck_[pos_++];
    return Op{cls, text(cls)};
  }

 private:
  uint64_t below(SplitMix64& rng, size_t n) { return rng.next_below(n); }
  std::string repo(SplitMix64& rng) { return num(below(rng, scale_.repos)); }
  // Each literal is drawn in its own statement: the operands of one
  // string expression are evaluated in an unspecified order.
  std::string point(SplitMix64& rng) {
    const std::string r = repo(rng);
    return "select struct(n: x.name, s: x.salary) from x in person" + r +
           " where x.id = " + num(below(rng, scale_.rows_per_repo));
  }
  std::string salary_range(SplitMix64& rng, const std::string& extent,
                           uint64_t width, const std::string& project) {
    const uint64_t lo = below(rng, 10'000 - width);
    return "select " + project + " from x in " + extent +
           " where x.salary >= " + num(lo) + " and x.salary < " +
           num(lo + width);
  }

  std::string text(uint8_t cls) {
    SplitMix64& r = rng_;
    const std::string name = classes(workload_)[cls].name;
    if (workload_ == Workload::Lookup) {
      if (name == "point") return point(r);
      if (name == "range") {
        const std::string range = salary_range(
            r, "person" + repo(r), 12, "struct(n: x.name, c: x.city)");
        return range + " and x.city != \"c" + num(below(r, 50)) + "\"";
      }
      if (name == "doc") {
        return "select struct(i: x.id, d: x.meta.depth) from x in readings "
               "where x.meta.sensor = \"n" +
               num(below(r, std::max<size_t>(1, scale_.docs / 10))) + "\"";
      }
      if (name == "kv") {
        return "select a.balance from a in accounts where a.id = " +
               num(below(r, scale_.accounts));
      }
      if (name == "view") {
        return "select s.name from s in staff where s.id = " +
               num(below(r, scale_.rows_per_repo));
      }
      if (name == "csv") {
        return "select d.dname from d in depts where d.dept = " +
               num(below(r, scale_.depts));
      }
      return "select struct(n: x.name, s: x.salary) from x in person "
             "where x.id = " +
             num(below(r, scale_.rows_per_repo));
    }
    if (workload_ == Workload::Analytics) {
      if (name == "join") {
        const uint64_t a = below(r, scale_.repos);
        const uint64_t b = (a + 1 + below(r, scale_.repos - 1)) % scale_.repos;
        return "select struct(a: x.name, b: y.city) from x in person" +
               num(a) + ", y in person" + num(b) +
               " where x.id = y.id and x.salary < " + num(250 + below(r, 100));
      }
      if (name == "csvjoin") {
        const uint64_t lo = below(r, 9'600);
        return "select struct(n: x.name, r: d.region) from x in person" +
               repo(r) + ", d in depts where x.dept = d.dept and "
               "x.salary >= " + num(lo) + " and x.salary < " + num(lo + 400);
      }
      if (name == "aggregate") {
        const std::string extent = "person" + repo(r);
        return "avg(select x.salary from x in " + extent +
               " where x.dept = " + num(below(r, 200)) + ")";
      }
      if (name == "distinct") {
        return "select distinct d.region from d in depts where d.dept < " +
               num(scale_.depts / 2 + below(r, scale_.depts / 2));
      }
      if (name == "union") {
        return salary_range(r, "person", 4, "struct(n: x.name, s: x.salary)");
      }
      return "select struct(i: x.id, r: s.region) from x in readings, s in "
             "sites where x.meta.site = s.site and x.meta.depth = " +
             num(below(r, 40));
    }
    if (name == "hot") return hot_[below(r, hot_.size())];
    if (name == "tail") {
      if (below(r, 2) == 0) return point(r);
      return salary_range(r, "person" + repo(r), 40,
                          "struct(n: x.name, s: x.salary)");
    }
    if (name == "fanout") {
      return "select struct(n: x.name, s: x.salary) from x in person "
             "where x.id = " +
             num(below(r, scale_.rows_per_repo));
    }
    return "select struct(n: x.name, s: x.salary) from x in archive "
           "where x.id = " +
           num(below(r, scale_.archive_rows));
  }

  Workload workload_;
  Scale scale_;
  SplitMix64 rng_;
  std::vector<uint8_t> pattern_;
  std::vector<uint8_t> deck_;
  size_t pos_ = 0;
  std::vector<std::string> hot_;
};

// ------------------------------------------------------------- counters --

/// Every layer counter the benchmark reads, from public accessors.
struct Counters {
  net::TrafficStats traffic;
  exec::MetricsSnapshot exec;
  cache::CacheStats cache;
  Mediator::PlanCacheStats plans;
  sched::SchedStats sched;
  session::ResubmissionManager::Stats session;
  memdb::Engine::Stats memdb;
  docstore::DocStore::Stats docs;
  uint64_t wrapper_calls = 0;
  uint64_t wrapper_rows = 0;
};

Counters snapshot(const World& world) {
  const Mediator& m = *world.mediator;
  Counters c;
  c.traffic = m.traffic_stats();
  c.exec = m.exec_metrics();
  c.cache = m.cache_stats();
  c.plans = m.plan_cache_stats();
  c.sched = m.sched_stats();
  c.session = m.session_stats();
  c.memdb = world.memdb->stats();
  c.docs = world.docs.stats();
  for (const auto& timer : world.timers) {
    c.wrapper_calls += timer->calls();
    c.wrapper_rows += timer->rows();
  }
  return c;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double median(std::vector<double> v) { return percentile(v, 0.5); }

// --------------------------------------------------------------- report --

class Reporter {
 public:
  explicit Reporter(RunReport* report) : report_(report) {}
  void metric(const std::string& name, const std::string& unit, double v) {
    report_->metrics.push_back({name, unit, v});
  }
  void exact(const std::string& name, double v) {
    report_->exact.push_back({name, "", v});
  }
  void note(const std::string& text) { report_->notes.push_back(text); }
  void fail(const std::string& why) {
    ++report_->failed;
    if (report_->failed <= 5) note(why);
  }

 private:
  RunReport* report_;
};

/// Checks recorded answers against the reference mediator. Reference
/// answers are memoized by text; serve compares through the same JSON
/// encoding its answers crossed the wire in.
class Checker {
 public:
  Checker(Mediator& reference, bool through_json)
      : reference_(reference), through_json_(through_json) {}

  bool matches(const std::string& text, const Digest& got, std::string* why) {
    auto it = memo_.find(text);
    if (it == memo_.end()) {
      Answer answer = reference_.query(text);
      Value data = answer.data();
      if (through_json_) {
        data = server::json_to_value(server::value_to_json(data));
      }
      it = memo_.emplace(text, digest(data)).first;
    }
    if (it->second == got) return true;
    *why = "wrong answer (" + num(got.rows) + " rows, reference " +
           num(it->second.rows) + "): " + text;
    return false;
  }

 private:
  Mediator& reference_;
  bool through_json_;
  std::unordered_map<std::string, Digest> memo_;
};

struct Timing {
  std::vector<double> setup_s;
  double rss_mb = 0;
};

/// What a run measured for the end-to-end metrics.
struct EndToEnd {
  std::vector<double> latencies_ms;
  double qps = 0;
  double sim_ms = 0;
  double src_rows_per_q = 0;
  double complete_pct = 0;
  double cpu_ms_per_q = 0;
  std::vector<double> admin_ms;
  double wall_s = 0;
};

void emit(Reporter& out, const RunConfig& config, const Timing& timing,
          EndToEnd e) {
  const double p = tail_percentile(config.workload);
  const size_t n = e.latencies_ms.size();
  out.metric("qps", "1/s", e.qps);
  out.metric("p50_ms", "ms", percentile(e.latencies_ms, 0.5));
  out.metric("tail_ms", "ms", percentile(e.latencies_ms, p));
  out.metric("sim_ms", "ms", e.sim_ms);
  out.metric("src_rows_per_q", "rows", e.src_rows_per_q);
  out.metric("complete_pct", "%", e.complete_pct);
  out.metric("cpu_ms_per_q", "ms", e.cpu_ms_per_q);
  out.metric("admin_ms", "ms", median(e.admin_ms));
  out.metric("rss_mb", "MiB", timing.rss_mb);
  out.metric("setup_s", "s", median(timing.setup_s));
  out.note(std::string(workload_name(config.workload)) + ": " + num(n) +
           " latency samples in " + std::to_string(e.wall_s) +
           " s; tail_ms is p" + std::to_string(p * 100) + " with " +
           num(samples_beyond(n, p)) + " samples beyond it; " +
           num(e.admin_ms.size()) + " admin_ms samples");
  if (!config.smoke && samples_beyond(n, p) < 10) {
    out.fail("fewer than ten samples beyond the tail percentile");
  }
}

/// What a traced run measured for the per-layer metrics. Layers a
/// workload runs off report zero.
struct Layers {
  double queries = 0;  ///< divisor of the per-query counts
  double traced = 0;   ///< divisor of the per-query self times
  SelfTimes self;
  double resubmit_parse_us = 0;
  double plans_per_q = 0;
  double grammar_checks_per_q = 0;
  double grammar_memo_ratio = 0;
  double answer_rows = 0;
  double residuals_per_partial = 0;
  double resubmits_per_partial = 0;
  double overhead_us = 0;
  std::vector<double> live_epochs;
  std::vector<double> ack_us;
  std::vector<double> push_us;
  double answer_bytes = 0;
  double partial_pushes = 0;
};

/// The per-layer counts that must repeat exactly for one seed.
std::vector<Metric> exact_layers(const Counters& a, const Counters& b,
                                 const Layers& l) {
  const double q = std::max(1.0, l.queries);
  return {
      {"optimizer.plans_per_q", "count", l.plans_per_q},
      {"net.calls_per_q", "count", (b.traffic.calls - a.traffic.calls) / q},
      {"net.rows_per_q", "rows", (b.traffic.rows - a.traffic.rows) / q},
      {"net.unavailable_per_q", "count",
       (b.traffic.failures - a.traffic.failures) / q},
      {"memdb.rows_scanned_per_q", "rows",
       (b.memdb.rows_scanned - a.memdb.rows_scanned) / q},
      {"memdb.index_probes_per_q", "count",
       (b.memdb.index_probes - a.memdb.index_probes) / q},
      {"memdb.match_ratio", "ratio",
       ratio(static_cast<double>(b.memdb.rows_matched - a.memdb.rows_matched),
             static_cast<double>(b.memdb.rows_scanned -
                                 a.memdb.rows_scanned))},
      {"docstore.docs_scanned_per_q", "docs",
       (b.docs.docs_scanned - a.docs.docs_scanned) / q},
      {"algebra.residuals_per_partial", "count", l.residuals_per_partial},
      {"algebra.resubmits_per_partial", "count", l.resubmits_per_partial},
  };
}

void emit(Reporter& o, const Counters& a, const Counters& b, const Layers& l) {
  const double q = std::max(1.0, l.queries);
  const double per_op = 1.0 / std::max(1.0, l.traced);
  const double optimize_us = l.self.us(Layer::Optimize);
  const double calls = static_cast<double>(b.wrapper_calls - a.wrapper_calls);
  const double wrows = static_cast<double>(b.wrapper_rows - a.wrapper_rows);
  const double lookups = static_cast<double>(
      (b.cache.hits + b.cache.coalesced + b.cache.misses) -
      (a.cache.hits + a.cache.coalesced + a.cache.misses));
  const double plan_lookups = static_cast<double>(
      (b.plans.hits + b.plans.misses) - (a.plans.hits + a.plans.misses));
  const double dispatched =
      static_cast<double>(b.exec.dispatched - a.exec.dispatched);
  auto count = [](uint64_t to, uint64_t from) {
    return static_cast<double>(to - from);
  };
  o.metric("oql.parse_us", "us", l.self.us(Layer::Parse) * per_op);
  o.metric("oql.resubmit_parse_us", "us", l.resubmit_parse_us);
  o.metric("optimizer.view_expand_us", "us", l.self.us(Layer::Expand) * per_op);
  o.metric("optimizer.optimize_us", "us", optimize_us * per_op);
  o.metric("optimizer.grammar_checks_per_q", "count", l.grammar_checks_per_q);
  o.metric("optimizer.grammar_memo_ratio", "ratio", l.grammar_memo_ratio);
  // The mediator's own optimize is not visible from outside; the shadow
  // optimize of the same expression stands in for it.
  o.metric("physical.execute_self_us", "us",
           l.self.spans[static_cast<size_t>(Layer::Execute)] == 0
               ? 0.0
               : (l.self.us(Layer::Execute) - optimize_us) * per_op);
  o.metric("wrapper.minisql_us", "us", l.self.us(Layer::Minisql) * per_op);
  o.metric("wrapper.csv_us", "us", l.self.us(Layer::Csv) * per_op);
  o.metric("wrapper.kvstore_us", "us", l.self.us(Layer::Kvstore) * per_op);
  o.metric("wrapper.docstore_us", "us", l.self.us(Layer::Docstore) * per_op);
  o.metric("wrapper.calls_per_q", "count", calls / q);
  o.metric("wrapper.rows_per_call", "rows", ratio(wrows, calls));
  o.metric("wrapper.useful_row_ratio", "ratio", ratio(l.answer_rows, wrows));
  for (const Metric& m : exact_layers(a, b, l)) o.metric(m.name, m.unit, m.value);
  o.metric("server.ack_us", "us", median(l.ack_us));
  o.metric("server.push_us", "us", median(l.push_us));
  o.metric("server.answer_bytes", "bytes", l.answer_bytes);
  o.metric("cache.hit_ratio", "ratio",
           ratio(count(b.cache.hits, a.cache.hits), lookups));
  o.metric("cache.coalesced_per_q", "count",
           count(b.cache.coalesced, a.cache.coalesced) / q);
  o.metric("cache.evictions", "count", count(b.cache.evictions, a.cache.evictions));
  o.metric("cache.invalidations", "count",
           count(b.cache.invalidations, a.cache.invalidations));
  o.metric("optimizer.plan_cache_hit_ratio", "ratio",
           ratio(count(b.plans.hits, a.plans.hits), plan_lookups));
  o.metric("exec.dispatches_per_q", "count", dispatched / q);
  o.metric("exec.wait_ms_per_dispatch", "ms",
           ratio((b.exec.wall_s - a.exec.wall_s) * 1e3, dispatched));
  o.metric("exec.retries_per_q", "count", count(b.exec.retries, a.exec.retries) / q);
  o.metric("sched.queued_per_q", "count",
           count(b.sched.queued_calls, a.sched.queued_calls) / q);
  // The scheduler counts simulated seconds; report the wall time waited.
  o.metric("sched.queue_wait_ms_per_q", "ms",
           (b.sched.queue_wait_s - a.sched.queue_wait_s) * 1e3 *
               kServeLatencyScale / q);
  o.metric("sched.shed", "count", count(b.sched.shed, a.sched.shed));
  o.metric("session.resubmissions", "count",
           count(b.session.resubmissions, a.session.resubmissions));
  o.metric("session.partial_pushes", "count", l.partial_pushes);
  o.metric("health.short_circuits", "count",
           count(b.exec.short_circuits, a.exec.short_circuits));
  o.metric("fedcat.live_epochs", "count",
           ratio(std::accumulate(l.live_epochs.begin(), l.live_epochs.end(), 0.0),
                 static_cast<double>(l.live_epochs.size())));
  o.metric("trace.overhead_us", "us", l.overhead_us);
}

// ----------------------------------------------------- lookup, analytics --

class InProcessRun {
 public:
  InProcessRun(const RunConfig& config, World& world, SpanLog* log,
               Reporter& out)
      : config_(config),
        world_(world),
        m_(*world.mediator),
        log_(log),
        out_(out),
        gen_(config.workload, config.smoke ? Scale::smoke() : Scale::full(),
             config.seed, 0),
        n_classes_(classes(config.workload).size()),
        warmup_(warmup_queries(config.workload, config.smoke)),
        window_end_(warmup_ + exact_window(config.workload, config.smoke)),
        admin_every_(admin_every(config.workload, config.smoke)) {
    class_ops_.assign(n_classes_ + 1, 0);
    untraced_sum_.assign(n_classes_ + 1, 0);
    untraced_n_.assign(n_classes_ + 1, 0);
    traced_sum_.assign(n_classes_ + 1, 0);
    traced_n_.assign(n_classes_ + 1, 0);
    class_lat_.resize(n_classes_ + 1);
    if (config.workload == Workload::Lookup) {
      query_options_.deadline_s = kLookupDeadline;
    }
  }

  /// The warm-up, then timed queries for config.seconds with catalog
  /// update pairs between them; the exact window is the first of them.
  void run(CpuRotation& rotation) {
    for (;;) {
      if (firsts_ >= window_end_ && firsts_ % gen_.deck_size() == 0 &&
          seconds_since(sample_start_) >= config_.seconds) {
        break;
      }
      rotation.tick();
      if (firsts_ == warmup_) {
        sampling_ = true;
        counting_ = true;
        start_ = snapshot(world_);
        sample_start_ = Clock::now();
      }
      QueryGen::Op op = gen_.next();
      first_query(op);
      if (firsts_ == window_end_) {
        counting_ = false;
        end_ = snapshot(world_);
      }
      if (firsts_ % kResubmitEvery == 0) resubmit_pending(/*drain=*/false);
      if (sampling_ && (firsts_ - warmup_) % admin_every_ == 0) {
        admin();
        admin();
      }
    }
    sample_wall_s_ = seconds_since(sample_start_);
    sampling_ = false;
    // Finish partial answers still pending: each blocked resubmission
    // advances virtual time by the deadline, so the outage ends.
    for (int round = 0; round < 10'000 && !pending_.empty(); ++round) {
      resubmit_pending(/*drain=*/true);
    }
    for (const Pending& p : pending_) {
      out_.fail("partial answer never completed: " + records_[p.record].text);
    }
  }

  void check(Checker& checker) {
    for (const Record& r : records_) {
      if (!r.done) continue;
      std::string why;
      if (!checker.matches(r.text, r.digest, &why)) out_.fail(why);
    }
  }

  void report(const Timing& timing, const SpanLog* log);

  uint64_t attempted() const { return attempted_; }

 private:
  struct Record {
    std::string text;
    Digest digest;
    bool done = false;
  };
  struct Pending {
    size_t record;
    std::string text;  ///< the latest partial answer's to_oql()
  };

  /// One mediator call. Untraced: Mediator::query(text). Traced: parse
  /// and view expansion under their own spans, Mediator::query(expr) with
  /// wrapper spans as children, then a shadow optimize of the same
  /// expression.
  std::optional<Answer> call(const std::string& text, size_t cls,
                             bool resubmission) {
    ++attempted_;
    // Traced runs trace every other call of each class from the first
    // call on, so which calls of the exact window are traced repeats for
    // one seed; spans and latency samples are kept after the warm-up only.
    const bool traced = log_ != nullptr && class_ops_[cls]++ % 2 == 1;
    SpanLog* spans = sampling_ ? log_ : nullptr;
    const uint64_t op = ++ops_;
    try {
      if (!traced) {
        const double cpu0 = process_cpu_s();
        const auto t0 = Clock::now();
        Answer answer = m_.query(text, query_options_);
        const double s = seconds_since(t0);
        const double cpu = process_cpu_s() - cpu0;
        if (sampling_) sample(cls, s, cpu, /*traced=*/false);
        return answer;
      }
      ScopedSpan root(spans, Layer::Query, op, 0);
      int64_t parse_ns = 0;
      oql::ExprPtr expr;
      {
        ScopedSpan span(spans, Layer::Parse, op, root.id());
        expr = oql::parse(text);
        parse_ns = span.elapsed_ns();
      }
      if (resubmission && sampling_) {
        resubmit_parse_ns_ += parse_ns;
        ++resubmit_parses_;
      }
      const fedcat::SnapshotPtr snap = m_.catalog_snapshot();
      {
        ScopedSpan span(spans, Layer::Expand, op, root.id());
        (void)optimizer::expand_views(expr, snap->catalog);
      }
      const double cpu0 = process_cpu_s();
      std::optional<Answer> answer;
      int64_t execute_ns = 0;
      {
        ScopedSpan execute(spans, Layer::Execute, op, root.id());
        current_context() = SpanContext{spans != nullptr, op, execute.id()};
        answer = m_.query(expr, query_options_);
        current_context() = SpanContext{};
        execute_ns = execute.elapsed_ns();
      }
      const double cpu = process_cpu_s() - cpu0;
      // The shadow optimize runs after the call it stands in for: run
      // before it, it warms the caches for the mediator's own optimize
      // and the traced call measures faster than an untraced one.
      {
        ScopedSpan span(spans, Layer::Optimize, op, root.id());
        optimizer::Optimizer shadow(
            &snap->catalog,
            [snap](const std::string& name) {
              return snap->wrapper_by_name(name);
            },
            &m_.cost_history());
        optimizer::Optimizer::Result planned = shadow.optimize(expr);
        if (counting_) {
          plans_ += planned.plans_considered;
          grammar_checks_ += planned.prune.grammar_consultations;
          grammar_memo_ += planned.prune.grammar_memo_hits;
          ++optimized_;
        }
      }
      if (sampling_) {
        sample(cls, static_cast<double>(parse_ns + execute_ns) / 1e9, cpu,
               /*traced=*/true);
      }
      return answer;
    } catch (const std::exception& e) {
      current_context() = SpanContext{};
      out_.fail(std::string("error: ") + e.what() + ": " + text);
      return std::nullopt;
    }
  }

  void sample(size_t cls, double s, double cpu_s, bool traced) {
    if (traced) {
      traced_sum_[cls] += s;
      ++traced_n_[cls];
      return;
    }
    untraced_sum_[cls] += s;
    ++untraced_n_[cls];
    latencies_ms_.push_back(s * 1e3);
    class_lat_[cls].push_back(s * 1e3);
    busy_s_ += s;
    cpu_s_ += cpu_s;
  }

  /// Adds a call to the exact window: the first queries from the
  /// warm-up's end to window_end_ and the resubmissions issued between
  /// them.
  void account(const Answer& answer, bool first) {
    if (!counting_) return;
    ++window_queries_;
    sim_s_ += answer.stats().run.elapsed_s;
    rows_fetched_ += answer.stats().run.rows_fetched;
    answer_rows_ += answer.data().is_collection() ? answer.data().size() : 1;
    if (first) {
      ++window_firsts_;
      if (answer.complete()) {
        ++window_complete_;
      } else {
        ++window_partials_;
        residuals_ += answer.residuals().size();
      }
    } else {
      ++window_resubmits_;
    }
  }

  void first_query(const QueryGen::Op& op) {
    records_.push_back(Record{op.text, {}, false});
    std::optional<Answer> answer = call(op.text, op.cls, false);
    ++firsts_;
    if (!answer) return;
    account(*answer, true);
    if (answer->complete()) {
      records_.back().digest = digest(answer->data());
      records_.back().done = true;
    } else {
      pending_.push_back(Pending{records_.size() - 1, answer->to_oql()});
    }
  }

  void resubmit_pending(bool drain) {
    std::vector<Pending> still;
    for (Pending& p : pending_) {
      std::optional<Answer> answer =
          drain ? untimed(p.text) : call(p.text, n_classes_, true);
      if (!answer) continue;
      if (!drain) account(*answer, false);
      if (answer->complete()) {
        records_[p.record].digest = digest(answer->data());
        records_[p.record].done = true;
      } else {
        still.push_back(Pending{p.record, answer->to_oql()});
      }
    }
    pending_ = std::move(still);
  }

  std::optional<Answer> untimed(const std::string& text) {
    ++attempted_;
    try {
      return m_.query(text, query_options_);
    } catch (const std::exception& e) {
      out_.fail(std::string("error: ") + e.what() + ": " + text);
      return std::nullopt;
    }
  }

  /// Adds or drops `scratch`, in turn.
  void admin() {
    ++attempted_;
    admin_add_ = !admin_add_;
    try {
      const auto t0 = Clock::now();
      m_.execute_odl(admin_odl(admin_add_));
      admin_ms_.push_back(seconds_since(t0) * 1e3);
      live_epochs_.push_back(static_cast<double>(m_.live_epochs()));
    } catch (const std::exception& e) {
      out_.fail(std::string("admin error: ") + e.what());
    }
  }

  const RunConfig& config_;
  World& world_;
  Mediator& m_;
  SpanLog* log_;
  Reporter& out_;
  QueryGen gen_;
  size_t n_classes_;
  size_t warmup_;
  size_t window_end_;
  size_t admin_every_;
  QueryOptions query_options_;

  bool sampling_ = false;  ///< past the warm-up, queries still timed
  bool counting_ = false;  ///< inside the exact window
  bool admin_add_ = false;
  Clock::time_point sample_start_;
  double sample_wall_s_ = 0;
  uint64_t attempted_ = 0;
  uint64_t ops_ = 0;
  size_t firsts_ = 0;
  std::vector<Record> records_;
  std::vector<Pending> pending_;

  // Timed samples (after the warm-up; untraced calls only) and the
  // catalog updates.
  std::vector<double> latencies_ms_;
  std::vector<std::vector<double>> class_lat_;
  std::vector<double> admin_ms_;
  std::vector<double> live_epochs_;
  double busy_s_ = 0;
  double cpu_s_ = 0;
  // Traced runs: calls per class so far, and per-class latency sums of
  // untraced calls and of the traced calls' parse + execute spans.
  std::vector<uint64_t> class_ops_;
  std::vector<double> untraced_sum_;
  std::vector<uint64_t> untraced_n_;
  std::vector<double> traced_sum_;
  std::vector<uint64_t> traced_n_;
  int64_t resubmit_parse_ns_ = 0;
  uint64_t resubmit_parses_ = 0;

  // The exact window, with its resubmissions.
  Counters start_;
  Counters end_;
  uint64_t window_queries_ = 0;
  uint64_t window_firsts_ = 0;
  uint64_t window_complete_ = 0;
  uint64_t window_partials_ = 0;
  uint64_t window_resubmits_ = 0;
  uint64_t residuals_ = 0;
  double sim_s_ = 0;
  uint64_t rows_fetched_ = 0;
  uint64_t answer_rows_ = 0;
  uint64_t plans_ = 0;
  uint64_t grammar_checks_ = 0;
  uint64_t grammar_memo_ = 0;
  uint64_t optimized_ = 0;
};

void InProcessRun::report(const Timing& timing, const SpanLog* log) {
  const double nq = static_cast<double>(window_queries_);
  const double sim_ms = ratio(sim_s_ * 1e3, nq);
  const double src_rows = ratio(static_cast<double>(rows_fetched_), nq);
  const double complete_pct =
      ratio(100.0 * static_cast<double>(window_complete_),
            static_cast<double>(window_firsts_));
  out_.exact("sim_ms", sim_ms);
  out_.exact("src_rows_per_q", src_rows);
  out_.exact("complete_pct", complete_pct);
  for (size_t c = 0; c <= n_classes_; ++c) {
    if (class_lat_[c].empty()) continue;
    std::vector<double> v = class_lat_[c];
    out_.note(std::string("class ") +
              (c < n_classes_ ? classes(config_.workload)[c].name
                              : "resubmit") +
              ": n=" + num(v.size()) + " p50=" +
              std::to_string(percentile(v, 0.5)) + "ms p90=" +
              std::to_string(percentile(v, 0.9)) + "ms");
  }

  if (log == nullptr) {
    EndToEnd e;
    e.latencies_ms = latencies_ms_;
    e.qps = ratio(static_cast<double>(latencies_ms_.size()), busy_s_);
    e.sim_ms = sim_ms;
    e.src_rows_per_q = src_rows;
    e.complete_pct = complete_pct;
    e.cpu_ms_per_q =
        ratio(cpu_s_ * 1e3, static_cast<double>(latencies_ms_.size()));
    e.admin_ms = admin_ms_;
    e.wall_s = sample_wall_s_;
    emit(out_, config_, timing, std::move(e));
    return;
  }

  // Traced run: per-layer self times from the spans. The class-weighted
  // means compare traced calls (parse + execute spans) with untraced
  // calls of the same classes, so the mix cannot bias the comparison.
  const SelfTimes self = self_times(log->spans());
  uint64_t traced = 0;
  double weighted_traced = 0, weighted_untraced = 0, weight = 0;
  for (size_t c = 0; c <= n_classes_; ++c) {
    traced += traced_n_[c];
    if (traced_n_[c] == 0 || untraced_n_[c] == 0) continue;
    const double w = static_cast<double>(traced_n_[c] + untraced_n_[c]);
    weighted_traced += w * traced_sum_[c] / static_cast<double>(traced_n_[c]);
    weighted_untraced +=
        w * untraced_sum_[c] / static_cast<double>(untraced_n_[c]);
    weight += w;
  }
  const double sum_ratio = ratio(weighted_traced, weighted_untraced);
  out_.note("traced " + num(traced) + " calls; self-time sum / untraced "
            "mean latency = " + std::to_string(sum_ratio));
  if (std::abs(sum_ratio - 1.0) > 0.10) {
    out_.fail("per-layer self times do not add up to the untraced mean "
              "latency within 10% (ratio " + std::to_string(sum_ratio) + ")");
  }

  Layers l;
  l.queries = nq;
  l.traced = static_cast<double>(traced);
  l.self = self;
  l.resubmit_parse_us = ratio(resubmit_parse_ns_ / 1e3, resubmit_parses_);
  l.plans_per_q = ratio(plans_, optimized_);
  l.grammar_checks_per_q = ratio(grammar_checks_, optimized_);
  l.grammar_memo_ratio = ratio(grammar_memo_, grammar_checks_);
  l.answer_rows = static_cast<double>(answer_rows_);
  l.residuals_per_partial = ratio(residuals_, window_partials_);
  l.resubmits_per_partial = ratio(window_resubmits_, window_partials_);
  l.overhead_us = ratio(weighted_traced - weighted_untraced, weight) * 1e6;
  l.live_epochs = live_epochs_;
  emit(out_, start_, end_, l);
  for (const Metric& m : exact_layers(start_, end_, l)) {
    out_.exact(m.name, m.value);
  }
}

// ---------------------------------------------------------------- serve --

struct ServeSample {
  bool recorded = false;  ///< completed inside the measured window
  bool first_complete = true;
  double latency_ms = 0;
  double ack_us = 0;
  double push_us = 0;
  std::string text;
  server::json::Value rows;
};

struct ServeClientResult {
  std::vector<ServeSample> samples;
  std::vector<double> admin_ms;
  std::vector<double> live_epochs;
  uint64_t attempted = 0;
  uint64_t partial_pushes = 0;
  std::vector<std::string> errors;
};

void serve_client(World& world, const RunConfig& config, size_t index,
                  SpanLog* log, const std::atomic<int>& phase,
                  std::atomic<uint64_t>& op_ids,
                  std::atomic<uint64_t>& completed, ServeClientResult& out) {
  const Scale scale = config.smoke ? Scale::smoke() : Scale::full();
  QueryGen gen(Workload::Serve, scale, config.seed, index + 1);
  server::Client client("127.0.0.1", world.server->port());
  bool admin_add = false;
  for (size_t n = 1; phase.load() < 2; ++n) {
    if (index == 0 && n % kAdminEvery == 0) {
      ++out.attempted;
      admin_add = !admin_add;
      const bool recording = phase.load() == 1;
      try {
        const uint64_t op = op_ids.fetch_add(1) + 1;
        std::optional<ScopedSpan> span;
        if (log != nullptr) span.emplace(log, Layer::Admin, op, 0);
        const auto t0 = Clock::now();
        world.mediator->execute_odl(admin_odl(admin_add));
        const double ms = seconds_since(t0) * 1e3;
        if (recording) {
          out.admin_ms.push_back(ms);
          out.live_epochs.push_back(
              static_cast<double>(world.mediator->live_epochs()));
        }
      } catch (const std::exception& e) {
        out.errors.push_back(std::string("admin error: ") + e.what());
      }
      continue;
    }
    QueryGen::Op op = gen.next();
    ++out.attempted;
    const bool recording = phase.load() == 1;
    const uint64_t id_op = op_ids.fetch_add(1) + 1;
    std::optional<ScopedSpan> request;
    if (log != nullptr) request.emplace(log, Layer::Request, id_op, 0);
    const uint64_t parent = request ? request->id() : 0;
    std::optional<ScopedSpan> ack;
    if (log != nullptr) ack.emplace(log, Layer::Ack, id_op, parent);
    const auto t0 = Clock::now();
    server::Response submitted = client.submit(op.text, kInfinity, true);
    const auto t1 = Clock::now();
    ack.reset();
    if (submitted.type != server::FrameType::kSubmitted) {
      out.errors.push_back(std::string(server::to_string(submitted.type)) +
                           " reply to SUBMIT: " + submitted.payload.dump());
      continue;
    }
    const uint64_t id = submitted.payload.at("id").as_uint64();
    std::optional<ScopedSpan> push;
    if (log != nullptr) push.emplace(log, Layer::Push, id_op, parent);
    ServeSample sample;
    for (;;) {
      std::optional<server::Response> event = client.wait_event(
          id,
          {server::FrameType::kPartial, server::FrameType::kComplete,
           server::FrameType::kQueryFailed},
          30.0);
      if (!event) {
        out.errors.push_back("timed out waiting for COMPLETE: " + op.text);
        break;
      }
      if (event->type == server::FrameType::kPartial) {
        ++out.partial_pushes;
        sample.first_complete = false;
        continue;
      }
      if (event->type == server::FrameType::kQueryFailed) {
        out.errors.push_back("QUERY_FAILED: " + op.text);
        break;
      }
      const auto t2 = Clock::now();
      push.reset();
      request.reset();
      sample.recorded = recording && phase.load() == 1;
      if (sample.recorded) completed.fetch_add(1);
      sample.latency_ms =
          std::chrono::duration<double, std::milli>(t2 - t0).count();
      sample.ack_us =
          std::chrono::duration<double, std::micro>(t1 - t0).count();
      sample.push_us =
          std::chrono::duration<double, std::micro>(t2 - t1).count();
      sample.text = std::move(op.text);
      sample.rows = event->payload.at("rows");
      out.samples.push_back(std::move(sample));
      (void)client.cancel(id, /*release_only=*/true);
      break;
    }
  }
}

/// Times one set-up in a child process forked from this one while it
/// holds the generated inputs and nothing built from them, so the set-up
/// starts from the same memory as the measured world's, not from memory an
/// earlier world grew and freed. The child runs on the i-th CPU and exits
/// without tearing its world down.
double child_setup_s(const Inputs& inputs, const RunConfig& config,
                     CpuRotation& rotation, size_t i) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    rotation.pin(i);
    double s = -1;
    try {
      const auto t0 = Clock::now();
      (void)build_world(inputs, config.workload, config.seed, nullptr)
          .release();
      s = seconds_since(t0);
    } catch (...) {
    }
    _exit(s >= 0 && write(fds[1], &s, sizeof s) == sizeof s ? 0 : 1);
  }
  close(fds[1]);
  double s = -1;
  ssize_t got;
  do {
    got = read(fds[0], &s, sizeof s);
  } while (got < 0 && errno == EINTR);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != static_cast<ssize_t>(sizeof s) || s < 0 || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up in a child process failed");
  }
  return s;
}

}  // namespace

RunReport run_workload(const RunConfig& config) {
  RunReport report;
  Reporter out(&report);
  const Scale scale = config.smoke ? Scale::smoke() : Scale::full();
  Inputs inputs = generate_inputs(config.seed, scale);
  std::unique_ptr<SpanLog> log;
  if (config.trace) log = std::make_unique<SpanLog>();

  // Each set-up runs on another CPU; see CpuRotation. Traced runs report
  // no setup_s and set up once.
  Timing timing;
  CpuRotation rotation;
  const size_t setups = config.trace ? 1 : kSetups;
  for (size_t i = 0; i + 1 < setups; ++i) {
    timing.setup_s.push_back(child_setup_s(inputs, config, rotation, i));
  }
  rotation.pin(setups - 1);
  const auto t0 = Clock::now();
  std::unique_ptr<World> world =
      build_world(inputs, config.workload, config.seed, log.get());
  timing.setup_s.push_back(seconds_since(t0));
  rotation.release_all();
  attach_reference(*world, inputs);
  std::string setups_s;
  for (double v : timing.setup_s) setups_s += " " + std::to_string(v);
  out.note("set-ups (s):" + setups_s);

  // Peak RSS counts from here: the generated inputs are freed and the
  // set-up's high-water mark is forgotten.
  inputs = Inputs{};
  malloc_trim(0);
  if (!reset_peak_rss()) {
    out.note("could not reset the peak RSS; rss_mb includes set-up");
  }

  if (config.workload != Workload::Serve) {
    InProcessRun run(config, *world, log.get(), out);
    run.run(rotation);
    rotation.release_all();
    timing.rss_mb = peak_rss_mb();
    Checker checker(*world->reference, /*through_json=*/false);
    run.check(checker);
    report.attempted = run.attempted();
    run.report(timing, log.get());
  } else {
    std::atomic<int> phase{0};  // 0 warm-up, 1 measured, 2 stop
    std::atomic<uint64_t> op_ids{0};
    std::atomic<uint64_t> completed{0};  // recorded queries so far
    std::vector<ServeClientResult> results(kServeClients);
    std::vector<std::thread> threads;
    std::vector<std::string> thread_errors(kServeClients);
    for (size_t c = 0; c < kServeClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          serve_client(*world, config, c, log.get(), phase, op_ids,
                       completed, results[c]);
        } catch (const std::exception& e) {
          thread_errors[c] = e.what();
        }
      });
    }
    // Long enough for the learned cost model to settle: until it has
    // priced a whole-extent fetch on a repository it may choose one. Most
    // such fetches come in the first 5 s; a few come later.
    const double warmup_s = config.smoke ? 0.3 : 10.0;
    std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
    const Counters a = snapshot(*world);
    const auto t0 = Clock::now();
    const int64_t window_start_ns = log != nullptr ? log->now_ns() : 0;
    phase.store(1);
    // Process CPU time per completed query, second by second; the median
    // second is reported, so one second that the host or a cold plan
    // slowed does not move it.
    std::vector<double> cpu_ms_per_q;
    double cpu_last = process_cpu_s();
    uint64_t completed_last = 0;
    for (double elapsed = 0; elapsed < config.seconds;) {
      const double slice = std::min(1.0, config.seconds - elapsed);
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(elapsed + slice)));
      elapsed += slice;
      const double cpu = process_cpu_s();
      const uint64_t done = completed.load();
      if (done > completed_last) {
        cpu_ms_per_q.push_back((cpu - cpu_last) * 1e3 /
                               static_cast<double>(done - completed_last));
      }
      cpu_last = cpu;
      completed_last = done;
    }
    phase.store(2);
    const int64_t window_end_ns = log != nullptr ? log->now_ns() : 0;
    const double wall_s = seconds_since(t0);
    const Counters b = snapshot(*world);
    for (std::thread& t : threads) t.join();
    timing.rss_mb = peak_rss_mb();

    std::vector<double> lat, ack, push, admin, epochs;
    double bytes = 0, answer_rows = 0;
    uint64_t firsts = 0, complete_firsts = 0, partial_pushes = 0;
    Checker checker(*world->reference, /*through_json=*/true);
    for (size_t c = 0; c < kServeClients; ++c) {
      if (!thread_errors[c].empty()) {
        out.fail("client " + num(c) + " stopped: " + thread_errors[c]);
      }
      ServeClientResult& r = results[c];
      report.attempted += r.attempted;
      partial_pushes += r.partial_pushes;
      for (const std::string& e : r.errors) out.fail(e);
      admin.insert(admin.end(), r.admin_ms.begin(), r.admin_ms.end());
      epochs.insert(epochs.end(), r.live_epochs.begin(), r.live_epochs.end());
      for (const ServeSample& s : r.samples) {
        std::string why;
        const Digest got = digest(server::json_to_value(s.rows));
        if (!checker.matches(s.text, got, &why)) out.fail(why);
        if (!s.recorded) continue;
        lat.push_back(s.latency_ms);
        ack.push_back(s.ack_us);
        push.push_back(s.push_us);
        bytes += static_cast<double>(s.rows.dump().size());
        answer_rows += static_cast<double>(got.rows);
        ++firsts;
        if (s.first_complete) ++complete_firsts;
      }
    }
    const double n = static_cast<double>(lat.size());
    if (!config.trace) {
      EndToEnd e;
      e.latencies_ms = lat;
      e.qps = ratio(n, wall_s);
      e.sim_ms = ratio((b.exec.sim_latency_s - a.exec.sim_latency_s) * 1e3, n);
      e.src_rows_per_q = ratio(static_cast<double>(b.exec.rows - a.exec.rows), n);
      e.complete_pct = ratio(100.0 * static_cast<double>(complete_firsts),
                             static_cast<double>(firsts));
      e.cpu_ms_per_q = median(cpu_ms_per_q);
      e.admin_ms = admin;
      e.wall_s = wall_s;
      emit(out, config, timing, std::move(e));
    } else {
      // Wrapper spans ran on pool threads, unlinked to requests: their
      // self times are summed per layer and divided by requests.
      Layers l;
      l.queries = n;
      l.traced = n;
      std::vector<Span> spans = log->spans();
      std::erase_if(spans, [&](const Span& s) {
        return s.start_ns < window_start_ns || s.start_ns >= window_end_ns;
      });
      l.self = self_times(spans);
      l.answer_rows = answer_rows;
      l.live_epochs = epochs;
      l.ack_us = ack;
      l.push_us = push;
      l.answer_bytes = ratio(bytes, n);
      l.partial_pushes = static_cast<double>(partial_pushes);
      emit(out, a, b, l);
    }
  }

  if (log != nullptr && !config.span_path.empty() &&
      !log->write(config.span_path)) {
    out.note("could not write spans to " + config.span_path);
  }
  report.correct = report.failed == 0;
  return report;
}

std::string report_json(const RunReport& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.10g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
