// Per-query trace trees (src/obs/).
//
// A Trace records what one query *actually did*: a tree of timed spans
// (parse, typecheck, optimize, execute, one per exec dispatch, residual
// construction, ...) with string tags (repository, attempts, sim vs wall
// latency, pushdown expression, outcome). The mediator opens a Trace per
// query when Options::obs.enabled and threads an ObsContext — a
// {Trace*, parent span id} pair — down through the optimizer, the
// physical runtime, the parallel dispatcher and the session layer. Every
// instrumentation site guards on a single pointer check, so the disabled
// path costs one branch.
//
// Output forms:
//   * to_json()          — Chrome trace format (chrome://tracing /
//                          Perfetto loadable): paired B/E duration events
//                          (b/e async pairs for spans that end on another
//                          thread) plus "i" instant events, ts in
//                          microseconds.
//   * to_compact_json()  — a nested {name, cat, start/dur, tags,
//                          children} tree for programmatic consumers.
//
// Thread safety: begin/end/tag/instant may be called from any thread
// (a wall-clock exec span begins on a pool thread and ends on the
// dispatcher's timer thread). All mutation sits
// under one mutex; the timestamp is read inside the critical section, so
// event sequence order and timestamp order always agree — to_json()
// output is monotone by construction.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace disco::obs {

/// One node of the trace tree. `instant` spans are point events (retry,
/// short-circuit) with start_s == end_s.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root (no parent)
  std::string name;
  std::string category;  ///< "mediator", "optimizer", "exec", "session"
  double start_s = 0;    ///< seconds since the trace epoch
  double end_s = -1;     ///< < 0 while still open
  uint64_t tid = 0;      ///< per-trace dense thread index
  bool instant = false;
  /// Ended on another thread than the one that began it (a wall-clock
  /// exec span ends when its call lands), so it may overlap spans begun
  /// after it on its lane: Chrome JSON writes it as an async b/e pair.
  bool async = false;
  std::vector<std::pair<std::string, std::string>> tags;

  double duration_s() const { return end_s < 0 ? 0 : end_s - start_s; }
  /// First value recorded for `key`, or "" when absent.
  const std::string& tag(std::string_view key) const;
  bool has_tag(std::string_view key) const;
};

/// Escapes a string for embedding in a JSON string literal.
std::string json_escape(const std::string& text);

class Trace {
 public:
  explicit Trace(std::string query_text);

  const std::string& query() const { return query_; }

  /// Opens a span under `parent` (0 = top level); returns its id (> 0).
  /// Names and categories are string_views (almost always literals), so
  /// call sites never build a temporary std::string just to name a span.
  uint64_t begin(uint64_t parent, std::string_view name,
                 std::string_view category);
  /// Closes a span. Ending twice or ending an unknown id is ignored.
  void end(uint64_t span_id);
  /// Records a point event; returns its id (tags may still be attached).
  uint64_t instant(uint64_t parent, std::string_view name,
                   std::string_view category);

  /// Keys are string_view (literals); values keep the std::string
  /// overload so dynamically built strings move straight into the tag.
  void tag(uint64_t span_id, std::string_view key, std::string value);
  void tag(uint64_t span_id, std::string_view key, double value);
  void tag(uint64_t span_id, std::string_view key, uint64_t value);

  /// Seconds since the trace epoch (steady clock).
  double now_s() const;

  /// Snapshot of all spans recorded so far, in creation order.
  std::vector<Span> spans() const;
  /// Spans with the given name, in creation order.
  std::vector<Span> spans_named(std::string_view name) const;
  /// The first span with the given name, if any.
  bool find_span(std::string_view name, Span* out) const;

  /// Chrome trace format (the acceptance surface: loads in
  /// chrome://tracing). Events are emitted in recording order; their
  /// timestamps are non-decreasing by construction.
  std::string to_json() const;
  /// Compact nested tree form.
  std::string to_compact_json() const;

 private:
  struct Event {
    enum class Phase { Begin, End, Instant } phase;
    size_t span_index;  ///< into spans_
    double ts_s;
  };

  uint64_t thread_index_locked();

  std::string query_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<Event> events_;
  std::unordered_map<std::thread::id, uint64_t> threads_;
  uint64_t next_id_ = 1;
};

/// The {trace, parent span} pair threaded through the query pipeline.
/// Default-constructed means "tracing off": every instrumentation site
/// checks `if (obs)` — one pointer test — before doing any work.
struct ObsContext {
  Trace* trace = nullptr;
  uint64_t span = 0;  ///< parent span for anything recorded below here

  explicit operator bool() const { return trace != nullptr; }
  /// The same trace re-rooted under `span_id`.
  ObsContext under(uint64_t span_id) const { return {trace, span_id}; }
};

/// RAII span: begins on construction (no-op when the context is off),
/// ends on destruction. Movable so it can cross scopes.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  /// string_view name/category: when tracing is off, constructing the
  /// span allocates nothing at all.
  ScopedSpan(ObsContext obs, std::string_view name, std::string_view category)
      : trace_(obs.trace) {
    if (trace_ != nullptr) {
      id_ = trace_->begin(obs.span, name, category);
    }
  }
  ScopedSpan(ScopedSpan&& other) noexcept
      : trace_(std::exchange(other.trace_, nullptr)),
        id_(std::exchange(other.id_, 0)) {}
  ScopedSpan& operator=(ScopedSpan&& other) noexcept {
    if (this != &other) {
      finish();
      trace_ = std::exchange(other.trace_, nullptr);
      id_ = std::exchange(other.id_, 0);
    }
    return *this;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { finish(); }

  explicit operator bool() const { return trace_ != nullptr; }
  uint64_t id() const { return id_; }
  /// Context for children of this span.
  ObsContext context() const { return {trace_, id_}; }

  template <typename V>
  void tag(std::string_view key, V value) {
    if (trace_ != nullptr) trace_->tag(id_, key, std::move(value));
  }

  /// Ends the span now (idempotent).
  void finish() {
    if (trace_ != nullptr) {
      trace_->end(id_);
      trace_ = nullptr;
    }
  }

 private:
  Trace* trace_ = nullptr;
  uint64_t id_ = 0;
};

}  // namespace disco::obs
