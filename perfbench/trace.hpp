// Outside-in tracing for the benchmark's traced runs. Spans are recorded
// by the benchmark around its own calls into each layer's public
// functions, kept in memory, and written out when the run ends. Nothing
// here reaches inside src/: a wrapper span is a decorator registered in
// place of the real wrapper, under the real wrapper's name.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "measure.hpp"
#include "wrapper/wrapper.hpp"

namespace perfbench {

enum class Layer : uint8_t {
  Query,     ///< one traced operation: parse through execute
  Parse,     ///< oql::parse
  Expand,    ///< optimizer::expand_views (a shadow call, part of optimize)
  Optimize,  ///< optimizer::Optimizer::optimize (a shadow call)
  Execute,   ///< Mediator::query(expr)
  Minisql,   ///< wrapper submits, by wrapper kind
  Csv,
  Kvstore,
  Docstore,
  Request,   ///< serve: SUBMIT sent until COMPLETE received
  Ack,       ///< serve: SUBMIT sent until SUBMITTED received
  Push,      ///< serve: SUBMITTED received until COMPLETE received
  Admin,     ///< Mediator::execute_odl
  kCount
};

const char* layer_name(Layer layer);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0: a root, or a pool-thread span not linked
  uint64_t op = 0;      ///< operation id; 0 when not linked to one
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  Layer layer = Layer::Query;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(const Span& span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }
  /// Copy of every span recorded so far.
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }
  /// Writes one line per span: id parent op layer start_ns end_ns.
  bool write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Per-layer self time: a span's duration minus the durations of its
/// child spans, summed per layer over the given operations.
struct SelfTimes {
  std::array<double, static_cast<size_t>(Layer::kCount)> total_us{};
  std::array<uint64_t, static_cast<size_t>(Layer::kCount)> spans{};

  double us(Layer layer) const { return total_us[static_cast<size_t>(layer)]; }
};
SelfTimes self_times(const std::vector<Span>& spans);

/// The operation and parent span a wrapper submit on this thread belongs
/// to. Inactive outside traced operations.
struct SpanContext {
  bool active = false;
  uint64_t op = 0;
  uint64_t parent = 0;
};
SpanContext& current_context();

/// Opens a span on construction and records it on destruction. With a
/// null log it only times.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, Layer layer, uint64_t op, uint64_t parent)
      : log_(log), start_(Clock::now()) {
    if (log == nullptr) return;
    span_.id = log->next_id();
    span_.parent = parent;
    span_.op = op;
    span_.layer = layer;
    span_.start_ns = log->now_ns();
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    span_.end_ns = log_->now_ns();
    log_->record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  int64_t elapsed_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  SpanLog* log_;
  Clock::time_point start_;
  Span span_;
};

/// Times every submit() of the wrapped wrapper. With `all_threads` every
/// call is recorded (serve: submits run on pool threads, unlinked);
/// otherwise only calls made inside an active SpanContext.
class TimingWrapper : public disco::wrapper::Wrapper {
 public:
  TimingWrapper(std::shared_ptr<disco::wrapper::Wrapper> inner, Layer layer,
                SpanLog* log, bool all_threads)
      : inner_(std::move(inner)),
        layer_(layer),
        log_(log),
        all_threads_(all_threads) {}

  disco::grammar::Grammar capabilities() const override {
    return inner_->capabilities();
  }
  disco::wrapper::SubmitResult submit(
      const disco::catalog::Repository& repository,
      const disco::algebra::LogicalPtr& expr,
      const disco::wrapper::BindingMap& bindings) override;
  std::string kind() const override { return inner_->kind(); }
  std::vector<std::pair<std::string, uint64_t>> stat_gauges() const override {
    return inner_->stat_gauges();
  }

  uint64_t calls() const { return calls_.load(); }
  uint64_t rows() const { return rows_.load(); }

 private:
  std::shared_ptr<disco::wrapper::Wrapper> inner_;
  Layer layer_;
  SpanLog* log_;
  bool all_threads_;
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> rows_{0};
};

}  // namespace perfbench
