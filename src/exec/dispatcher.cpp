#include "exec/dispatcher.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace disco::exec {

/// One dispatched call between its attempts: everything the attempt
/// loop carries from one timer entry to the next.
struct ParallelDispatcher::InFlight {
  std::string endpoint;
  size_t result_rows = 0;
  double issue_at = 0;
  double deadline_s = 0;  ///< simulated; query and per-call deadline
  bool probe = false;
  obs::ObsContext obs;
  Landing landing;
  SplitMix64 rng{0};
  Clock::time_point start;
  double backoff_s = 0;  ///< the next backoff, before jitter
  bool landed = false;   ///< the next timer entry lands the call
  DispatchOutcome out;
};

ParallelDispatcher::ParallelDispatcher(ThreadPool* pool,
                                       net::Network* network,
                                       ExecOptions options, Metrics* metrics)
    : pool_(pool), network_(network), options_(options), metrics_(metrics) {
  internal_check(pool != nullptr && network != nullptr && metrics != nullptr,
                 "dispatcher needs a pool, a network and metrics");
  internal_check(options_.retry.max_attempts >= 1,
                 "retry policy needs at least one attempt");
  internal_check(options_.retry.jitter >= 0 && options_.retry.jitter <= 1,
                 "retry jitter must be in [0, 1]");
  internal_check(options_.latency_scale > 0, "latency scale must be > 0");
  timer_ = std::thread([this] { timer_loop(); });
}

ParallelDispatcher::~ParallelDispatcher() {
  {
    std::lock_guard<std::mutex> lock(timer_mutex_);
    stopping_ = true;
  }
  timer_wake_.notify_all();
  timer_.join();
}

void ParallelDispatcher::call(const std::string& endpoint,
                              size_t result_rows, double issue_at,
                              double deadline_s, obs::ObsContext obs,
                              Landing landing) {
  metrics_->on_dispatch();
  auto call = std::make_unique<InFlight>();
  call->endpoint = endpoint;
  call->result_rows = result_rows;
  call->issue_at = issue_at;
  call->deadline_s = deadline_s;
  call->obs = obs;
  call->landing = std::move(landing);
  start(std::move(call));
}

void ParallelDispatcher::probe(const std::string& endpoint, double issue_at,
                               double deadline_s, Landing landing) {
  metrics_->on_probe();
  auto call = std::make_unique<InFlight>();
  call->endpoint = endpoint;
  call->issue_at = issue_at;
  call->deadline_s = deadline_s;
  call->probe = true;
  call->landing = std::move(landing);
  start(std::move(call));
}

size_t ParallelDispatcher::pending() const {
  std::lock_guard<std::mutex> lock(timer_mutex_);
  return timers_.size();
}

ParallelDispatcher::Clock::duration ParallelDispatcher::wall(
    double simulated_s) const {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(simulated_s * options_.latency_scale));
}

void ParallelDispatcher::start(std::unique_ptr<InFlight> call) {
  call->deadline_s = std::min(call->deadline_s, options_.call_deadline_s);
  // Per-call deterministic jitter stream: seeded from a shared counter so
  // no lock is shared between concurrent calls.
  call->rng = SplitMix64(jitter_seed_.fetch_add(0x9e3779b97f4a7c15ULL,
                                                std::memory_order_relaxed));
  call->backoff_s = options_.retry.initial_backoff_s;
  call->start = Clock::now();
  attempt(std::move(call));
}

void ParallelDispatcher::attempt(std::unique_ptr<InFlight> call) {
  const Clock::time_point now = Clock::now();
  const double spent =
      std::chrono::duration<double>(now - call->start).count() /
      options_.latency_scale;
  DispatchOutcome& out = call->out;
  if (spent >= call->deadline_s) {
    out.timed_out = true;
    // This round was attempted and aborted: report it, so a
    // deadline-expired call never surfaces as attempts=0 in metrics,
    // traces and the health feed.
    out.attempts = std::max(out.attempts, 1u);
    return finish(std::move(call), now);
  }
  ++out.attempts;
  const net::CallOutcome reply =
      call->probe
          ? network_->probe(call->endpoint, call->issue_at + spent)
          : network_->call(call->endpoint, call->result_rows,
                           call->issue_at + spent);
  if (reply.available) {
    out.latency_s = reply.latency_s;
    const double remaining = call->deadline_s - spent;
    if (reply.latency_s > remaining) {
      // §4: the reply would land past the designated time — the source
      // is classified unavailable once the deadline has passed.
      out.timed_out = true;
      return finish(std::move(call), now + wall(remaining));
    }
    out.available = true;
    return finish(std::move(call), now + wall(reply.latency_s));
  }
  if (out.attempts == options_.retry.max_attempts) {
    return finish(std::move(call), now);
  }
  // Availability blip: back off (exponential, jittered), bounded by the
  // remaining deadline, then attempt again.
  metrics_->on_retry();
  const RetryPolicy& retry = options_.retry;
  const double jittered =
      call->backoff_s *
      (1.0 + retry.jitter * (2 * call->rng.next_double() - 1));
  // Defense in depth alongside the constructor's jitter check: a
  // negative delay would collapse backoff into a hot retry loop.
  double delay = std::max(0.0, std::min(jittered, retry.max_backoff_s));
  if (call->obs) {
    const uint64_t event =
        call->obs.trace->instant(call->obs.span, "retry", "exec");
    call->obs.trace->tag(event, "attempt", static_cast<uint64_t>(out.attempts));
    call->obs.trace->tag(event, "backoff_s", delay);
  }
  if (std::isfinite(call->deadline_s)) {
    delay = std::min(delay, call->deadline_s - spent);
  }
  call->backoff_s *= retry.backoff_multiplier;
  schedule(now + wall(delay), std::move(call));
}

void ParallelDispatcher::finish(std::unique_ptr<InFlight> call,
                                Clock::time_point due) {
  call->landed = true;
  schedule(due, std::move(call));
}

void ParallelDispatcher::land(std::unique_ptr<InFlight> call) {
  DispatchOutcome& out = call->out;
  out.wall_s =
      std::chrono::duration<double>(Clock::now() - call->start).count();
  metrics_->on_wall(out.wall_s);
  if (!call->probe) {
    if (out.available) {
      metrics_->on_success(call->result_rows, out.latency_s);
    } else {
      metrics_->on_failure(out.timed_out);
    }
  }
  call->landing(out);
}

void ParallelDispatcher::schedule(Clock::time_point due,
                                  std::unique_ptr<InFlight> call) {
  std::lock_guard<std::mutex> lock(timer_mutex_);
  const auto entry = timers_.emplace(due, std::move(call));
  // Only a new earliest entry moves the timer thread's wake-up. Notified
  // under the lock: once the entry is visible the call may land, its
  // query return and the dispatcher be destroyed, so nothing here may
  // touch the dispatcher after the unlock.
  if (entry == timers_.begin()) timer_wake_.notify_one();
}

void ParallelDispatcher::timer_loop() {
  std::unique_lock<std::mutex> lock(timer_mutex_);
  for (;;) {
    timer_wake_.wait(lock, [this] { return stopping_ || !timers_.empty(); });
    if (timers_.empty()) return;  // stopping, and every call has landed
    const Clock::time_point due = timers_.begin()->first;
    if (due > Clock::now()) {
      // Only this thread removes entries, so the queue stays non-empty;
      // wake at `due`, or earlier for a new earliest entry.
      timer_wake_.wait_until(
          lock, due, [&] { return timers_.begin()->first < due; });
      continue;
    }
    std::unique_ptr<InFlight> call =
        std::move(timers_.extract(timers_.begin()).mapped());
    lock.unlock();
    if (call->landed) {
      land(std::move(call));
    } else {
      attempt(std::move(call));
    }
    lock.lock();
  }
}

}  // namespace disco::exec
