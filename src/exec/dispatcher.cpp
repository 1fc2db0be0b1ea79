#include "exec/dispatcher.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace disco::exec {

namespace {

void wait_wall(double seconds) {
  if (seconds <= 0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace

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
}

DispatchOutcome ParallelDispatcher::call(const std::string& endpoint,
                                         size_t result_rows, double issue_at,
                                         double deadline_s,
                                         obs::ObsContext obs) {
  return dispatch(endpoint, result_rows, issue_at, deadline_s,
                  /*probe=*/false, obs);
}

DispatchOutcome ParallelDispatcher::probe(const std::string& endpoint,
                                          double issue_at,
                                          double deadline_s) {
  return dispatch(endpoint, /*result_rows=*/0, issue_at, deadline_s,
                  /*probe=*/true, {});
}

DispatchOutcome ParallelDispatcher::dispatch(const std::string& endpoint,
                                             size_t result_rows,
                                             double issue_at,
                                             double deadline_s, bool probe,
                                             obs::ObsContext obs) {
  if (probe) {
    metrics_->on_probe();
  } else {
    metrics_->on_dispatch();
  }
  const double deadline = std::min(deadline_s, options_.call_deadline_s);
  // Per-call deterministic jitter stream: seeded from a shared counter so
  // no lock is shared between concurrent calls.
  SplitMix64 rng(jitter_seed_.fetch_add(0x9e3779b97f4a7c15ULL,
                                        std::memory_order_relaxed));
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() /
           options_.latency_scale;
  };

  DispatchOutcome out;
  double backoff = options_.retry.initial_backoff_s;
  for (uint32_t attempt = 1; attempt <= options_.retry.max_attempts;
       ++attempt) {
    double spent = elapsed();
    if (spent >= deadline) {
      out.timed_out = true;
      // This round was attempted and aborted: report it, so a
      // deadline-expired call never surfaces as attempts=0 in metrics,
      // traces and the health feed.
      out.attempts = std::max(out.attempts, 1u);
      break;
    }
    out.attempts = attempt;
    net::CallOutcome reply =
        probe ? network_->probe(endpoint, issue_at + spent)
              : network_->call(endpoint, result_rows, issue_at + spent);
    if (reply.available) {
      double remaining = deadline - spent;
      if (reply.latency_s > remaining) {
        // §4: the reply would land past the designated time — the source
        // is classified unavailable; we waited the deadline out.
        out.timed_out = true;
        if (std::isfinite(remaining)) {
          wait_wall(remaining * options_.latency_scale);
        }
        break;
      }
      wait_wall(reply.latency_s * options_.latency_scale);
      out.available = true;
      out.latency_s = reply.latency_s;
      break;
    }
    if (attempt == options_.retry.max_attempts) break;
    // Availability blip: back off (exponential, jittered), bounded by the
    // remaining deadline, then retry.
    metrics_->on_retry();
    double jittered =
        backoff * (1.0 + options_.retry.jitter * (2 * rng.next_double() - 1));
    // Defense in depth alongside the constructor's jitter check: a
    // negative delay would collapse backoff into a hot retry loop.
    double delay =
        std::max(0.0, std::min(jittered, options_.retry.max_backoff_s));
    if (obs) {
      const uint64_t event = obs.trace->instant(obs.span, "retry", "exec");
      obs.trace->tag(event, "attempt", static_cast<uint64_t>(attempt));
      obs.trace->tag(event, "backoff_s", delay);
    }
    if (std::isfinite(deadline)) {
      delay = std::min(delay, deadline - elapsed());
    }
    wait_wall(delay * options_.latency_scale);
    backoff *= options_.retry.backoff_multiplier;
  }

  out.wall_s = elapsed() * options_.latency_scale;
  metrics_->on_wall(out.wall_s);
  if (out.available) {
    if (!probe) metrics_->on_success(result_rows, out.latency_s);
  } else {
    if (!probe) metrics_->on_failure(out.timed_out);
  }
  return out;
}

}  // namespace disco::exec
