#include "sched/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace disco::sched {

QueryScheduler::QueryScheduler(SchedOptions options, double latency_scale,
                               exec::Metrics* metrics)
    : options_(std::move(options)),
      latency_scale_(latency_scale),
      metrics_(metrics) {
  internal_check(options_.per_endpoint_limit >= 1,
                 "sched: per_endpoint_limit must be >= 1");
  internal_check(latency_scale_ > 0, "sched: latency_scale must be > 0");
  for (const auto& [name, limit] : options_.limits) {
    internal_check(limit >= 1, "sched: per-endpoint limit override must "
                               "be >= 1");
  }
}

QueryScheduler::Ep& QueryScheduler::entry(const std::string& endpoint) {
  {
    std::shared_lock<std::shared_mutex> lock(registry_mutex_);
    auto it = endpoints_.find(endpoint);
    if (it != endpoints_.end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> lock(registry_mutex_);
  auto it = endpoints_.find(endpoint);
  if (it == endpoints_.end()) {
    size_t limit = options_.per_endpoint_limit;
    auto ov = options_.limits.find(endpoint);
    if (ov != options_.limits.end()) limit = ov->second;
    it = endpoints_.emplace(endpoint, std::make_unique<Ep>(limit)).first;
  }
  return *it->second;
}

const QueryScheduler::Ep* QueryScheduler::find(
    const std::string& endpoint) const {
  std::shared_lock<std::shared_mutex> lock(registry_mutex_);
  auto it = endpoints_.find(endpoint);
  return it == endpoints_.end() ? nullptr : it->second.get();
}

QueryScheduler::Admission QueryScheduler::admit(const std::string& endpoint,
                                                uint64_t query_id,
                                                double deadline_s) {
  Ep& ep = entry(endpoint);
  Admission out;

  std::unique_lock<std::mutex> lock(ep.mutex);

  // Fast path: a token is free and nobody is ahead of us.
  if (ep.queued == 0 && ep.in_flight < ep.limit) {
    ++ep.in_flight;
    ep.max_in_flight = std::max(ep.max_in_flight, ep.in_flight);
    ++ep.admitted;
    out.admitted = true;
    out.permit = Permit(this, &ep);
    return out;
  }

  // Bounded queue: overflow sheds immediately, without blocking.
  if (ep.queued >= options_.queue_capacity) {
    ++ep.shed;
    ++ep.shed_queue_full;
    if (metrics_) metrics_->on_shed();
    out.shed_reason = ShedReason::QueueFull;
    return out;
  }

  // Enqueue under our query's FIFO; register the query in the
  // round-robin ring on its first waiter.
  auto waiter = std::make_shared<Waiter>(query_id);
  auto& fifo = ep.by_query[query_id];
  if (fifo.empty()) ep.rr.push_back(query_id);
  fifo.push_back(waiter);
  ++ep.queued;
  ep.max_queued = std::max(ep.max_queued, ep.queued);
  ++ep.queued_calls;

  const double cap_sim_s = std::min(options_.queue_deadline_s, deadline_s);
  const auto started = std::chrono::steady_clock::now();
  bool done;
  if (std::isfinite(cap_sim_s)) {
    const auto wall_cap = std::chrono::duration<double>(
        std::max(0.0, cap_sim_s) * latency_scale_);
    done = waiter->cv.wait_for(lock, wall_cap, [&] {
      return waiter->state != Waiter::State::Waiting;
    });
  } else {
    waiter->cv.wait(lock,
                    [&] { return waiter->state != Waiter::State::Waiting; });
    done = true;
  }
  const double waited_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  // Report the wait in simulated seconds, the unit every other latency
  // in the system uses.
  out.queued_s = waited_wall_s / latency_scale_;
  ep.queue_wait_s += out.queued_s;
  if (metrics_) metrics_->on_queued(out.queued_s);

  if (!done && waiter->state == Waiter::State::Waiting) {
    // Queueing deadline expired before a grant; take ourselves out of
    // the queue (grant_next_locked can no longer pick us).
    unlink_locked(ep, waiter);
    ++ep.shed;
    ++ep.shed_deadline;
    if (metrics_) metrics_->on_shed();
    out.shed_reason = ShedReason::Deadline;
    return out;
  }

  if (waiter->state == Waiter::State::Granted) {
    // The releaser already transferred the token to us (in_flight was
    // incremented on our behalf under this same mutex).
    ++ep.admitted;
    out.admitted = true;
    out.permit = Permit(this, &ep);
    return out;
  }

  // Shed by drain(): the circuit opened while we were queued.
  ++ep.shed;
  ++ep.shed_drained;
  if (metrics_) metrics_->on_shed();
  out.shed_reason = ShedReason::Drained;
  return out;
}

void QueryScheduler::Permit::release() {
  if (scheduler_ == nullptr) return;
  QueryScheduler* scheduler = std::exchange(scheduler_, nullptr);
  Ep* endpoint = std::exchange(endpoint_, nullptr);
  scheduler->release(*endpoint);
}

void QueryScheduler::release(Ep& ep) {
  std::lock_guard<std::mutex> lock(ep.mutex);
  --ep.in_flight;
  grant_next_locked(ep);
}

void QueryScheduler::grant_next_locked(Ep& ep) {
  while (ep.in_flight < ep.limit && !ep.rr.empty()) {
    // Round-robin across query ids: the query at the front of the ring
    // gets one grant, then moves to the back if it still has waiters.
    uint64_t qid = ep.rr.front();
    ep.rr.pop_front();
    auto it = ep.by_query.find(qid);
    auto& fifo = it->second;
    std::shared_ptr<Waiter> waiter = std::move(fifo.front());
    fifo.pop_front();
    if (fifo.empty()) {
      ep.by_query.erase(it);
    } else {
      ep.rr.push_back(qid);
    }
    --ep.queued;
    // Token transfer: the slot is occupied from this instant, even
    // though the waiter's thread has not woken yet — in_flight can
    // therefore never overshoot the limit.
    ++ep.in_flight;
    ep.max_in_flight = std::max(ep.max_in_flight, ep.in_flight);
    waiter->state = Waiter::State::Granted;
    waiter->cv.notify_one();
  }
}

void QueryScheduler::unlink_locked(Ep& ep,
                                   const std::shared_ptr<Waiter>& waiter) {
  auto it = ep.by_query.find(waiter->query_id);
  if (it == ep.by_query.end()) return;
  auto& fifo = it->second;
  auto pos = std::find(fifo.begin(), fifo.end(), waiter);
  if (pos == fifo.end()) return;
  fifo.erase(pos);
  --ep.queued;
  if (fifo.empty()) {
    ep.by_query.erase(it);
    auto rr_pos = std::find(ep.rr.begin(), ep.rr.end(), waiter->query_id);
    if (rr_pos != ep.rr.end()) ep.rr.erase(rr_pos);
  }
}

void QueryScheduler::drain(const std::string& endpoint) {
  // const_cast-free lookup: drain mutates the endpoint, so use entry()
  // semantics but without creating state for endpoints never admitted.
  Ep* ep = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mutex_);
    auto it = endpoints_.find(endpoint);
    if (it != endpoints_.end()) ep = it->second.get();
  }
  if (ep == nullptr) return;

  std::lock_guard<std::mutex> lock(ep->mutex);
  for (auto& [qid, fifo] : ep->by_query) {
    for (auto& waiter : fifo) {
      waiter->state = Waiter::State::Shed;
      waiter->cv.notify_one();
    }
  }
  // The woken waiters account their own shed counters on the way out;
  // here we only empty the structures so new arrivals see a fresh queue.
  ep->by_query.clear();
  ep->rr.clear();
  ep->queued = 0;
}

void QueryScheduler::set_limit(const std::string& endpoint, size_t limit) {
  internal_check(limit >= 1, "sched: limit must be >= 1");
  Ep& ep = entry(endpoint);
  std::lock_guard<std::mutex> lock(ep.mutex);
  ep.limit = limit;
  grant_next_locked(ep);  // a raised limit frees tokens right away
}

size_t QueryScheduler::limit(const std::string& endpoint) const {
  if (const Ep* ep = find(endpoint)) {
    std::lock_guard<std::mutex> lock(ep->mutex);
    return ep->limit;
  }
  auto ov = options_.limits.find(endpoint);
  return ov != options_.limits.end() ? ov->second
                                     : options_.per_endpoint_limit;
}

EndpointSchedStats QueryScheduler::endpoint_stats(
    const std::string& endpoint) const {
  EndpointSchedStats out;
  const Ep* ep = find(endpoint);
  if (ep == nullptr) {
    out.limit = limit(endpoint);
    return out;
  }
  std::lock_guard<std::mutex> lock(ep->mutex);
  out.limit = ep->limit;
  out.in_flight = ep->in_flight;
  out.queued = ep->queued;
  out.max_in_flight = ep->max_in_flight;
  out.max_queued = ep->max_queued;
  out.admitted = ep->admitted;
  out.queued_calls = ep->queued_calls;
  out.shed = ep->shed;
  out.shed_queue_full = ep->shed_queue_full;
  out.shed_deadline = ep->shed_deadline;
  out.shed_drained = ep->shed_drained;
  out.queue_wait_s = ep->queue_wait_s;
  return out;
}

SchedStats QueryScheduler::totals() const {
  std::vector<std::string> names;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mutex_);
    names.reserve(endpoints_.size());
    for (const auto& [name, ep] : endpoints_) names.push_back(name);
  }
  SchedStats out;
  for (const auto& name : names) out += endpoint_stats(name);
  return out;
}

}  // namespace disco::sched
