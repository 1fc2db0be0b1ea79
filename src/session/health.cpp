#include "session/health.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"

namespace disco::session {

const char* to_string(CircuitState state) {
  switch (state) {
    case CircuitState::Closed:
      return "closed";
    case CircuitState::Open:
      return "open";
    case CircuitState::HalfOpen:
      return "half-open";
  }
  return "?";
}

SourceHealthTracker::SourceHealthTracker(HealthOptions options, Clock clock)
    : options_(options), clock_(std::move(clock)) {
  internal_check(options_.failure_threshold >= 1,
                 "failure threshold must be at least 1");
  internal_check(options_.ewma_alpha > 0 && options_.ewma_alpha <= 1,
                 "EWMA alpha must be in (0, 1]");
  if (!clock_) {
    // Default: wall seconds since construction.
    clock_ = [start = std::chrono::steady_clock::now()] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
          .count();
    };
  }
}

SourceHealthTracker::Entry& SourceHealthTracker::entry(
    const std::string& repository) {
  auto it = entries_.find(repository);
  if (it == entries_.end()) {
    Entry fresh;
    fresh.state_since_s = now();
    it = entries_.emplace(repository, fresh).first;
  }
  return it->second;
}

void SourceHealthTracker::transition(Entry& e, CircuitState to) {
  e.state = to;
  e.state_since_s = now();
  ++e.transitions;
  e.trial_in_flight = false;
  if (to == CircuitState::Closed) {
    e.consecutive_failures = 0;
  }
}

void SourceHealthTracker::on_outcome(const std::string& repository,
                                     bool available, double latency_s) {
  CircuitState from;
  CircuitState to;
  bool changed = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Entry& e = entry(repository);
    from = e.state;
    const double a = options_.ewma_alpha;
    e.availability = (1 - a) * e.availability + a * (available ? 1.0 : 0.0);
    if (available) {
      ++e.successes;
      e.consecutive_failures = 0;
      e.latency_ewma_s = e.latency_seen
                             ? (1 - a) * e.latency_ewma_s + a * latency_s
                             : latency_s;
      e.latency_seen = true;
      if (e.state != CircuitState::Closed) {
        // A successful call — the half-open trial, or a straggler that
        // landed after the circuit opened — closes the circuit.
        transition(e, CircuitState::Closed);
        changed = true;
      }
    } else {
      ++e.failures;
      ++e.consecutive_failures;
      if (e.state == CircuitState::HalfOpen) {
        // The trial failed: back to Open, cooldown restarts.
        transition(e, CircuitState::Open);
        changed = true;
      } else if (e.state == CircuitState::Closed &&
                 e.consecutive_failures >= options_.failure_threshold) {
        transition(e, CircuitState::Open);
        changed = true;
      }
    }
    to = e.state;
  }
  if (changed) notify(repository, from, to);
}

void SourceHealthTracker::notify(const std::string& repository,
                                 CircuitState from, CircuitState to) {
  if (to == CircuitState::Closed) {
    recovery_epoch_.fetch_add(1, std::memory_order_release);
  }
  std::vector<TransitionListener> listeners;
  {
    std::lock_guard<std::mutex> lock(listener_mutex_);
    listeners = listeners_;
  }
  for (const TransitionListener& listener : listeners) {
    if (listener) listener(repository, from, to);
  }
}

bool SourceHealthTracker::admit(const std::string& repository) {
  bool trial_started = false;
  bool admitted = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Entry& e = entry(repository);
    switch (e.state) {
      case CircuitState::Closed:
        break;
      case CircuitState::Open:
        if (now() - e.state_since_s >= options_.open_cooldown_s) {
          // Cooldown over: this call becomes the half-open trial.
          transition(e, CircuitState::HalfOpen);
          e.trial_in_flight = true;
          trial_started = true;
        } else {
          ++e.short_circuits;
          admitted = false;
        }
        break;
      case CircuitState::HalfOpen:
        if (!e.trial_in_flight) {
          e.trial_in_flight = true;
        } else {
          ++e.short_circuits;
          admitted = false;
        }
        break;
    }
  }
  if (trial_started) {
    notify(repository, CircuitState::Open, CircuitState::HalfOpen);
  }
  return admitted;
}

bool SourceHealthTracker::try_begin_probe(const std::string& repository) {
  bool trial_started = false;
  bool begin = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Entry& e = entry(repository);
    if (e.state == CircuitState::Open &&
        now() - e.state_since_s >= options_.open_cooldown_s) {
      transition(e, CircuitState::HalfOpen);
      e.trial_in_flight = true;
      trial_started = true;
      begin = true;
    } else if (e.state == CircuitState::HalfOpen && !e.trial_in_flight) {
      e.trial_in_flight = true;
      begin = true;
    }
    if (begin) probes_.fetch_add(1, std::memory_order_relaxed);
  }
  if (trial_started) {
    notify(repository, CircuitState::Open, CircuitState::HalfOpen);
  }
  return begin;
}

std::vector<std::string> SourceHealthTracker::tracked_repositories() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> SourceHealthTracker::probe_candidates() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [name, e] : entries_) {
    if (e.state != CircuitState::Closed) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

SourceHealth SourceHealthTracker::health(const std::string& repository) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(repository);
  if (it == entries_.end()) return SourceHealth{};
  const Entry& e = it->second;
  SourceHealth h;
  h.state = e.state;
  h.availability = e.availability;
  h.latency_ewma_s = e.latency_ewma_s;
  h.consecutive_failures = e.consecutive_failures;
  h.successes = e.successes;
  h.failures = e.failures;
  h.short_circuits = e.short_circuits;
  h.transitions = e.transitions;
  h.state_since_s = e.state_since_s;
  return h;
}

CircuitState SourceHealthTracker::state(const std::string& repository) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(repository);
  return it == entries_.end() ? CircuitState::Closed : it->second.state;
}

double SourceHealthTracker::availability(
    const std::string& repository) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(repository);
  if (it == entries_.end()) return 1.0;
  if (it->second.state == CircuitState::Open) return 0.0;
  return it->second.availability;
}

void SourceHealthTracker::set_listener(TransitionListener listener) {
  std::lock_guard<std::mutex> lock(listener_mutex_);
  listeners_.clear();
  listeners_.push_back(std::move(listener));
}

void SourceHealthTracker::add_listener(TransitionListener listener) {
  std::lock_guard<std::mutex> lock(listener_mutex_);
  listeners_.push_back(std::move(listener));
}

size_t SourceHealthTracker::tracked() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

// ------------------------------------------------------------------ Prober --

Prober::Prober(SourceHealthTracker* tracker, double interval_wall_s,
               ProbeFn probe, ResultFn on_result)
    : tracker_(tracker),
      interval_wall_s_(interval_wall_s),
      probe_(std::move(probe)),
      on_result_(std::move(on_result)) {
  internal_check(tracker != nullptr, "prober needs a tracker");
  internal_check(static_cast<bool>(probe_), "prober needs a probe function");
  internal_check(interval_wall_s_ > 0, "probe interval must be positive");
  scheduler_ = std::thread([this] { loop(); });
}

Prober::~Prober() { stop(); }

void Prober::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  wake_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
  // Landings capture `this`; wait them out before the members go away.
  std::unique_lock<std::mutex> lock(mutex_);
  landed_.wait(lock, [this] { return in_flight_ == 0; });
}

void Prober::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    wake_.wait_for(lock,
                   std::chrono::duration<double>(interval_wall_s_),
                   [this] { return stopping_; });
    if (stopping_) break;
    sweeps_.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    for (const std::string& repository : tracker_->probe_candidates()) {
      if (!tracker_->try_begin_probe(repository)) continue;
      {
        std::lock_guard<std::mutex> count(mutex_);
        ++in_flight_;
      }
      probe_(repository, [this, repository](const exec::DispatchOutcome& out) {
        tracker_->on_outcome(repository, out.available, out.latency_s);
        if (on_result_) on_result_(repository, out);
        // Notified under the lock: once stop() sees zero, this landing
        // no longer touches the prober.
        std::lock_guard<std::mutex> count(mutex_);
        --in_flight_;
        landed_.notify_all();
      });
    }
    lock.lock();
  }
}

}  // namespace disco::session
