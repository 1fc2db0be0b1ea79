// Fixed-size worker pool for the concurrent executor (exec/).
//
// The paper issues the exec calls of a plan "in parallel" (§4). In
// virtual-time mode that parallelism is an accounting fiction (the
// runtime takes the max over call latencies); in wall-clock mode
// (ExecOptions::workers > 0) it is real: this pool runs the CPU part of
// each source call (breaker, cache lookup, wrapper submit, admission),
// and the ParallelDispatcher's timer thread waits out the network, so a
// mediator overlaps the wrapper CPU work of independent sources on the
// pool and their network waits without bound.
//
// Deliberately simple: a mutex + condition variable around a FIFO of
// type-erased tasks, no work stealing, no dynamic sizing. Tasks are
// coarse (a wrapper submit each), so queue contention is negligible and
// a deterministic FIFO keeps behaviour easy to reason about under
// ThreadSanitizer.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace disco::exec {

class ThreadPool {
 public:
  /// Spawns `workers` threads (at least 1).
  explicit ThreadPool(size_t workers);
  /// Drains queued tasks, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return threads_.size(); }

  /// Enqueues `fn` and returns a future for its result. The future
  /// rethrows any exception `fn` throws. Throws InternalError after the
  /// pool started shutting down.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        std::forward<F>(fn));
    std::future<R> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

  /// Tasks waiting for a worker (for tests and introspection).
  size_t pending() const;

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool stopping_ = false;
};

}  // namespace disco::exec
