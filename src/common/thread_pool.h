// Worker pool mirroring the paper's ThreadPoolExecutor usage (Algorithm 2
// launches T SendWorker threads per node through one). Like that executor,
// it is sized once: the worker count is fixed at construction.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace emlio {

/// The ONE auto pool-width rule, shared by both engines' pools
/// (pool_threads/decode_threads = 0): this host's hardware concurrency
/// clamped to [2, 8].
inline std::size_t auto_pool_width() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 2, 8);
}

/// FIFO thread pool. Tasks are std::function<void()>; submit() also offers a
/// future-returning overload for joins with results.
class ThreadPool {
 public:
  /// Spawn `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a fire-and-forget task.
  void post(std::function<void()> task);

  /// Enqueue a task and get a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    post([task] { (*task)(); });
    return fut;
  }

  /// Block until every queued task has finished executing.
  void wait_idle();

  /// Worker count, fixed at construction.
  std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop();

  Mutex mutex_;
  CondVar cv_;
  CondVar idle_cv_;
  std::deque<std::function<void()>> tasks_ EMLIO_GUARDED_BY(mutex_);
  std::size_t active_ EMLIO_GUARDED_BY(mutex_) = 0;  ///< workers running a task
  bool stop_ EMLIO_GUARDED_BY(mutex_) = false;
  /// Filled by the constructor and never resized: workers never touch it.
  std::vector<std::thread> workers_;
};

}  // namespace emlio
