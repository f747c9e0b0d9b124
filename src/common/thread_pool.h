// Worker pool mirroring the paper's ThreadPoolExecutor usage (Algorithm 2
// launches T SendWorker threads per node through one). Like that executor,
// it is sized once: the worker count is fixed at construction.
//
// It serves its posters round-robin. Each poster posts into its own queue,
// and a free worker takes the head of the next non-empty queue after the
// one served last, so a poster with a deep backlog (a daemon lane filling
// its whole admission window at an epoch start) delays another poster's
// next task by at most one task per queue, not by its whole backlog. Within
// a queue tasks run in the order posted. Workers name themselves
// emlio-pool<i> (common/thread_name.h).
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

/// The auto pool-width rule (DaemonConfig::pool_threads = 0): this host's
/// hardware concurrency clamped to [2, 8]. The daemon's encode pool is the
/// one engine pool it sizes.
inline std::size_t auto_pool_width() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 2, 8);
}

/// Round-robin thread pool over FIFO task queues (see the header comment).
/// Tasks are std::function<void()>; plain post() and submit() use queue 0,
/// the default queue.
class ThreadPool {
 public:
  /// Spawn `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a fire-and-forget task on the default queue.
  void post(std::function<void()> task) { post(0, std::move(task)); }
  /// Enqueue a fire-and-forget task on queue `queue`, its poster's own
  /// small index; a queue exists from its first post.
  void post(std::size_t queue, std::function<void()> task);

  /// Enqueue a task on the default queue and get a future for its result.
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
  std::vector<std::deque<std::function<void()>>> queues_ EMLIO_GUARDED_BY(mutex_);
  std::size_t queued_ EMLIO_GUARDED_BY(mutex_) = 0;  ///< tasks over all queues
  /// Where the next pick starts, taken modulo the queue count at the pick
  /// (queues are added as posters appear).
  std::size_t next_queue_ EMLIO_GUARDED_BY(mutex_) = 0;
  std::size_t active_ EMLIO_GUARDED_BY(mutex_) = 0;  ///< workers running a task
  bool stop_ EMLIO_GUARDED_BY(mutex_) = false;
  /// Filled by the constructor and never resized: workers never touch it.
  std::vector<std::thread> workers_;
};

}  // namespace emlio
