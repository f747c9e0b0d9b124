#include "common/thread_pool.h"

#include "common/thread_name.h"

namespace emlio {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] {
      set_thread_name("emlio-pool" + std::to_string(i));
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::post(std::size_t queue, std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    if (queue >= queues_.size()) queues_.resize(queue + 1);
    queues_[queue].push_back(std::move(task));
    ++queued_;
  }
  cv_.notify_one();
}

void ThreadPool::wait_idle() {
  MutexLock lock(mutex_);
  while (queued_ != 0 || active_ != 0) idle_cv_.wait(mutex_);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && queued_ == 0) cv_.wait(mutex_);
      if (queued_ == 0) return;  // stopped and drained
      // The next non-empty queue at or after the cursor; the cursor moves
      // past it, so every backlogged queue is served once per turn.
      std::size_t q = next_queue_ % queues_.size();
      while (queues_[q].empty()) q = (q + 1) % queues_.size();
      next_queue_ = q + 1;
      task = std::move(queues_[q].front());
      queues_[q].pop_front();
      --queued_;
      ++active_;
    }
    task();
    {
      MutexLock lock(mutex_);
      --active_;
      if (queued_ == 0 && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace emlio
