#include "common/thread_pool.h"

namespace emlio {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
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

void ThreadPool::post(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::wait_idle() {
  MutexLock lock(mutex_);
  while (!tasks_.empty() || active_ != 0) idle_cv_.wait(mutex_);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && tasks_.empty()) cv_.wait(mutex_);
      if (tasks_.empty()) return;  // stopped and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
      ++active_;
    }
    task();
    {
      MutexLock lock(mutex_);
      --active_;
      if (tasks_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace emlio
