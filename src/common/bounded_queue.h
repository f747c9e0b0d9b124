// Bounded blocking MPMC queue — the backpressure primitive of the whole
// system.
//
// The paper relies on ZeroMQ's high-water mark (HWM=16) to make storage-side
// workers "naturally back off when compute-side queues are full" (§4.5).
// The TCP pull socket's shared queue, the receiver's consumer queue and the
// DALI-style pipeline's prefetch buffer are instances of this class, and
// the engines' per-sink and per-source lanes (common/lane.h) keep its
// blocking contract, so backpressure propagates from the GPU all the way to
// the disk.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace emlio {

template <typename T>
class BoundedQueue {
 public:
  /// capacity == the high-water mark; push blocks once `capacity` items wait.
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity ? capacity : 1) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocking push. Returns true when the item was accepted (and moved out
  /// of `item`). Returns false if the queue was closed before space appeared
  /// — in that case `item` is NOT consumed: the caller's object still holds
  /// the value, so a producer that must not lose work can recover it. (The
  /// old contract silently destroyed items rejected by a mid-wait close.)
  bool push(T& item) {
    {
      MutexLock lock(mutex_);
      while (items_.size() >= capacity_ && !closed_) not_full_.wait(mutex_);
      if (closed_) return false;  // item untouched, recoverable by the caller
      items_.push_back(std::move(item));
      if (items_.size() > peak_) peak_ = items_.size();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking push of an rvalue. Same contract: on rejection the referenced
  /// object keeps its value (only accepted items are moved from).
  bool push(T&& item) { return push(static_cast<T&>(item)); }

  /// Non-blocking push. Returns false when full or closed; `item` keeps its
  /// value on rejection (same recovery contract as push).
  bool try_push(T& item) {
    {
      MutexLock lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      if (items_.size() > peak_) peak_ = items_.size();
    }
    not_empty_.notify_one();
    return true;
  }

  bool try_push(T&& item) { return try_push(static_cast<T&>(item)); }

  /// Blocking pop. Empty optional means the queue was closed and drained.
  std::optional<T> pop() {
    std::optional<T> item;
    {
      MutexLock lock(mutex_);
      while (items_.empty() && !closed_) not_empty_.wait(mutex_);
      if (items_.empty()) return std::nullopt;
      item.emplace(std::move(items_.front()));
      items_.pop_front();
    }
    not_full_.notify_one();
    return item;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::optional<T> item;
    {
      MutexLock lock(mutex_);
      if (items_.empty()) return std::nullopt;
      item.emplace(std::move(items_.front()));
      items_.pop_front();
    }
    not_full_.notify_one();
    return item;
  }

  /// Close the queue: pending and future pushes fail, pops drain then return
  /// nullopt. Idempotent.
  void close() {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    MutexLock lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    MutexLock lock(mutex_);
    return items_.size();
  }

  /// High-water mark of occupancy, maintained inside push under the lock it
  /// already holds — producers that used to re-lock the queue after every
  /// push just to sample size() read this once, on the cold stats path.
  std::size_t peak_depth() const {
    MutexLock lock(mutex_);
    return peak_;
  }

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_;
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<T> items_ EMLIO_GUARDED_BY(mutex_);
  std::size_t peak_ EMLIO_GUARDED_BY(mutex_) = 0;
  bool closed_ EMLIO_GUARDED_BY(mutex_) = false;
};

}  // namespace emlio
