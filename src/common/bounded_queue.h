// Bounded blocking MPMC queue — the backpressure primitive of the whole
// system.
//
// The paper relies on ZeroMQ's high-water mark (HWM=16) to make storage-side
// workers "naturally back off when compute-side queues are full" (§4.5).
// The TCP pull socket's shared queue, the receiver's consumer queue and its
// per-source lanes (common/lane.h, a named BoundedQueue), and the DALI-style
// pipeline's prefetch buffer are instances of this class; the daemon's
// per-sink admission window caps its side the same way. Backpressure thus
// propagates from the GPU all the way to the disk.
//
// The queue counts what its lanes report — pops, blocking pushes that found
// it full, blocking pops that found it empty, peak occupancy — as plain
// fields inside the critical sections push and pop already take; counts()
// reads them under the same lock. try_pop never waits, so it counts no
// stall.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace emlio {

template <typename T>
class BoundedQueue {
 public:
  /// What the queue counted, read under one lock (see the header comment).
  struct Counts {
    std::uint64_t pops = 0;            ///< items taken by pop or try_pop
    std::uint64_t enqueue_stalls = 0;  ///< blocking pushes that found it full
    std::uint64_t dequeue_stalls = 0;  ///< blocking pops that found it empty
    std::size_t peak_depth = 0;        ///< max occupancy, tracked inside push
    bool closed = false;
  };

  /// capacity == the high-water mark; push blocks once `capacity` items wait.
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity ? capacity : 1) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocking push. Returns true when the item was accepted (and moved out
  /// of `item`). Returns false if the queue was closed before space appeared
  /// — in that case `item` is NOT consumed: the caller's object still holds
  /// the value, so a producer that must not lose work can recover it. A full
  /// queue at entry counts one enqueue stall.
  bool push(T& item) {
    {
      MutexLock lock(mutex_);
      if (items_.size() >= capacity_ && !closed_) ++enqueue_stalls_;
      while (items_.size() >= capacity_ && !closed_) not_full_.wait(mutex_);
      if (closed_) return false;  // item untouched, recoverable by the caller
      push_locked(item);
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking push of an rvalue. Same contract: on rejection the referenced
  /// object keeps its value (only accepted items are moved from).
  bool push(T&& item) { return push(static_cast<T&>(item)); }

  /// Blocking pop. Empty optional means the queue was closed and drained.
  /// An empty queue at entry counts one dequeue stall.
  std::optional<T> pop() {
    std::optional<T> item;
    {
      MutexLock lock(mutex_);
      if (items_.empty() && !closed_) ++dequeue_stalls_;
      while (items_.empty() && !closed_) not_empty_.wait(mutex_);
      if (items_.empty()) return std::nullopt;
      item.emplace(pop_locked());
    }
    not_full_.notify_one();
    return item;
  }

  /// Non-blocking pop: the head, or nullopt when the queue is empty. Counts
  /// no stall.
  std::optional<T> try_pop() {
    std::optional<T> item;
    {
      MutexLock lock(mutex_);
      if (items_.empty()) return std::nullopt;
      item.emplace(pop_locked());
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

  Counts counts() const {
    MutexLock lock(mutex_);
    return Counts{pops_, enqueue_stalls_, dequeue_stalls_, peak_, closed_};
  }

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  void push_locked(T& item) EMLIO_REQUIRES(mutex_) {
    items_.push_back(std::move(item));
    if (items_.size() > peak_) peak_ = items_.size();
  }

  T pop_locked() EMLIO_REQUIRES(mutex_) {
    T item = std::move(items_.front());
    items_.pop_front();
    ++pops_;
    return item;
  }

  const std::size_t capacity_;
  mutable Mutex mutex_;
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<T> items_ EMLIO_GUARDED_BY(mutex_);
  std::size_t peak_ EMLIO_GUARDED_BY(mutex_) = 0;
  bool closed_ EMLIO_GUARDED_BY(mutex_) = false;
  std::uint64_t pops_ EMLIO_GUARDED_BY(mutex_) = 0;
  std::uint64_t enqueue_stalls_ EMLIO_GUARDED_BY(mutex_) = 0;
  std::uint64_t dequeue_stalls_ EMLIO_GUARDED_BY(mutex_) = 0;
};

}  // namespace emlio
