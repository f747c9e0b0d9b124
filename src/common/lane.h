// Shared QoS lane layer: the per-lane pieces both staged engines build on.
//
// The daemon's per-sink prefetch lanes and the receiver's per-source ingest
// lanes are the same thing: a Lane<T>, i.e. BoundedQueue semantics (rejected
// pushes leave the item with the caller, peak tracked inside push) plus
// per-lane accounting (delivered items/bytes, enqueue/dequeue stalls) and a
// QoS descriptor:
//
//   LaneQos { weight, optional rate cap }
//
// Beside the lane sit two small pieces:
//
//   WeightedCycle  — the deficit-weighted-round-robin core. Every visit
//                    refills a slot's deficit by its weight; serving costs
//                    one unit; a slot that is not ready forfeits its deficit
//                    (an idle lane banks nothing). Over any backlogged
//                    window each lane's service share converges to
//                    weight_i / Σ weight. Not thread-safe: each engine runs
//                    one under its admission mutex, the daemon to pick the
//                    sink lane whose next encode job enters the pool, the
//                    receiver to pick the source lane whose head payload
//                    enters the decode window.
//
//   RatePacer      — the token bucket behind LaneQos::rate_per_sec
//                    (items/sec, burst of rate/20, i.e. 50 ms). Each engine
//                    paces at one edge: the daemon's sender thread before
//                    each send, the receiver's ingest thread before each
//                    push. Every item is paced, an epoch's tail included,
//                    and no queued item is ever throttled, so a capped lane
//                    never holds back an arbiter. stop() ends the pacing at
//                    once (shutdown, a failed lane).
//
// Counter convention: all lane counters are independent relaxed atomics —
// see obs/metrics.h. Locking discipline is machine-checked
// (common/thread_annotations.h): queue and bucket state is
// EMLIO_GUARDED_BY(mu_).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace emlio {

/// Per-lane QoS descriptor, threaded from the config layers down to the
/// queues (DaemonConfig/ReceiverConfig, set by --lane-weight / --lane-rate
/// on the tools).
struct LaneQos {
  /// Weighted-fair share. Clamped to >= 1 wherever it is consumed; a lane
  /// with weight W gets W / Σ weights of the contended resource.
  std::uint32_t weight = 1;
  /// Rate cap in items/sec, paced by a RatePacer at the engine's edge (the
  /// daemon's send, the receiver's ingest push); 0 = none.
  std::uint64_t rate_per_sec = 0;
};

// LaneStats' metrics (obs/metrics.h). A Lane increments the counters
// sub-list; Lane::stats() reads the rest at snapshot time.
#define EMLIO_LANE_COUNTERS(M)                                                          \
  M(std::uint64_t, delivered_items, kCounter) /* items popped off the lane */           \
  M(std::uint64_t, delivered_bytes, kCounter) /* bytes the consumer attributed to it */ \
  M(std::uint64_t, enqueue_stalls, kCounter)  /* producer found the lane full */        \
  M(std::uint64_t, dequeue_stalls, kCounter)  /* consumer found the lane empty */

#define EMLIO_LANE_STATS(M)                                                         \
  M(std::string, name, kLabel)                                                      \
  M(std::uint32_t, weight, kGauge)                                                  \
  M(std::uint64_t, rate_per_sec, kGauge)                                            \
  EMLIO_LANE_COUNTERS(M)                                                            \
  M(std::uint64_t, queue_peak_depth, kGauge) /* max occupancy seen (inside push) */ \
  M(bool, closed, kGauge)

/// Point-in-time per-lane counters, snapshot by Lane::stats() and surfaced
/// as the `lanes` array of DaemonStats/ReceiverStats.
struct LaneStats {
  EMLIO_METRICS(EMLIO_LANE_STATS)
};

/// Fold `add` into `into` — counters sum, peaks max, identity fields come
/// from `add` when `into` is fresh. Used when an engine retires a lane into
/// its lifetime per-tenant totals.
inline void accumulate(LaneStats& into, const LaneStats& add) {
  if (into.name.empty()) {
    into.name = add.name;
    into.weight = add.weight;
    into.rate_per_sec = add.rate_per_sec;
  }
  into.delivered_items += add.delivered_items;
  into.delivered_bytes += add.delivered_bytes;
  into.enqueue_stalls += add.enqueue_stalls;
  into.dequeue_stalls += add.dequeue_stalls;
  into.queue_peak_depth = std::max(into.queue_peak_depth, add.queue_peak_depth);
  into.closed = add.closed;
}

/// Deficit-weighted round-robin arbiter core. See the header comment.
class WeightedCycle {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  /// Register one slot; its index is the add order. A fresh slot starts with
  /// a full deficit so the first pick cycle can serve it.
  void add(std::uint32_t weight) {
    Slot s;
    s.weight = std::max<std::uint32_t>(weight, 1);
    s.deficit = static_cast<double>(s.weight);
    slots_.push_back(s);
  }

  std::size_t size() const { return slots_.size(); }

  /// Pick the next slot to serve among those `ready(i)` returns true for,
  /// charging one unit of its deficit; npos when none is ready. The cursor
  /// stays on a slot while it remains ready and funded (burst ≤ weight),
  /// refills a slot's deficit by its weight on every fresh arrival, and
  /// zeroes the deficit of not-ready slots so idle lanes cannot bank
  /// credit. Bounded: at most two sweeps over the slots.
  template <typename ReadyFn>
  std::size_t pick(ReadyFn&& ready) {
    const std::size_t n = slots_.size();
    if (n == 0) return npos;
    for (std::size_t hops = 0; hops <= 2 * n; ++hops) {
      Slot& s = slots_[cursor_];
      if (ready(cursor_)) {
        if (s.deficit >= 1.0) {
          s.deficit -= 1.0;
          return cursor_;
        }
      } else {
        s.deficit = 0.0;  // idle forfeits; credit never accrues off-backlog
      }
      cursor_ = (cursor_ + 1) % n;
      Slot& next = slots_[cursor_];
      next.deficit = std::min(next.deficit + static_cast<double>(next.weight),
                              2.0 * static_cast<double>(next.weight));
    }
    return npos;
  }

 private:
  struct Slot {
    double deficit = 0.0;
    std::uint32_t weight = 1;
  };
  std::vector<Slot> slots_;
  std::size_t cursor_ = 0;
};

template <typename T>
class Lane {
 public:
  Lane(std::string name, std::size_t capacity, LaneQos qos = {})
      : name_(std::move(name)), capacity_(capacity ? capacity : 1), qos_(qos) {
    qos_.weight = std::max<std::uint32_t>(qos_.weight, 1);
  }

  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  const std::string& name() const { return name_; }
  const LaneQos& qos() const { return qos_; }
  std::size_t capacity() const { return capacity_; }

  /// Blocking push; BoundedQueue contract: true = accepted (item moved out),
  /// false = closed (item untouched, recoverable). A full lane at entry
  /// counts one enqueue stall.
  bool push(T& item) {
    {
      MutexLock lock(mu_);
      if (items_.size() >= capacity_ && !closed_) {
        counters_.enqueue_stalls.fetch_add(1, std::memory_order_relaxed);
      }
      while (items_.size() >= capacity_ && !closed_) not_full_.wait(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
      if (items_.size() > peak_) peak_ = items_.size();
    }
    not_empty_.notify_one();
    return true;
  }

  bool push(T&& item) { return push(static_cast<T&>(item)); }

  /// Non-blocking push; same recovery contract. Does NOT count a stall —
  /// callers with their own dedup (the daemon's pump counts once per head
  /// batch) use note_enqueue_stall().
  bool try_push(T& item) {
    {
      MutexLock lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      if (items_.size() > peak_) peak_ = items_.size();
    }
    not_empty_.notify_one();
    return true;
  }

  bool try_push(T&& item) { return try_push(static_cast<T&>(item)); }

  /// Blocking pop. Empty at entry counts one dequeue stall. nullopt =
  /// closed and drained.
  std::optional<T> pop() {
    std::optional<T> item;
    {
      MutexLock lock(mu_);
      if (items_.empty() && !closed_) {
        counters_.dequeue_stalls.fetch_add(1, std::memory_order_relaxed);
      }
      while (items_.empty() && !closed_) not_empty_.wait(mu_);
      if (items_.empty()) return item;
      item.emplace(take_front_locked());
    }
    not_full_.notify_one();
    return item;
  }

  /// Non-blocking pop for a consumer that arbitrates several lanes itself
  /// (the receiver's admission): the head, or nullopt when the lane is
  /// empty. Counts no stall.
  std::optional<T> try_pop() {
    std::optional<T> item;
    {
      MutexLock lock(mu_);
      if (items_.empty()) return item;
      item.emplace(take_front_locked());
    }
    not_full_.notify_one();
    return item;
  }

  /// Close: pending and future pushes fail, pops drain then nullopt.
  void close() {
    {
      MutexLock lock(mu_);
      if (closed_) return;
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    MutexLock lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    MutexLock lock(mu_);
    return items_.size();
  }

  /// Producer-side stall with caller-owned dedup (see try_push).
  void note_enqueue_stall() { counters_.enqueue_stalls.fetch_add(1, std::memory_order_relaxed); }
  /// The lane cannot know T's wire size; the consumer attributes bytes.
  void add_delivered_bytes(std::uint64_t n) {
    counters_.delivered_bytes.fetch_add(n, std::memory_order_relaxed);
  }

  LaneStats stats() const {
    LaneStats s;
    s.name = name_;
    s.weight = qos_.weight;
    s.rate_per_sec = qos_.rate_per_sec;
    counters_.load_into(s);
    {
      MutexLock lock(mu_);
      s.queue_peak_depth = peak_;
      s.closed = closed_;
    }
    return s;
  }

 private:
  /// Detach the head (the caller verified it exists) and count the delivery.
  /// Pure under-the-lock helper — the caller notifies not_full_ after the
  /// lock drops.
  T take_front_locked() EMLIO_REQUIRES(mu_) {
    T item = std::move(items_.front());
    items_.pop_front();
    counters_.delivered_items.fetch_add(1, std::memory_order_relaxed);
    return item;
  }

  const std::string name_;
  const std::size_t capacity_;
  LaneQos qos_;

  mutable Mutex mu_;
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<T> items_ EMLIO_GUARDED_BY(mu_);
  std::size_t peak_ EMLIO_GUARDED_BY(mu_) = 0;
  bool closed_ EMLIO_GUARDED_BY(mu_) = false;

  struct Counters {
    EMLIO_COUNTER_BLOCK(EMLIO_LANE_COUNTERS)
  };
  Counters counters_;
};

/// Token bucket pacing one edge at LaneQos::rate_per_sec items/sec, with a
/// burst of rate/20 (at least one item). See the header comment.
class RatePacer {
 public:
  using ClockT = std::chrono::steady_clock;

  /// rate_per_sec == 0: uncapped, pace() never waits.
  explicit RatePacer(std::uint64_t rate_per_sec)
      : rate_(static_cast<double>(rate_per_sec)),
        burst_(std::max(1.0, rate_ / 20.0)),
        tokens_(burst_),
        last_refill_(ClockT::now()) {}

  RatePacer(const RatePacer&) = delete;
  RatePacer& operator=(const RatePacer&) = delete;

  /// Take one token, waiting for it to mature. Returns at once when
  /// uncapped or stopped.
  void pace() {
    if (rate_ == 0.0) return;
    MutexLock lock(mu_);
    while (!stopped_) {
      const auto now = ClockT::now();
      const double elapsed = std::chrono::duration<double>(now - last_refill_).count();
      tokens_ = std::min(burst_, tokens_ + elapsed * rate_);
      last_refill_ = now;
      if (tokens_ >= 1.0) {
        tokens_ -= 1.0;
        return;
      }
      const std::chrono::duration<double> wait((1.0 - tokens_) / rate_);
      cv_.wait_until(mu_, now + std::chrono::duration_cast<ClockT::duration>(wait));
    }
  }

  /// Stop pacing for good: the pending and every later pace() return at
  /// once.
  void stop() {
    {
      MutexLock lock(mu_);
      stopped_ = true;
    }
    cv_.notify_all();
  }

 private:
  const double rate_;
  const double burst_;
  Mutex mu_;
  CondVar cv_;
  double tokens_ EMLIO_GUARDED_BY(mu_);
  ClockT::time_point last_refill_ EMLIO_GUARDED_BY(mu_);
  bool stopped_ EMLIO_GUARDED_BY(mu_) = false;
};

}  // namespace emlio
