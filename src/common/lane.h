// Shared QoS lane layer — the one per-lane abstraction both staged engines
// build on.
//
// The daemon's per-sink prefetch lanes and the receiver's per-source ingest
// lanes evolved the same machinery twice: a bounded queue, stall counters, a
// peak-depth gauge. A Lane unifies them — BoundedQueue semantics (rejected
// pushes leave the item with the caller, peak tracked inside push) plus
// per-lane accounting (delivered items/bytes, enqueue/dequeue stalls) and a
// QoS descriptor:
//
//   LaneQos { weight, optional rate limit }
//
// On top sit two arbitration pieces:
//
//   WeightedCycle  — the deficit-weighted-round-robin core. Every visit
//                    refills a slot's deficit by its weight; serving costs
//                    one unit; a slot that is not ready forfeits its deficit
//                    (an idle lane banks nothing). Over any backlogged
//                    window each lane's service share converges to
//                    weight_i / Σ weight. Not thread-safe — callers arbitrate
//                    under their own lock (the daemon runs one under its
//                    admission mutex to pick which sink lane gets the next
//                    encode job).
//
//   LaneScheduler  — a blocking weighted-fair drainer over N lanes: pop()
//                    returns the next item by DWRR order, skipping empty,
//                    rate-throttled and closed lanes, and returns nullopt
//                    only when every lane is closed and drained. Designed
//                    for a single consumer thread (the receiver's dispatch
//                    stage); producers are unrestricted.
//
// Rate limiting is a per-lane token bucket (LaneQos::rate_per_sec items/sec,
// burst of rate/20, i.e. 50 ms) charged at the consuming edge — pop() waits
// for a token, the scheduler skips the lane until its next token matures. A
// closed lane drains without rate limiting so shutdown stays prompt.
//
// Counter convention: all lane counters are independent relaxed atomics —
// see obs/metrics.h. Locking discipline is machine-checked
// (common/thread_annotations.h): queue and token-bucket state is
// EMLIO_GUARDED_BY(mu_), scheduler state by the shared hub's mutex.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace emlio {

/// Per-lane QoS descriptor, threaded from the config layers down to the
/// queues (DaemonConfig/ReceiverConfig → ServiceConfig → --lane-weight /
/// --lane-rate on the tools).
struct LaneQos {
  /// Weighted-fair share. Clamped to >= 1 wherever it is consumed; a lane
  /// with weight W gets W / Σ weights of the contended resource.
  std::uint32_t weight = 1;
  /// Token-bucket rate limit in items/sec at the consuming edge; 0 = none.
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

/// Wakeup hub shared by every lane a LaneScheduler drains: a push or close on
/// any lane bumps `events` (under mu, after the lane releases its own lock)
/// and signals the scheduler, which waits on "events changed" — the counter
/// makes the classic missed-wakeup race impossible without the scheduler
/// holding any lane's lock while sleeping.
struct LaneHub {
  Mutex mu;
  CondVar cv;
  std::uint64_t events EMLIO_GUARDED_BY(mu) = 0;
};

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
  using ClockT = std::chrono::steady_clock;

  /// Outcome of a scheduler-side take attempt.
  enum class Take {
    kItem,       ///< `out` holds the lane's head
    kEmpty,      ///< nothing queued (lane still open)
    kThrottled,  ///< head present but no token; `*ready_at` = next token
    kDone,       ///< closed and drained
  };

  Lane(std::string name, std::size_t capacity, LaneQos qos = {})
      : name_(std::move(name)),
        capacity_(capacity ? capacity : 1),
        qos_(qos),
        id_(next_id().fetch_add(1, std::memory_order_relaxed)) {
    qos_.weight = std::max<std::uint32_t>(qos_.weight, 1);
    if (qos_.rate_per_sec > 0) {
      MutexLock lock(mu_);
      burst_ = std::max(1.0, static_cast<double>(qos_.rate_per_sec) / 20.0);
      tokens_ = burst_;
      last_refill_ = ClockT::now();
    }
  }

  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  const std::string& name() const { return name_; }
  const LaneQos& qos() const { return qos_; }
  /// Process-unique lane id — stable across the lane's life, usable as a
  /// registry key by samplers that watch lanes come and go.
  std::uint64_t id() const { return id_; }
  std::size_t capacity() const { return capacity_; }

  /// Wire this lane to a scheduler hub. Must happen before the first
  /// push/close (the schedulers attach at add_lane time, before producers
  /// exist), so no synchronization is needed on the pointer itself.
  void attach_hub(std::shared_ptr<LaneHub> hub) { hub_ = std::move(hub); }

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
    signal_hub();
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
    signal_hub();
    return true;
  }

  bool try_push(T&& item) { return try_push(static_cast<T&>(item)); }

  /// Blocking pop honoring the rate limit (a closed lane drains unthrottled
  /// so shutdown stays prompt). Empty at entry counts one dequeue stall.
  /// nullopt = closed and drained.
  std::optional<T> pop() {
    std::optional<T> item;
    {
      MutexLock lock(mu_);
      if (items_.empty() && !closed_) {
        counters_.dequeue_stalls.fetch_add(1, std::memory_order_relaxed);
      }
      for (;;) {
        while (items_.empty() && !closed_) not_empty_.wait(mu_);
        if (items_.empty()) return std::nullopt;
        if (closed_ || qos_.rate_per_sec == 0) break;
        ClockT::time_point ready;
        if (take_token_locked(ClockT::now(), &ready)) break;
        not_empty_.wait_until(mu_, ready);  // re-check: close may interleave
      }
      item.emplace(take_front_locked());
    }
    not_full_.notify_one();
    return item;
  }

  /// One DWRR scheduling probe: take the head if the lane has one and a
  /// token matured (consuming the token), else report why not. `ready_at`
  /// is written only for kThrottled.
  Take try_take(T& out, ClockT::time_point now, ClockT::time_point* ready_at) {
    {
      MutexLock lock(mu_);
      if (items_.empty()) return closed_ ? Take::kDone : Take::kEmpty;
      if (!closed_ && qos_.rate_per_sec > 0 && !take_token_locked(now, ready_at)) {
        return Take::kThrottled;
      }
      out = take_front_locked();
    }
    not_full_.notify_one();
    return Take::kItem;
  }

  /// Cheap probe for the scheduler's DWRR ready() predicate: head present
  /// and servable right now (token peeked, not consumed).
  bool servable(ClockT::time_point now) {
    MutexLock lock(mu_);
    if (items_.empty()) return false;
    if (closed_ || qos_.rate_per_sec == 0) return true;
    ClockT::time_point ignored;
    return peek_token_locked(now, &ignored);
  }

  /// What a blocked scheduler should wait for on this lane.
  struct WaitHint {
    bool done = false;       ///< closed and drained — never servable again
    bool throttled = false;  ///< head queued behind the rate limit
    ClockT::time_point ready_at{};  ///< valid when throttled
  };
  WaitHint wait_hint(ClockT::time_point now) {
    MutexLock lock(mu_);
    WaitHint h;
    if (items_.empty()) {
      h.done = closed_;
      return h;
    }
    if (!closed_ && qos_.rate_per_sec > 0 && !peek_token_locked(now, &h.ready_at)) {
      h.throttled = true;
    }
    return h;
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
    signal_hub();
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

  std::uint64_t delivered_items() const {
    return counters_.delivered_items.load(std::memory_order_relaxed);
  }
  std::uint64_t enqueue_stalls() const {
    return counters_.enqueue_stalls.load(std::memory_order_relaxed);
  }
  std::uint64_t dequeue_stalls() const {
    return counters_.dequeue_stalls.load(std::memory_order_relaxed);
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
  static std::atomic<std::uint64_t>& next_id() {
    static std::atomic<std::uint64_t> counter{1};
    return counter;
  }

  /// Detach the head (the caller verified it exists) and count the delivery.
  /// Pure under-the-lock helper — the caller notifies not_full_ after the
  /// lock drops.
  T take_front_locked() EMLIO_REQUIRES(mu_) {
    T item = std::move(items_.front());
    items_.pop_front();
    counters_.delivered_items.fetch_add(1, std::memory_order_relaxed);
    return item;
  }

  /// Refill the bucket to `now`; true + consume when a token is available,
  /// else false with `*ready_at` = when the next token matures.
  bool take_token_locked(ClockT::time_point now, ClockT::time_point* ready_at)
      EMLIO_REQUIRES(mu_) {
    if (!peek_token_locked(now, ready_at)) return false;
    tokens_ -= 1.0;
    return true;
  }

  bool peek_token_locked(ClockT::time_point now, ClockT::time_point* ready_at)
      EMLIO_REQUIRES(mu_) {
    const double rate = static_cast<double>(qos_.rate_per_sec);
    if (now > last_refill_) {
      double dt = std::chrono::duration<double>(now - last_refill_).count();
      tokens_ = std::min(burst_, tokens_ + dt * rate);
      last_refill_ = now;
    }
    if (tokens_ >= 1.0) return true;
    double wait = (1.0 - tokens_) / rate;
    *ready_at = now + std::chrono::duration_cast<ClockT::duration>(
                          std::chrono::duration<double>(wait));
    return false;
  }

  void signal_hub() {
    if (!hub_) return;
    {
      MutexLock lock(hub_->mu);
      ++hub_->events;
    }
    hub_->cv.notify_all();
  }

  const std::string name_;
  const std::size_t capacity_;
  LaneQos qos_;
  const std::uint64_t id_;
  std::shared_ptr<LaneHub> hub_;

  mutable Mutex mu_;
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<T> items_ EMLIO_GUARDED_BY(mu_);
  std::size_t peak_ EMLIO_GUARDED_BY(mu_) = 0;
  bool closed_ EMLIO_GUARDED_BY(mu_) = false;

  // Token bucket.
  double tokens_ EMLIO_GUARDED_BY(mu_) = 0.0;
  double burst_ EMLIO_GUARDED_BY(mu_) = 0.0;
  ClockT::time_point last_refill_ EMLIO_GUARDED_BY(mu_){};

  struct Counters {
    EMLIO_COUNTER_BLOCK(EMLIO_LANE_COUNTERS)
  };
  Counters counters_;
};

/// Blocking deficit-weighted-round-robin drainer over N lanes (single
/// consumer; any number of producers). add_lane() before the consumer
/// starts; pop() until nullopt (every lane closed and drained).
template <typename T>
class LaneScheduler {
 public:
  LaneScheduler() : hub_(std::make_shared<LaneHub>()) {}

  /// One popped item plus which lane it came from, so the consumer can
  /// attribute per-lane bytes and route by source.
  struct Item {
    std::size_t lane_index = 0;
    T value;
  };

  std::shared_ptr<Lane<T>> add_lane(std::string name, std::size_t capacity, LaneQos qos = {}) {
    auto lane = std::make_shared<Lane<T>>(std::move(name), capacity, qos);
    lane->attach_hub(hub_);
    {
      MutexLock lock(hub_->mu);
      lanes_.push_back(lane);
      cycle_.add(qos.weight);
    }
    return lane;
  }

  std::size_t lane_count() const {
    MutexLock lock(hub_->mu);
    return lanes_.size();
  }

  Lane<T>& lane(std::size_t i) {
    MutexLock lock(hub_->mu);
    return *lanes_[i];
  }

  /// Next item in weighted-fair order; blocks until one is servable.
  /// nullopt = every lane closed and drained.
  std::optional<Item> pop() {
    using ClockT = typename Lane<T>::ClockT;
    for (;;) {
      std::shared_ptr<Lane<T>> picked;
      std::size_t picked_index = 0;
      {
        MutexLock lock(hub_->mu);
        const std::uint64_t seen = hub_->events;
        auto now = ClockT::now();
        // Local alias: the DWRR predicate below runs synchronously under
        // hub_->mu (pick() never stashes it), but a lambda body is analyzed
        // as a separate function, so it reads the lanes through this
        // lock-checked reference instead of the guarded member.
        auto& lanes = lanes_;
        std::size_t idx = cycle_.pick([&](std::size_t i) { return lanes[i]->servable(now); });
        if (idx != WeightedCycle::npos) {
          picked = lanes_[idx];
          picked_index = idx;
        } else {
          // Nothing servable: done, throttled-wait, or plain wait.
          bool all_done = true;
          bool any_throttled = false;
          auto deadline = ClockT::time_point::max();
          for (auto& l : lanes_) {
            auto h = l->wait_hint(now);
            if (!h.done) all_done = false;
            if (h.throttled) {
              any_throttled = true;
              deadline = std::min(deadline, h.ready_at);
            }
          }
          if (all_done) return std::nullopt;
          if (any_throttled) {
            while (hub_->events == seen) {
              if (hub_->cv.wait_until(hub_->mu, deadline)) break;  // token matured
            }
          } else {
            while (hub_->events == seen) hub_->cv.wait(hub_->mu);
          }
          continue;
        }
      }
      // Take outside the hub lock; a race (single consumer makes this rare —
      // only a token boundary or a close) just rescans.
      T out;
      typename Lane<T>::ClockT::time_point ready;
      if (picked->try_take(out, ClockT::now(), &ready) == Lane<T>::Take::kItem) {
        return Item{picked_index, std::move(out)};
      }
    }
  }

  /// Close every lane (producers' pushes start failing; pop() drains what is
  /// left, then returns nullopt).
  void close_all() {
    std::vector<std::shared_ptr<Lane<T>>> lanes;
    {
      MutexLock lock(hub_->mu);
      lanes = lanes_;
    }
    for (auto& l : lanes) l->close();
  }

  /// Snapshot of every lane's stats, in add order.
  std::vector<LaneStats> stats() const {
    std::vector<std::shared_ptr<Lane<T>>> lanes;
    {
      MutexLock lock(hub_->mu);
      lanes = lanes_;
    }
    std::vector<LaneStats> out;
    out.reserve(lanes.size());
    for (auto& l : lanes) out.push_back(l->stats());
    return out;
  }

 private:
  std::shared_ptr<LaneHub> hub_;
  std::vector<std::shared_ptr<Lane<T>>> lanes_ EMLIO_GUARDED_BY(hub_->mu);
  WeightedCycle cycle_ EMLIO_GUARDED_BY(hub_->mu);
};

}  // namespace emlio
