// Shared lane layer: the per-lane pieces both engines report and pace with.
//
// A lane is one stream's stretch of an engine, counted per lane in a
// LaneStats row. The daemon's per-sink lane has no queue of its own: its
// reorder buffer is the lane (core/daemon.cpp). The receiver's per-source
// rows count what each source's ingest thread took in; a source has no
// queue either, since its thread decodes and delivers each payload itself
// (core/receiver.h). Lanes carry no weights: as with ZeroMQ's high-water
// mark in the paper (§4.5), a lane's only back-off is its bound.
//
// Beside the stats sit two small pieces:
//
//   RatePacer      — the token bucket behind each engine's lane_rate cap
//                    (items/sec per lane, burst of rate/20, i.e. 50 ms).
//                    Each engine paces at one edge: the daemon's sender
//                    thread before each send, the receiver's ingest thread
//                    before each decode. Every item is paced, an epoch's
//                    tail included, and no waiting item is ever throttled,
//                    so a capped lane never holds back the others. stop()
//                    ends the pacing at once (shutdown, a failed lane).
//
//   Lane<T>        — a BoundedQueue with a name and the bytes its consumer
//                    attributes to it. No engine uses it any more; it is
//                    kept only for the repository benchmark's
//                    common.lane_ns row (benchmark/layers.cpp), which goes
//                    with it.
//
// Counter convention: the queue's counters are plain fields under its
// mutex; a lane's attributed bytes are a relaxed atomic (obs/metrics.h).
// Locking discipline is machine-checked (common/thread_annotations.h).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "common/bounded_queue.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace emlio {

// LaneStats' metrics (obs/metrics.h): one row per daemon sink lane or
// receiver source.
#define EMLIO_LANE_STATS(M)                                                             \
  M(std::string, name, kLabel)                                                          \
  M(std::uint64_t, delivered_items, kCounter) /* items popped off the lane */           \
  M(std::uint64_t, delivered_bytes, kCounter) /* bytes the consumer attributed to it */ \
  M(std::uint64_t, enqueue_stalls, kCounter)  /* producer found the lane full */        \
  M(std::uint64_t, dequeue_stalls, kCounter)  /* consumer found the lane empty */       \
  M(std::uint64_t, queue_peak_depth, kGauge)  /* max occupancy seen, as items enter */  \
  M(bool, closed, kGauge)

/// Point-in-time per-lane counters, snapshot by the daemon's sink lanes and
/// the receiver's sources and surfaced as the `lanes` array of
/// DaemonStats/ReceiverStats.
struct LaneStats {
  EMLIO_METRICS(EMLIO_LANE_STATS)
};

/// A named BoundedQueue whose consumer attributes delivered bytes to it.
/// See the header comment: only the benchmark uses it.
template <typename T>
class Lane : public BoundedQueue<T> {
 public:
  Lane(std::string name, std::size_t capacity)
      : BoundedQueue<T>(capacity), name_(std::move(name)) {}

  /// The lane cannot know T's wire size; the consumer attributes bytes.
  void add_delivered_bytes(std::uint64_t n) {
    delivered_bytes_.fetch_add(n, std::memory_order_relaxed);
  }

  LaneStats stats() const {
    const auto counts = this->counts();
    LaneStats s;
    s.name = name_;
    s.delivered_items = counts.pops;
    s.delivered_bytes = delivered_bytes_.load(std::memory_order_relaxed);
    s.enqueue_stalls = counts.enqueue_stalls;
    s.dequeue_stalls = counts.dequeue_stalls;
    s.queue_peak_depth = counts.peak_depth;
    s.closed = counts.closed;
    return s;
  }

 private:
  const std::string name_;
  std::atomic<std::uint64_t> delivered_bytes_{0};
};

/// Token bucket pacing one edge at `rate_per_sec` items/sec, with a burst
/// of rate/20 (at least one item). See the header comment.
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
