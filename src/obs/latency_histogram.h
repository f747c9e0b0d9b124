#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "json/json.h"

namespace emlio::obs {

/// Fixed-size log-linear (HDR-style) latency histogram.
///
/// Values (nanoseconds) are bucketed into 32 linear sub-buckets per
/// power-of-two octave, so the relative quantile error is bounded by
/// 1/32 (~3%) while the whole histogram is a flat array of 1920
/// counters (~15 KiB) covering the full uint64 range. Values below 32
/// land in exact unit-width buckets.
///
/// Recording is wait-free: one relaxed fetch_add on the bucket plus
/// relaxed count/sum accumulators and relaxed CAS loops for min/max.
/// Readers (quantile/snapshot/merge) tolerate torn cross-counter views
/// the same way the engine stats counters do — each counter is
/// individually exact, aggregates are advisory.
class LatencyHistogram {
 public:
  static constexpr std::size_t kSubBits = 5;
  static constexpr std::uint64_t kSubBuckets = 1ull << kSubBits;  // 32
  static constexpr std::size_t kBucketCount =
      (64 - kSubBits + 1) << kSubBits;  // 1920

  /// Bucket index for a value. Exposed for tests.
  static std::size_t bucket_index(std::uint64_t value);
  /// Smallest value mapping to `index`. Exposed for tests.
  static std::uint64_t bucket_floor(std::size_t index);
  /// Representative (midpoint) value for `index`. Exposed for tests.
  static std::uint64_t bucket_mid(std::size_t index);

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Record one value. Negative inputs clamp to 0.
  void record(std::int64_t value_ns);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// 0 when empty.
  std::uint64_t max() const;
  /// 0 when empty.
  std::uint64_t min() const;

  /// Point-in-time copy of the counters; supports quantiles and deltas
  /// without holding the live histogram still.
  struct Snapshot {
    // Raw buckets feed quantile(); JSON carries the derived quantiles
    // instead of the per-stage bucket counts.
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    std::uint64_t min = 0;

    /// Quantile estimate in ns. p<=0 => min, p>=1 => max, empty => 0.
    /// Results are clamped to [min, max], so a single-sample histogram
    /// answers every quantile exactly.
    double quantile(double p) const;
    double mean() const { return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0; }
    /// Counters accumulated since `earlier` (this - earlier). min/max
    /// are carried from *this (they are monotone, not windowed).
    Snapshot delta(const Snapshot& earlier) const;
  };

  Snapshot snapshot() const;
  /// Convenience: snapshot().quantile(p).
  double quantile(double p) const { return snapshot().quantile(p); }

  /// Fold another histogram's counters into this one.
  void merge(const LatencyHistogram& other);

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
};

/// {"count":..,"sum_ns":..,"mean_ns":..,"min_ns":..,"max_ns":..,
///  "p50":..,"p95":..,"p99":..} — quantiles in ns.
json::Value to_json(const LatencyHistogram::Snapshot& snap);

}  // namespace emlio::obs
