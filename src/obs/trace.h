#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "json/json.h"
#include "obs/latency_histogram.h"

namespace emlio::obs {

/// The stage boundaries of the data path, daemon side first:
/// read/cache -> encode -> lane-wait -> wire || ingest -> decode-wait ->
/// decode -> resequence -> deliver. A single batch crosses the daemon
/// stages on the sending host and the receiver stages on the consuming
/// host; `kWire` covers sender-queue residency + transit when the send
/// timestamp is propagated on the wire (trace_wire), else it is the
/// daemon-local send() call.
enum class Stage : std::uint8_t {
  kRead = 0,
  kEncode,
  kLaneWait,  ///< encode done → send: reorder-buffer parking + rate pacing
  kWire,
  kIngest,
  kDecodeWait,
  kDecode,
  kResequence,
  kDeliver,
};
inline constexpr std::size_t kStageCount = 9;

const char* to_string(Stage s);

/// Steady-clock nanoseconds. CLOCK_MONOTONIC is system-wide on Linux,
/// so stamps are comparable across processes on the same host (the
/// trace_wire contract).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-batch stamp sheet. Stages are recorded as deltas between
/// consecutive boundary stamps, so by construction
///   sum(stage_ns) == total_ns
/// exactly — every nanosecond between begin() and the last note() is
/// attributed to exactly one stage.
struct BatchTrace {
  std::uint32_t epoch = 0;
  std::uint64_t batch_id = 0;
  std::uint32_t node_id = 0;
  std::uint32_t shard_id = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t nsamples = 0;

  std::int64_t start_ns = 0;  // first boundary stamp (0 = trace inactive)
  std::int64_t last_ns = 0;   // most recent boundary stamp
  std::int64_t total_ns = 0;  // last_ns - start_ns
  std::array<std::int64_t, kStageCount> stage_ns{};

  bool active() const { return start_ns != 0; }

  void begin(std::int64_t now) { start_ns = last_ns = now; }

  /// Attribute the time since the previous boundary to `s`.
  void note(Stage s, std::int64_t now) {
    if (now < last_ns) now = last_ns;  // monotone guard
    stage_ns[static_cast<std::size_t>(s)] += now - last_ns;
    last_ns = now;
    total_ns = last_ns - start_ns;
  }

  /// Extend the trace backwards: attribute [origin, start_ns) to `s`.
  /// Used to graft the daemon-side send stamp (carried on the wire)
  /// onto a receiver-side trace. No-op unless origin predates start.
  void prepend(Stage s, std::int64_t origin) {
    if (!active() || origin <= 0 || origin >= start_ns) return;
    stage_ns[static_cast<std::size_t>(s)] += start_ns - origin;
    start_ns = origin;
    total_ns = last_ns - start_ns;
  }
};

json::Value to_json(const BatchTrace& t);

/// RAII stage boundary: construction begins the trace if it has not
/// started; destruction attributes the elapsed time to `stage`. A null
/// trace pointer makes both ends no-ops (and no clock calls), which is
/// how the tracing-off path stays free.
class StageTimer {
 public:
  StageTimer(BatchTrace* trace, Stage stage) : trace_(trace), stage_(stage) {
    if (trace_ && !trace_->active()) trace_->begin(now_ns());
  }
  ~StageTimer() {
    if (trace_) trace_->note(stage_, now_ns());
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  BatchTrace* trace_;
  Stage stage_;
};

/// Keeps the K slowest completed traces (by total_ns) for forensics.
/// A relaxed floor lets the common fast-batch case skip the mutex once
/// the ring is full.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity) : capacity_(capacity) {}

  void offer(const BatchTrace& t);
  /// Retained traces, slowest first.
  std::vector<BatchTrace> slowest() const;
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable Mutex mu_;
  std::vector<BatchTrace> heap_ EMLIO_GUARDED_BY(mu_);  // min-heap on total_ns
  std::atomic<std::int64_t> floor_ns_{-1};  // valid once heap_ is full
};

/// One quantile row of a stage histogram, as it appears in
/// DaemonStats/ReceiverStats ("e2e" is the end-to-end row).
struct StageSummary {
  std::string stage;
  std::uint64_t count = 0;
  double p50_ns = 0;
  double p95_ns = 0;
  double p99_ns = 0;
  double max_ns = 0;
};

/// {"<stage>":{"count":..,"p50":..,"p95":..,"p99":..,"max":..}, ...}
json::Value to_json(const std::vector<StageSummary>& summaries);

/// The quantile leaves of the rows above. They are point-in-time
/// distributions, so a stats stream carries them as gauges; "count" is a
/// counter.
inline constexpr std::array<const char*, 4> kStageQuantileLeaves = {"p50", "p95", "p99", "max"};

struct TracerConfig {
  bool enabled = false;
  std::size_t ring_capacity = 16;
};

/// Per-engine aggregation point: completed BatchTraces fold into one
/// histogram per stage plus an end-to-end histogram, and compete for a
/// slot in the slow-batch ring. Thread-safe; recording is wait-free
/// except for ring admission of a top-K-slow batch.
class Tracer {
 public:
  Tracer() : Tracer(TracerConfig{}) {}
  explicit Tracer(TracerConfig cfg)
      : enabled_(cfg.enabled), ring_(cfg.ring_capacity) {}

  bool enabled() const { return enabled_; }

  /// Fold a completed trace. Stages with zero elapsed time are skipped
  /// (either the engine variant has no such stage or it beat the clock
  /// resolution).
  void complete(const BatchTrace& t);

  /// Quantile rows for every stage with at least one sample, plus an
  /// "e2e" row. Empty when nothing completed.
  std::vector<StageSummary> summaries() const;

  /// {"ring_capacity":K,"completed":N,"slowest":[trace...]} slowest-first.
  json::Value ring_json() const;

  std::vector<BatchTrace> slowest() const { return ring_.slowest(); }
  const LatencyHistogram& stage_histogram(Stage s) const {
    return stage_[static_cast<std::size_t>(s)];
  }
  const LatencyHistogram& e2e_histogram() const { return e2e_; }

 private:
  bool enabled_ = false;
  std::array<LatencyHistogram, kStageCount> stage_{};
  LatencyHistogram e2e_;
  TraceRing ring_;
};

}  // namespace emlio::obs
