// The EMLIO Daemon (storage side, §4.1 / Algorithm 2 lines 5–8).
//
// Runs on every storage node. For each epoch it takes the node plans whose
// shards it owns and streams them through a pipelined engine:
//
//   read+encode jobs          per-sink prefetch queue       sender thread
//   (shared ThreadPool)  -->  BoundedQueue, cap = HWM  -->  (one per sink)
//
// Each job slices B records straight out of the mmap'd shard (zero-copy
// views that share the mapping's ownership) and msgpack-serializes them
// into one SplicedPayload: a pooled head, with samples of at least
// BatchCodec::kSpliceMinBytes spliced in by reference rather than copied
// when the sink gathers (MessageSink::gathers). Finished messages are
// re-sequenced into batch-id order and flow through the sink's bounded
// prefetch queue; a dedicated sender thread drains the queue and PUSHes to
// the destination node's MessageSink, which copies the spliced bytes only
// at its boundary. Disk/encode and network are
// therefore concurrently busy — design principle (1) — while the bounded
// queue plus the sink's high-water mark provide the blocking-send
// backpressure of §4.5. The wire stream per sink stays deterministic
// (batch-id order) regardless of pool size.
//
// Failure semantics: serve_epoch validates the plan against the configured
// sinks BEFORE launching any thread; validation and worker failures —
// including a sink that throws from send — are surfaced through an error
// state (ok()/last_error(), serve_epoch's return value) instead of escaping
// a std::thread and terminating the process.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/sample_cache.h"
#include "common/clock.h"
#include "common/lane.h"
#include "common/mutex.h"
#include "common/pool_governor.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "common/timestamp_logger.h"
#include "core/planner.h"
#include "json/json.h"
#include "msgpack/batch_codec.h"
#include "obs/trace.h"
#include "net/channel.h"
#include "tfrecord/reader.h"

namespace emlio::core {

struct DaemonConfig {
  std::string daemon_id = "daemon0";
  /// Check the TFRecord CRCs of every record read from storage on the hot
  /// path. With the cache on, that is each miss, once, before its insert;
  /// hits are served unchecked.
  bool verify_crc = false;
  /// Read+encode pool size. 0 = auto (hardware concurrency, clamped to
  /// [2, 8]).
  std::size_t pool_threads = 0;
  /// Per-sink encoded-batch prefetch queue capacity — the paper's HWM. Also
  /// bounds how many encode jobs may be in flight per sink.
  std::size_t prefetch_depth = 16;
  /// Adaptive encode-pool sizing: a PoolGovernor grows the pool when
  /// sender_stalls dominates the stall window (the wire waits on encode) and
  /// shrinks it when enqueue_stalls does (encode outran the wire), within
  /// [adaptive_min_threads, adaptive_max_threads]. The pool still starts at
  /// pool_threads; 0 max = auto (hardware concurrency, clamped to [2, 8]
  /// like pool_threads' auto).
  bool adaptive_pool = false;
  std::size_t adaptive_min_threads = 1;
  std::size_t adaptive_max_threads = 0;
  std::uint64_t adaptive_interval_ms = 20;
  /// QoS descriptor applied to every sink lane (class, weighted-fair share,
  /// optional items/sec rate limit at the sender edge). Encode-pool
  /// admission is deficit-weighted round-robin across the sink lanes, so a
  /// node with weight W is guaranteed W / Σ weights of a contended encode
  /// pool — and a stalled lane (full queue, no consumer) stops admitting
  /// entirely, leaving its whole share to the healthy lanes. Per-lane wire
  /// streams stay byte-identical and batch-id-ordered at every weight.
  LaneQos default_lane_qos;
  /// Per-destination-node overrides of default_lane_qos.
  std::map<std::uint32_t, LaneQos> node_qos;
  /// Sample-cache byte budget. 0 (default) disables the cache; otherwise
  /// record payloads are kept in memory keyed by (shard, sample index), so
  /// warm epochs skip the shard read — and CRC verification — entirely
  /// (see src/cache/sample_cache.h).
  std::size_t cache_bytes = 0;
  cache::CachePolicy cache_policy = cache::CachePolicy::kClock;
  /// Per-batch stage tracing (src/obs): every batch carries a stamp sheet
  /// through read → encode → lane-wait → wire, folded into per-stage +
  /// end-to-end latency histograms (DaemonStats::latency) and a ring of the
  /// trace_ring slowest batches (Daemon::trace_json). Off by default; the
  /// tracing-off path takes no clocks and allocates nothing
  /// (bench_micro_trace enforces ≥95% tracing-on throughput).
  bool trace = false;
  std::size_t trace_ring = 16;
  /// Also stamp the trace origin into each encoded batch (optional "t0" wire
  /// key) so a same-host receiver can attribute queue+transit time to its
  /// "wire" stage. OFF by default: default wire bytes are unchanged.
  bool trace_wire = false;
};

// Stats counter convention (daemon AND receiver — this is the one place it
// is documented): every hot-path counter is an independent relaxed
// std::atomic. Writers use fetch_add/compare_exchange with
// memory_order_relaxed; snapshot readers (stats()) use relaxed loads. No
// counter is used to publish other data, so no acquire/release pairing is
// needed; cross-counter invariants (samples vs batches, received vs
// delivered + dropped) settle once the stream is drained and the worker
// threads are joined.
struct DaemonStats {
  std::uint64_t batches_sent = 0;
  std::uint64_t samples_sent = 0;
  std::uint64_t bytes_sent = 0;  ///< serialized payload bytes (spliced samples included)
  /// Reuse behaviour of the encode buffers: each batch's message head,
  /// which holds the whole batch only when no sample was spliced.
  BufferPool::Stats encode_pool;
  // Pipeline balance counters:
  std::uint64_t enqueue_stalls = 0;   ///< encodes that found their sink queue
                                      ///< full (disk/encode outran the wire)
  std::uint64_t sender_stalls = 0;    ///< sender pops that found the queue
                                      ///< empty (wire outran disk/encode)
  /// Max prefetch-queue occupancy seen. Lane queues track their own peak
  /// inside push (no hot-path re-lock) and are folded in as each epoch's
  /// senders join — so a mid-epoch snapshot reflects completed epochs only.
  std::uint64_t queue_peak_depth = 0;
  std::uint64_t errors = 0;           ///< plan-validation + worker failures
  // Encode-pool sizing. Without the governor, current == peak == the
  // configured width and resizes stays 0.
  std::uint64_t pool_resizes = 0;        ///< governor grow+shrink steps applied
  std::uint64_t pool_threads_current = 0;///< encode-pool width right now
  std::uint64_t pool_threads_peak = 0;   ///< widest the encode pool has been
  // Storage-read accounting. With the sample cache warm and the dataset
  // inside the budget, whole warm epochs add zero here — the acceptance
  // criterion bench_micro_cache asserts.
  std::uint64_t store_reads = 0;         ///< batches that read the shard
  std::uint64_t store_records_read = 0;  ///< records read (the misses, with the cache on)
  /// Byte-moving syscalls the sinks issued on the wire path (summed over
  /// sinks from MessageSink::data_syscalls). The transport audit: the TCP
  /// lane reports ~1 per batch (one scatter-gather sendmsg per frame), the
  /// shm lane exactly 0 — its data plane never enters the kernel. Futex
  /// parking and other control syscalls are excluded on every transport.
  std::uint64_t wire_syscalls = 0;
  cache::SampleCacheStats cache;         ///< zeros when the cache is off
  /// Per-destination-node lane breakdown: completed epochs folded per node
  /// plus any live epoch's lanes, sorted by node id.
  /// enqueue_stalls/sender_stalls/queue_peak_depth above are the aggregates
  /// of these (sum / sum / max).
  std::vector<LaneStats> lanes;
  /// Per-stage latency quantiles (read/encode/lane_wait/wire + "e2e"), ns.
  /// Empty unless DaemonConfig::trace.
  std::vector<obs::StageSummary> latency;
};

/// Serialize the full stats block (throughput + pipeline + cache) as one
/// flat JSON object — `emlio_daemon --stats-json` and the micro benches
/// emit this so downstream tooling stops scraping stdout.
json::Value to_json(const DaemonStats& stats);

class Daemon {
 public:
  /// `readers`: the shards this storage node owns.
  /// `sinks`: destination compute nodes, indexed by node_id. Sinks are
  /// shared (other daemons may push to the same receiver).
  Daemon(DaemonConfig config, std::vector<tfrecord::ShardReader> readers,
         std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> sinks,
         TimestampLogger* timestamps = nullptr);

  /// Serve one epoch of `plan` (blocking). Validates that every plan node
  /// with locally-owned batches has a sink, then runs the pipelined engine
  /// and finishes with one end-of-epoch sentinel per destination node.
  /// Returns false — with ok()/last_error() set — on validation failure
  /// (nothing is launched) or when any worker failed mid-epoch; it never
  /// throws out of a worker thread.
  bool serve_epoch(const EpochPlan& plan);

  /// Serve all epochs [0, epochs) from the planner; stops early and returns
  /// false on the first failed epoch.
  bool serve(const Planner& planner, std::size_t num_nodes);

  DaemonStats stats() const;

  /// Slow-batch forensics dump (`--trace-dump`): the trace_ring slowest
  /// completed batches with per-stage breakdowns, plus the stage quantiles.
  /// `{"ring_capacity":K,"completed":N,"slowest":[...],"latency":{...}}`.
  json::Value trace_json() const { return tracer_.ring_json(); }

  /// False once any epoch hit a validation or worker failure.
  bool ok() const;
  /// Description of the first failure ("" while ok()).
  std::string last_error() const;

  /// Shards owned by this daemon.
  std::vector<std::uint32_t> shard_ids() const;

 private:
  /// One encoded batch queued for a sink, with the metadata its sender
  /// needs for stats and sentinel accounting.
  struct OutboundBatch {
    SplicedPayload message;
    std::uint64_t batch_id = 0;
    std::uint64_t nsamples = 0;
    /// Stamp sheet riding along the lane (inactive unless config_.trace).
    obs::BatchTrace trace;
  };
  struct SinkLane;
  using NodeCounters = std::map<std::uint32_t, std::atomic<std::uint64_t>>;

  /// The shard-locality rule, single-sourced for validation + the engine.
  bool owns_shard(std::uint32_t shard_id) const { return readers_.count(shard_id) != 0; }
  /// Locally-owned assignments per destination node, sorted by batch_id.
  std::map<std::uint32_t, std::vector<BatchAssignment>> local_batches(
      const EpochPlan& plan) const;

  bool validate_plan(std::uint32_t epoch,
                     const std::map<std::uint32_t, std::vector<BatchAssignment>>& local);
  bool pipelined_epoch(const EpochPlan& plan,
                       std::map<std::uint32_t, std::vector<BatchAssignment>>& local,
                       NodeCounters& counters);
  void encode_job(SinkLane& lane, std::size_t seq);
  void pump(SinkLane& lane);
  void admit_more();
  void sender_loop(SinkLane& lane, std::uint32_t epoch);
  msgpack::WireBatch build_batch(const BatchAssignment& assignment) const;
  void record_error(const std::string& what);
  void build_encode_pool();
  LaneQos lane_qos_for(std::uint32_t node_id) const;
  /// One governor control window of per-lane evidence — the cold-sink fix
  /// lives here (see the .cpp).
  PoolGovernor::Window sample_lane_window();

  DaemonConfig config_;
  /// Stage-latency aggregation (histograms + slow-batch ring). Declared
  /// before any thread-owning member so worker threads can fold completed
  /// traces into it until they join.
  obs::Tracer tracer_;
  std::map<std::uint32_t, tfrecord::ShardReader> readers_;
  std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> sinks_;
  TimestampLogger* timestamps_;
  /// Message heads cycle through here: serialized, sent, recycled when the
  /// transport (or receiver) drops the last reference.
  std::shared_ptr<BufferPool> pool_ = BufferPool::create();
  /// Cross-epoch sample cache (null when DaemonConfig::cache_bytes == 0).
  /// shared_ptr so in-flight batch views built from it stay valid however
  /// long the transport holds them; a spliced entry stays pinned until its
  /// sink has sent or copied it.
  std::shared_ptr<cache::SampleCache> cache_;
  /// Shared read+encode pool, built at construction so stats() never races
  /// its creation.
  std::unique_ptr<ThreadPool> encode_pool_;

  std::atomic<std::uint64_t> batches_sent_{0};
  std::atomic<std::uint64_t> samples_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> errors_{0};
  // mutable: bumped inside const build_batch (a read-side cache effect).
  mutable std::atomic<std::uint64_t> store_reads_{0};
  mutable std::atomic<std::uint64_t> store_records_read_{0};

  mutable Mutex error_mutex_;
  std::string last_error_ EMLIO_GUARDED_BY(error_mutex_);

  // Encode-pool admission, all guarded by admit_mutex_:
  // one DWRR cycle picks which sink lane gets the next encode job, bounded
  // by a global running-job budget (≈ 2× the widest pool — enough to keep
  // every worker fed, small enough that the weighted choice decides encode
  // share under contention) and a per-lane in-window cap (prefetch_depth:
  // admitted but not yet queued). NEVER acquired while holding a lane's mu.
  Mutex admit_mutex_;
  std::vector<SinkLane*> epoch_lanes_
      EMLIO_GUARDED_BY(admit_mutex_);  ///< live only while an epoch runs
  WeightedCycle admit_cycle_ EMLIO_GUARDED_BY(admit_mutex_);
  std::size_t admit_budget_ EMLIO_GUARDED_BY(admit_mutex_) = 0;
  std::size_t admit_running_ EMLIO_GUARDED_BY(admit_mutex_) = 0;
  std::size_t admit_window_depth_ EMLIO_GUARDED_BY(admit_mutex_) = 0;

  // Lane registry + lifetime accounting, guarded by lanes_mutex_ (cold
  // paths only: stats(), governor windows, epoch setup/teardown). Live
  // lanes are registered for the epoch's duration; at teardown their
  // counters fold into lane_totals_ per destination node.
  mutable Mutex lanes_mutex_;
  std::vector<SinkLane*> live_lanes_ EMLIO_GUARDED_BY(lanes_mutex_);
  std::map<std::uint32_t, LaneStats> lane_totals_ EMLIO_GUARDED_BY(lanes_mutex_);
  struct LaneBaseline {
    std::uint64_t enq = 0, deq = 0, del = 0;
  };
  std::map<const SinkLane*, LaneBaseline> governor_base_
      EMLIO_GUARDED_BY(lanes_mutex_);  ///< sampler state

  /// Adaptive sizing controller over encode_pool_ (config_.adaptive_pool).
  /// Declared last on purpose: it is destroyed first, so its control thread
  /// stops before the pool and the stall counters it reads go away.
  std::unique_ptr<PoolGovernor> governor_;
};

}  // namespace emlio::core
