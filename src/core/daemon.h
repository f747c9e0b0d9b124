// The EMLIO Daemon (storage side, §4.1 / Algorithm 2 lines 5–8).
//
// Runs on every storage node. For each epoch it takes the node plans whose
// shards it owns and streams them through a pipelined engine:
//
//   read+encode jobs          per-sink lane: reorder buffer      sender thread
//   (shared ThreadPool)  -->  (common::Sequencer); admission -->  (one per sink
//            ^                window = prefetch_depth (HWM)       per epoch)
//            |                                                         |
//            +------------ the sender admits its lane's jobs ----------+
//
// Each job slices B records straight out of the mmap'd shard (zero-copy
// views that share the mapping's ownership) and msgpack-serializes them.
// For a sink that lends (net::MessageSink::lends, the shm slabs) admission
// reserves the batch's slot, and the job writes the batch straight into it:
// each byte makes its one pass on the pool, except samples of at least
// BatchCodec::kSpliceMinBytes, which get room the sender copies them into.
// For any other sink the job encodes one SplicedPayload: a pooled head, with
// those large samples spliced in by reference when the sink gathers
// (MessageSink::gathers). Each sink has one lane for the daemon's life, and
// its only queue is its reorder buffer: jobs park their results in it in
// any order, and the epoch's sender thread pops them in batch-id order
// straight out of it, paces the lane_rate cap (if any), PUSHes each to the
// destination node's MessageSink — a publish of the slot, or a send whose
// spliced bytes the sink copies only at its boundary — and ends the epoch
// with the sink's sentinel. Disk/encode and network are therefore
// concurrently busy — design principle (1).
//
// Each lane's sender is also the only thread that admits its encode jobs:
// it fills the lane's window when its epoch starts and admits again after
// every pop, handing jobs to the pool (FIFO) in batch-id order while the
// lane has fewer than prefetch_depth batches admitted but not yet popped.
// So a sink that stops draining holds at most that many encoded batches
// besides the one its sender is sending, and the pool works for the other
// lanes: the blocking-send backpressure of §4.5, with the sink's
// high-water mark behind it. The wire stream per sink stays deterministic
// (batch-id order) regardless of pool size.
//
// Slots never deadlock the lanes. They are reserved only at admission, in
// batch-id order, so a lane's oldest unpopped batch always holds one and
// its sender never waits for a slot to publish. Admission only tries
// (try_reserve), and a sender parks for a slot (await_slot) only while its
// lane has nothing admitted, admitting its next batch when one frees. A
// lane that fails drops the slots it holds before its sentinel.
//
// Failure semantics: serve_epoch validates the plan against the configured
// sinks BEFORE launching any thread; validation and worker failures —
// including a sink that throws from send, or a batch too large for its
// slot — are surfaced through an error state (ok()/last_error(),
// serve_epoch's return value) instead of escaping a std::thread and
// terminating the process.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cache/sample_cache.h"
#include "common/clock.h"
#include "common/lane.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "common/timestamp_logger.h"
#include "core/planner.h"
#include "json/json.h"
#include "msgpack/batch_codec.h"
#include "obs/metrics.h"
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
  /// Read+encode pool width, fixed for the daemon's life. 0 = auto
  /// (auto_pool_width(): hardware concurrency, clamped to [2, 8]).
  std::size_t pool_threads = 0;
  /// Per-sink admission window — the paper's HWM: how many of a sink's
  /// batches its sender thread may have admitted to the encode pool and not
  /// yet popped (queued in the pool, encoding, or parked in the lane's
  /// reorder buffer). On a lane whose sink lends, each admitted batch also
  /// holds one of the sink's slots, so the window shares the sink's slots
  /// with the messages in flight to the receiver: fewer free slots admit
  /// fewer batches.
  std::size_t prefetch_depth = 16;
  /// Rate cap of every sink lane in batches/sec, paced on its sender thread
  /// before each send (common/lane.h RatePacer); 0 = none. Per-lane wire
  /// streams stay byte-identical and batch-id-ordered at any cap.
  std::uint64_t lane_rate = 0;
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

// DaemonStats' metrics (obs/metrics.h, which also documents the counter
// convention). The engine increments the counters sub-list; stats() derives
// the rest from the lanes, the encode pool and the sinks.
#define EMLIO_DAEMON_COUNTERS(M)                                                   \
  M(std::uint64_t, batches_sent, kCounter)                                         \
  M(std::uint64_t, samples_sent, kCounter)                                         \
  M(std::uint64_t, bytes_sent, kCounter) /* serialized payload bytes (spliced */   \
                                         /* samples included) */                   \
  M(std::uint64_t, errors, kCounter)     /* plan-validation + worker failures */   \
  /* Storage-read accounting. With the sample cache warm and the dataset */        \
  /* inside the budget, whole warm epochs add zero here — the acceptance */        \
  /* criterion bench_micro_cache asserts. */                                       \
  M(std::uint64_t, store_reads, kCounter)        /* batches that read the shard */ \
  M(std::uint64_t, store_records_read, kCounter) /* records read (the misses, */   \
                                                 /* with the cache on) */

#define EMLIO_DAEMON_STATS(M)                                                             \
  EMLIO_DAEMON_COUNTERS(M)                                                                \
  /* Reuse of the encode buffers: each batch's message head, which holds the */           \
  /* whole batch only when no sample was spliced. */                                      \
  M(std::uint64_t, encode_pool_reused, kCounter)    /* heads served from the free list */ \
  M(std::uint64_t, encode_pool_allocated, kCounter) /* heads built fresh */               \
  /* Pipeline balance: the aggregates of `lanes` (sum / sum / max). */                    \
  M(std::uint64_t, enqueue_stalls, kCounter) /* admission waits, once per wait: on a */  \
                                             /* full window, that a pop of an */          \
                                             /* already-encoded batch ended */            \
                                             /* (disk/encode outran the wire); and, on */ \
                                             /* a lane whose sink lends, for a free */    \
                                             /* slot (from the first failed reserve to */ \
                                             /* the next that succeeds) */                \
  M(std::uint64_t, sender_stalls, kCounter)  /* sender pops that found no ready batch */  \
                                             /* (the wire outran disk/encode) */          \
  /* Max reorder-buffer occupancy seen, at most prefetch_depth. Tracked */                \
  /* inside the lane's put, so a mid-epoch snapshot includes the running epoch. */        \
  M(std::uint64_t, queue_peak_depth, kGauge)                                              \
  /* Encode-pool width: pool_threads, or auto_pool_width() when that is 0. */             \
  /* Fixed for the daemon's life. */                                                      \
  M(std::uint64_t, pool_threads_current, kGauge)                                          \
  /* Byte-moving syscalls the sinks issued on the wire path (summed over */               \
  /* sinks from MessageSink::data_syscalls). The transport audit: the TCP */              \
  /* lane reports ~1 per batch (one scatter-gather sendmsg per frame), the */             \
  /* shm lane exactly 0 — its data plane never enters the kernel. Futex */                \
  /* parking and other control syscalls are excluded on every transport. */               \
  M(std::uint64_t, wire_syscalls, kCounter)

struct DaemonStats {
  EMLIO_METRICS(EMLIO_DAEMON_STATS)
  cache::SampleCacheStats cache;  ///< zeros when the cache is off
  /// One row per sink, from construction, sorted by node id. Its counters
  /// accumulate over the daemon's life: delivered_items counts the batches
  /// its sender popped, enqueue_stalls / dequeue_stalls / queue_peak_depth
  /// are the lane's share of the fields above, and `closed` reads true while
  /// no sender runs on the lane.
  std::vector<LaneStats> lanes;
  /// Per-stage latency quantiles (read/encode/lane_wait/wire + "e2e"), ns.
  /// Empty unless DaemonConfig::trace.
  std::vector<obs::StageSummary> latency;
};

/// Serialize the full stats block (throughput + pipeline + cache) as one
/// flat JSON object — `emlio_daemon --stats-json` and the micro benches
/// emit this so downstream tooling stops scraping stdout.
json::Value to_json(const DaemonStats& stats);

/// The leaf names of to_json(DaemonStats) that stream as gauges (the
/// StatsStreamer::Options::gauges of `emlio_daemon --stats-interval`).
std::set<std::string> gauges(const DaemonStats&);

class Daemon {
 public:
  /// `readers`: the shards this storage node owns.
  /// `sinks`: destination compute nodes, indexed by node_id. Sinks are
  /// shared (other daemons may push to the same receiver).
  Daemon(DaemonConfig config, std::vector<tfrecord::ShardReader> readers,
         std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> sinks,
         TimestampLogger* timestamps = nullptr);
  ~Daemon();

  /// Serve one epoch of `plan` (blocking). Validates that every plan node
  /// with locally-owned batches has a sink, then runs the pipelined engine:
  /// every sink gets its batches and then its end-of-epoch sentinel, which
  /// leaves as soon as that sink's own lane has sent its batches. After an
  /// encode failure a lane sends the ready batches before the failed one,
  /// unpaced, then its sentinel; after a failed send only the best-effort
  /// sentinel follows. Returns false — with ok()/last_error() set — on
  /// validation failure (nothing is launched) or when any worker failed
  /// mid-epoch; it never throws out of a worker thread.
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
  /// One encoded batch parked in a sink's reorder buffer, with the metadata
  /// its sender needs for stats.
  struct OutboundBatch {
    /// The message, for a sink that does not lend.
    SplicedPayload message;
    /// For a sink that lends: the slot the batch was encoded into, and the
    /// room its sender copies the spliced samples into.
    net::MessageSink::Slot slot;
    msgpack::SlotEncoding encoded;
    /// Serialized size. 0 when the batch's encode failed or was skipped on
    /// a failed lane: the sender's epoch on the lane ends there.
    std::uint64_t nbytes = 0;
    std::uint64_t batch_id = 0;
    std::uint64_t nsamples = 0;
    /// Stamp sheet riding along the lane (inactive unless config_.trace).
    obs::BatchTrace trace;
  };
  struct SinkLane;

  /// The admission window: prefetch_depth, at least 1.
  std::size_t window() const { return std::max<std::size_t>(1, config_.prefetch_depth); }
  /// The shard-locality rule, single-sourced for validation + the engine.
  bool owns_shard(std::uint32_t shard_id) const { return readers_.count(shard_id) != 0; }
  /// Locally-owned assignments per destination node, sorted by batch_id.
  std::map<std::uint32_t, std::vector<BatchAssignment>> local_batches(
      const EpochPlan& plan) const;

  bool validate_plan(std::uint32_t epoch,
                     const std::map<std::uint32_t, std::vector<BatchAssignment>>& local);
  /// Encode job `seq` of `lane`, into `slot` when the lane's sink lends.
  void encode_job(SinkLane& lane, std::size_t seq, net::MessageSink::Slot slot);
  void post_encode(SinkLane& lane, std::size_t seq, net::MessageSink::Slot slot);
  /// Hand `lane`'s next jobs to the pool while its window and, if it
  /// lends, free slots allow; `popped` counts the batches its sender popped
  /// this epoch. Called only by that sender. True when the lane has a batch
  /// admitted and not yet popped, or failed: its sender need not wait for a
  /// slot.
  bool admit(SinkLane& lane, std::size_t popped);
  void sender_loop(SinkLane& lane, std::uint32_t epoch);
  msgpack::WireBatch build_batch(const BatchAssignment& assignment) const;
  void record_error(const std::string& what);

  DaemonConfig config_;
  /// Stage-latency aggregation (histograms + slow-batch ring). Declared
  /// before any thread-owning member so worker threads can fold completed
  /// traces into it until they join.
  obs::Tracer tracer_;
  std::map<std::uint32_t, tfrecord::ShardReader> readers_;
  std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> sinks_;
  /// One lane per sink, sorted by node id, built at construction and never
  /// changed: stats() reads it without a registry lock. Admission has no
  /// daemon-wide state: each lane's sender admits its own jobs.
  std::vector<std::unique_ptr<SinkLane>> lanes_;
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

  struct Counters {
    EMLIO_COUNTER_BLOCK(EMLIO_DAEMON_COUNTERS)
  };
  // mutable: the store-read counters are bumped inside const build_batch (a
  // read-side cache effect).
  mutable Counters counters_;

  mutable Mutex error_mutex_;
  std::string last_error_ EMLIO_GUARDED_BY(error_mutex_);
};

}  // namespace emlio::core
