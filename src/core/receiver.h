// The EMLIO Receiver (compute side, §4.4 / Algorithm 3 lines 1–2).
//
// One ingest thread per net::MessageSource — true N-daemon fan-in runs N
// sources, not N streams muxed into one — and each runs its source's whole
// path:
//
//   recv() -> pace -> BatchCodec::decode -> [delivery_mutex_] epoch
//   (lane_rate)       (no lock held)         reassembly -> bounded consumer
//                                            queue
//
// The thread decodes outside any lock, so N sources decode on N threads,
// then takes delivery_mutex_ to run the common::EpochSequencer (the
// multi-sender end-of-epoch algebra: sentinel/pending bookkeeping) and push
// into the consumer queue. Each source therefore delivers in its own
// arrival order, byte for byte; sources interleave in the order their
// threads take the mutex. Backpressure: a full consumer queue blocks the
// push under the mutex, which stops every ingest thread, the transports and
// the daemons. next() hands batches to the DALI-style pipeline's
// external_source.
//
// Liveness notes: note_sender_dead/note_sender_revived apply at once, under
// delivery_mutex_. A note lands behind everything its source delivered
// because of who calls it: net::ReconnectingSource fires on_down/on_up on
// the thread inside recv(), which is that source's ingest thread, and that
// thread delivers each payload before it calls recv() again; the same
// thread notes a dead-peer end (MessageSource::end_state) after its loop.
// A note from any other thread lands wherever that thread takes the mutex.
//
// End-of-epoch detection: each serving daemon sends one sentinel per epoch;
// once all `num_senders` sentinels for the current epoch have arrived AND
// the batches they counted were delivered, next() emits a single empty batch
// with last=true, then resumes with the following epoch's data. The last
// ingest thread to finish ends the stream: it repairs what can never
// complete (unless the receiver was closed locally) and closes the queue.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/lane.h"
#include "common/mutex.h"
#include "common/sequencer.h"
#include "common/thread_annotations.h"
#include "common/timestamp_logger.h"
#include "json/json.h"
#include "msgpack/batch_codec.h"
#include "net/channel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace emlio::core {

struct ReceiverConfig {
  std::size_t num_senders = 1;     ///< daemons pushing to this node
  std::size_t queue_capacity = 16; ///< shared queue depth (receiver HWM)
  /// Rate cap of every source in payloads/sec, paced on the source's ingest
  /// thread before each decode (common/lane.h RatePacer); 0 = none.
  /// Per-source delivery stays in arrival order and byte-identical at any
  /// cap.
  std::uint64_t lane_rate = 0;
  /// Per-batch stage tracing (src/obs): each received payload carries a
  /// stamp sheet through ingest (pacing) → decode → deliver (the wait for
  /// delivery_mutex_, the epoch algebra and the queue push), folded into
  /// per-stage + end-to-end latency histograms (ReceiverStats::latency) and
  /// a ring of the trace_ring slowest batches (Receiver::trace_json). When
  /// the sending daemon runs with trace_wire, the batch's on-wire origin
  /// stamp extends the trace backwards into a "wire" stage (sender-queue
  /// residency + transit; same-host clocks). Off by default; the
  /// tracing-off path takes no clocks.
  bool trace = false;
  std::size_t trace_ring = 16;
  /// Retired and ignored: the receiver has no decode pool, each source
  /// decodes on its own ingest thread. Kept only because the repository
  /// benchmark (benchmark/) still sets it; nothing in src/ reads it.
  std::size_t decode_threads = 0;
};

// ReceiverStats' metrics (obs/metrics.h, which also documents the counter
// convention). The engine increments the counters sub-list; stats() reads
// the queue's peak from the consumer queue.
#define EMLIO_RECEIVER_COUNTERS(M)                                                      \
  M(std::uint64_t, batches_received, kCounter)                                          \
  M(std::uint64_t, samples_received, kCounter)                                          \
  M(std::uint64_t, bytes_received, kCounter)                                            \
  M(std::uint64_t, decode_errors, kCounter)                                             \
  M(std::uint64_t, epochs_completed, kCounter)                                          \
  M(std::uint64_t, decode_ns, kCounter)         /* cumulative wall time inside */       \
                                                /* BatchCodec::decode, summed over */   \
                                                /* the ingest threads */                \
  /* Data batches that never reached the consumer after the receiver counted */         \
  /* them in batches_received, because the receiver itself was shutting down: */        \
  /* rejected by a closed consumer queue (the payload an ingest thread had in */        \
  /* hand at close() included), or still held for a future epoch when the */            \
  /* receiver closed locally. */                                                        \
  M(std::uint64_t, dropped_on_close, kCounter)                                          \
  /* Epochs that completed *degraded*: a sender died (or the stream ended) */           \
  /* before contributing its sentinel and/or all its announced batches, and */          \
  /* the EpochSequencer's repair rule released the epoch instead of holding */          \
  /* it forever. The epoch's marker still fires, so training proceeds with */           \
  /* the surviving senders' data. */                                                    \
  M(std::uint64_t, epochs_repaired, kCounter)                                           \
  /* Batches dropped because their sender had been declared dead: stale */              \
  /* re-sends for epochs that already completed repaired (a restarted daemon */         \
  /* re-serving from epoch 0). Distinct from dropped_on_close — these are */            \
  /* fault fallout, not shutdown fallout. Data payloads the receiver pulls */           \
  /* off the wire always reconcile: */                                                  \
  /* pulled = delivered + dropped_on_close + dropped_dead_sender. */                    \
  M(std::uint64_t, dropped_dead_sender, kCounter)

#define EMLIO_RECEIVER_STATS(M) \
  EMLIO_RECEIVER_COUNTERS(M)    \
  M(std::uint64_t, queue_peak_depth, kGauge) /* max consumer-queue occupancy seen */

struct ReceiverStats {
  EMLIO_METRICS(EMLIO_RECEIVER_STATS)
  /// Retired, always 0, outside the metrics catalogue (not in to_json): the
  /// receiver has no decode window to stall on and no resequencer. Kept
  /// only because the repository benchmark (benchmark/) still reads them.
  std::uint64_t decode_stalls = 0;
  std::uint64_t resequence_stalls = 0;
  /// Per-source breakdown ("src<i>", in source order): delivered_items and
  /// delivered_bytes count the payloads (sentinels included) the source's
  /// ingest thread took past pacing; `closed` reads true once that thread
  /// finished or the receiver closed. A source has no queue of its own, so
  /// its stall and depth fields read 0.
  std::vector<LaneStats> lanes;
  /// Per-stage latency quantiles (ingest/decode/deliver, plus wire under
  /// trace_wire senders, plus "e2e"), ns. Empty unless ReceiverConfig::trace.
  std::vector<obs::StageSummary> latency;
};

/// Serialize the stats block as one flat JSON object (`emlio_receive
/// --stats-json`, bench rows).
json::Value to_json(const ReceiverStats& stats);

/// The leaf names of to_json(ReceiverStats) that stream as gauges (the
/// StatsStreamer::Options::gauges of `emlio_receive --stats-interval`).
std::set<std::string> gauges(const ReceiverStats&);

class Receiver {
 public:
  /// Single-source receiver (one transport muxing every daemon). Takes
  /// ownership of the source; spawns the engine immediately.
  Receiver(ReceiverConfig config, std::unique_ptr<net::MessageSource> source,
           TimestampLogger* timestamps = nullptr);

  /// Multi-source receiver: one ingest thread per source (N-daemon fan-in
  /// over N independent transports). Sources must be non-null.
  Receiver(ReceiverConfig config, std::vector<std::unique_ptr<net::MessageSource>> sources,
           TimestampLogger* timestamps = nullptr);

  /// Stops the engine and closes every source.
  ~Receiver();

  Receiver(const Receiver&) = delete;
  Receiver& operator=(const Receiver&) = delete;

  /// Next batch. Sample bytes are zero-copy views sharing ownership of the
  /// received message buffer — hold the batch (or any of its samples) and
  /// the buffer stays alive; drop it and the buffer frees or returns to the
  /// transport's pool. A returned batch with last=true (and no samples)
  /// marks the end of one epoch. Empty optional means the transport closed
  /// for good.
  std::optional<msgpack::WireBatch> next();

  /// Stop receiving (unblocks next()). Idempotent.
  void close();

  /// Declare the sender behind `source_index` dead (transport watchdogs,
  /// net::ReconnectingSource::on_down). Applied at once under the delivery
  /// mutex; called from that source's own recv(), as on_down is, it lands
  /// behind everything the source already delivered (see the header
  /// comment), so the dead sender's last batches land before its epochs
  /// repair. A no-op once the receiver is closed. It waits while an ingest
  /// thread is blocked on a full consumer queue, so the thread that calls
  /// next() must not call it.
  void note_sender_dead(std::size_t source_index);

  /// Re-arm a sender after its transport reconnects
  /// (net::ReconnectingSource::on_up): future epochs wait for it again.
  /// Whatever it re-sends for already-repaired epochs is dropped and counted
  /// in dropped_dead_sender.
  void note_sender_revived(std::size_t source_index);

  /// Point-in-time snapshot. Follows the stats counter convention documented
  /// in obs/metrics.h: independent relaxed atomics, internally consistent per
  /// counter; cross-counter invariants settle once the stream is drained.
  ReceiverStats stats() const;

  /// Slow-batch forensics dump (`--trace-dump`): the trace_ring slowest
  /// completed batches with per-stage breakdowns, plus the stage quantiles.
  json::Value trace_json() const { return tracer_.ring_json(); }

  /// Live stage histograms (config_.trace) — chaos scripts sample snapshot
  /// deltas off these for windowed per-stage quantile timelines.
  const obs::Tracer& tracer() const { return tracer_; }

 private:
  enum class Note : std::uint8_t { kSenderDead, kSenderRevived };

  /// One source's pacer and its row of stats().lanes.
  struct SourceState {
    explicit SourceState(std::uint64_t rate) : pacer(rate) {}
    RatePacer pacer;
    std::atomic<std::uint64_t> items{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<bool> done{false};
  };

  /// Receive, pace, decode and deliver one source's payloads until it ends
  /// or the receiver closes; the last ingest thread out ends the stream.
  void ingest_loop(net::MessageSource& source, std::size_t source_index);
  /// nullopt: undecodable, logged and counted in decode_errors.
  std::optional<msgpack::WireBatch> decode_payload(const Payload& payload);
  void process_batch(msgpack::WireBatch&& batch, std::size_t wire_bytes, std::uint32_t sender)
      EMLIO_REQUIRES(delivery_mutex_);
  /// Deliver one ordered batch to the consumer queue. Callers hold
  /// delivery_mutex_ — asserted, not REQUIRES-annotated, because the epoch
  /// algebra reaches emit through callbacks the analysis treats as separate
  /// unannotated functions.
  void emit(msgpack::WireBatch&& batch);
  /// The epoch algebra's delivery callbacks: one object, passed as both
  /// EpochSequencer's on_data and on_marker by every call into it. A ready
  /// batch goes to emit(); a completed epoch is counted (the one
  /// epochs_completed increment), timestamped and marked. Runs under
  /// delivery_mutex_.
  struct EpochDelivery {
    Receiver& receiver;
    void operator()(msgpack::WireBatch&& ready) const;
    void operator()(std::uint32_t epoch, std::uint64_t expected) const;
  };
  /// End-of-stream bookkeeping: repair unfinished epochs (unless locally
  /// closed), account batches held for epochs that can never complete, and
  /// audit received == delivered + dropped.
  void end_of_stream_locked() EMLIO_REQUIRES(delivery_mutex_);
  /// Count a batch lost to shutdown and emit the one warn line.
  void count_drop(std::uint64_t n, const char* where) EMLIO_REQUIRES(delivery_mutex_);

  /// Sender id the epoch algebra sees for `source_index`: the index itself
  /// when fan-in is attributable (one source per sender), kUnattributed when
  /// one source muxes several senders (the wire carries no sender id).
  std::uint32_t sender_for_source(std::size_t source_index) const;
  /// A note from note_sender_dead/note_sender_revived.
  void post_sender_note(std::size_t source_index, Note note);
  /// Apply a death/revival (caller holds delivery_mutex_).
  void apply_sender_note_locked(Note note, std::uint32_t sender)
      EMLIO_REQUIRES(delivery_mutex_);
  /// Mirror the epoch algebra's repair/stale counters into the stats
  /// atomics (caller holds delivery_mutex_); logs the first dead-sender
  /// drop.
  void sync_epoch_telemetry_locked() EMLIO_REQUIRES(delivery_mutex_);

  ReceiverConfig config_;
  /// Stage-latency aggregation (histograms + slow-batch ring). Declared
  /// before the threads so every ingest thread can fold completed traces
  /// into it until it stops.
  obs::Tracer tracer_;
  std::vector<std::unique_ptr<net::MessageSource>> sources_;
  /// One per source, in source order; fixed after construction.
  std::vector<std::unique_ptr<SourceState>> states_;
  TimestampLogger* timestamps_;
  BoundedQueue<msgpack::WireBatch> queue_;
  std::atomic<bool> closed_{false};

  // Delivery: each ingest thread holds delivery_mutex_ while one decoded
  // batch goes through the epoch algebra into queue_; notes and the end of
  // the stream take it too.
  Mutex delivery_mutex_;
  EpochSequencer<msgpack::WireBatch> epochs_ EMLIO_GUARDED_BY(delivery_mutex_);
  const EpochDelivery delivery_{*this};
  bool delivery_rejected_ EMLIO_GUARDED_BY(delivery_mutex_) = false;  ///< queue_ closed under us
  /// Ingest threads still running; the one that brings it to 0 ends the
  /// stream.
  std::size_t feeders_ EMLIO_GUARDED_BY(delivery_mutex_) = 0;
  /// One warn line each for the first shutdown drop and the first
  /// dead-sender drop.
  bool drop_logged_ EMLIO_GUARDED_BY(delivery_mutex_) = false;
  bool dead_drop_logged_ EMLIO_GUARDED_BY(delivery_mutex_) = false;
  // Conservation bookkeeping for the end-of-stream audit (common/debug.h):
  // counted-received batches split into queue deliveries and post-receive
  // drops (queue closed under us, or held for an epoch that can never
  // complete). Internal only, not surfaced in ReceiverStats.
  std::uint64_t delivered_batches_ EMLIO_GUARDED_BY(delivery_mutex_) = 0;
  std::uint64_t post_receive_drops_ EMLIO_GUARDED_BY(delivery_mutex_) = 0;

  std::vector<std::thread> threads_;  ///< one ingest thread per source

  struct Counters {
    EMLIO_COUNTER_BLOCK(EMLIO_RECEIVER_COUNTERS)
  };
  Counters counters_;
};

}  // namespace emlio::core
