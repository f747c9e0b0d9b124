// The EMLIO Receiver (compute side, §4.4 / Algorithm 3 lines 1–2).
//
// A staged engine mirroring the daemon's storage-side pipeline, so the last
// serial stage of the mmap→GPU path decodes in parallel under many-daemon
// fan-in:
//
//   ingest threads           per-source         admission          decode workers
//   (one per MessageSource)  lanes              (inline: round-    (shared pool) ->
//   pull raw payloads    --> (common/lane.h) -> robin over the  -> Sequencer ->
//                                               lanes, stamps      epoch reassembly
//                                               tickets)           -> BoundedQueue
//
// Each ingest thread pulls raw msgpack payloads off its own source — true
// N-daemon fan-in runs N sources, not N streams muxed into one — paces the
// lane_rate cap (if any) and pushes each payload into that source's bounded
// lane. No thread sits between the lanes and the decode pool: admission
// runs inline. One decode window serves every source, so after every push
// and every decode completion, a RoundRobin picks the next lane with a queued
// head, pops it and stamps it with a global arrival ticket while the
// in-flight decode window has room
// (backpressure: a slow decode stage fills the window, then the lanes, which
// stops the ingest threads, the transport, and the daemons). Decode workers
// deserialize out of order; a common::Sequencer restores ticket order and a
// common::EpochSequencer applies the multi-sender end-of-epoch algebra
// (sentinel/pending bookkeeping) before batches land in the bounded consumer
// queue — delivery follows the admission order exactly at every pool width,
// and per-lane delivery stays in arrival order. next() hands
// batches to the DALI-style pipeline's external_source.
//
// End-of-epoch detection: each serving daemon sends one sentinel per epoch;
// once all `num_senders` sentinels for the current epoch have arrived AND
// the batches they counted were delivered, next() emits a single empty batch
// with last=true, then resumes with the following epoch's data.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/lane.h"
#include "common/mutex.h"
#include "common/sequencer.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
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
  /// Decode pool width, fixed for the receiver's life: N decode workers
  /// behind per-source ingest threads, re-sequenced into arrival order.
  /// 0 = auto (auto_pool_width(): hardware concurrency, clamped to [2, 8] —
  /// the same rule as DaemonConfig::pool_threads).
  std::size_t decode_threads = 0;
  /// Per-source ingest lane depth. Raw payloads wait here between a
  /// source's receive thread and admission to the decode window; a full lane
  /// blocks its ingest thread — and through it the transport — without
  /// touching the other sources.
  std::size_t ingest_lane_depth = 8;
  /// Rate cap of every source lane in payloads/sec, paced on the source's
  /// ingest thread before each push (common/lane.h RatePacer); 0 = none.
  /// Per-lane delivery stays in arrival order and byte-identical at any cap.
  std::uint64_t lane_rate = 0;
  /// Per-batch stage tracing (src/obs): each received payload carries a
  /// stamp sheet through ingest → decode-wait → decode → resequence →
  /// deliver, folded into per-stage + end-to-end latency histograms
  /// (ReceiverStats::latency) and a ring of the trace_ring slowest batches
  /// (Receiver::trace_json). When the sending daemon runs with trace_wire,
  /// the batch's on-wire origin stamp extends the trace backwards into a
  /// "wire" stage (sender-queue residency + transit; same-host clocks).
  /// Off by default; the tracing-off path takes no clocks.
  bool trace = false;
  std::size_t trace_ring = 16;
};

// ReceiverStats' metrics (obs/metrics.h, which also documents the counter
// convention). The engine increments the counters sub-list; stats() reads
// the rest from the consumer queue and the decode pool.
#define EMLIO_RECEIVER_COUNTERS(M)                                                      \
  M(std::uint64_t, batches_received, kCounter)                                          \
  M(std::uint64_t, samples_received, kCounter)                                          \
  M(std::uint64_t, bytes_received, kCounter)                                            \
  M(std::uint64_t, decode_errors, kCounter)                                             \
  M(std::uint64_t, epochs_completed, kCounter)                                          \
  /* Pipeline balance. */                                                               \
  M(std::uint64_t, decode_stalls, kCounter)     /* payloads that waited for a */        \
                                                /* decode-window slot (decode is the */ \
                                                /* bottleneck) */                       \
  M(std::uint64_t, resequence_stalls, kCounter) /* decodes that finished out of */      \
                                                /* order and parked behind a gap */     \
  M(std::uint64_t, decode_ns, kCounter)         /* cumulative wall time inside */       \
                                                /* BatchCodec::decode */                \
  /* Batches that never reached the consumer after the receiver took them */            \
  /* off the wire because the receiver itself was shutting down: decoded but */         \
  /* rejected by a closed queue, still held for a future epoch when the */              \
  /* receiver closed locally, or pulled off a source and then refused */                \
  /* admission by a closing engine (the mid-admission window close and the */           \
  /* mux shutdown used to lose these without a trace). */                               \
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

#define EMLIO_RECEIVER_STATS(M)                                                      \
  EMLIO_RECEIVER_COUNTERS(M)                                                         \
  M(std::uint64_t, queue_peak_depth, kGauge) /* max consumer-queue occupancy seen */ \
  /* Decode-pool width: decode_threads, or auto_pool_width() when that is */         \
  /* 0. Fixed for the receiver's life. */                                            \
  M(std::uint64_t, pool_threads_current, kGauge)

struct ReceiverStats {
  EMLIO_METRICS(EMLIO_RECEIVER_STATS)
  /// Per-source ingest lane breakdown ("src<i>", in source order).
  std::vector<LaneStats> lanes;
  /// Per-stage latency quantiles (ingest/decode_wait/decode/resequence/
  /// deliver, plus wire under trace_wire senders, plus "e2e"), ns. Empty
  /// unless ReceiverConfig::trace.
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
  /// net::ReconnectingSource::on_down). Ordered with that source's payload
  /// stream: the declaration rides the source's lane as a control token
  /// behind everything the source already delivered, so the dead
  /// sender's in-flight batches land before its epochs repair. Safe from any
  /// thread; a no-op once the receiver is closed.
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
  /// Liveness control tokens that ride the source lanes so a death/revival
  /// declaration is processed strictly after the payloads the source already
  /// delivered (declaring death out of band would stale-drop the dead
  /// sender's own in-flight tail).
  enum class Note : std::uint8_t { kData, kSenderDead, kSenderRevived };

  /// One raw payload travelling through a source lane, with its stamp sheet
  /// (inactive unless config_.trace — then the extra struct is dead weight
  /// moved alongside the refcounted Payload handle, never copied bytes).
  struct Inbound {
    Payload payload;
    obs::BatchTrace trace;
    Note note = Note::kData;    ///< != kData: control token, payload empty
    std::uint32_t sender = 0;   ///< control tokens: which sender
  };
  /// One decode completion travelling through the sequencer.
  struct Decoded {
    msgpack::WireBatch batch;
    std::size_t wire_bytes = 0;
    bool error = false;  ///< tombstone: fills the ticket gap, delivers nothing
    obs::BatchTrace trace;
    Note note = Note::kData;
    std::uint32_t sender = 0;
  };

  /// One source's ingest lane and the pacer that caps its rate at the push.
  struct SourceLane {
    SourceLane(std::string name, std::size_t depth, std::uint64_t rate)
        : lane(std::move(name), depth), pacer(rate) {}
    Lane<Inbound> lane;
    RatePacer pacer;
  };
  /// What an admit_more() call ends besides admitting: nothing, one feeder
  /// (an ingest thread or a note poster), or one admitted payload.
  enum class Retire : std::uint8_t { kNone, kFeeder, kDecode };
  static constexpr std::size_t kNoLane = RoundRobin::npos;

  void ingest_loop(net::MessageSource& source, std::size_t source_index);
  /// Push `in` into source lane `source_index` and admit. false = the lane
  /// is closed (`in` untouched).
  bool push_and_admit(std::size_t source_index, Inbound& in);
  /// Inline admission into the decode window (see the .cpp). `pushed` is
  /// the lane the caller just pushed one item into (kNoLane: none). Returns
  /// true to exactly one caller: the retirement that leaves no feeder,
  /// nothing queued and nothing in flight — the stream is over, and the
  /// caller must run end_of_stream_locked() under delivery_mutex_, then
  /// close the consumer queue.
  bool admit_more(Retire retire, std::size_t pushed = kNoLane);
  /// A feeder's exit: retire it, and end the stream if it was the last
  /// thing the stream waited for.
  void retire_feeder();
  void decode_job(std::uint64_t ticket, Inbound in);
  msgpack::WireBatch decode_payload(const Payload& payload, bool& error);
  void pump_delivery();
  void process_decoded(Decoded&& decoded) EMLIO_REQUIRES(delivery_mutex_);
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
  /// Count a payload/batch lost to shutdown and emit the one warn line.
  void count_drop(std::uint64_t n, const char* where);

  /// Sender id the epoch algebra sees for `source_index`: the index itself
  /// when fan-in is attributable (one source per sender), kUnattributed when
  /// one source muxes several senders (the wire carries no sender id).
  std::uint32_t sender_for_source(std::size_t source_index) const;
  /// Apply a death/revival under delivery_mutex_ (caller holds it).
  void apply_sender_note_locked(Note note, std::uint32_t sender)
      EMLIO_REQUIRES(delivery_mutex_);
  /// Mirror the epoch algebra's repair/stale counters into the stats
  /// atomics (caller holds delivery_mutex_); logs the first dead-sender
  /// drop.
  void sync_epoch_telemetry_locked() EMLIO_REQUIRES(delivery_mutex_);
  /// Route a control token through the same ordered path as the source's
  /// payloads (its lane; direct once that lane has closed).
  void post_sender_note(std::size_t source_index, Note note);

  ReceiverConfig config_;
  /// Stage-latency aggregation (histograms + slow-batch ring). Declared
  /// before the threads and the decode pool so every worker can fold
  /// completed traces into it until it stops.
  obs::Tracer tracer_;
  std::vector<std::unique_ptr<net::MessageSource>> sources_;
  TimestampLogger* timestamps_;
  BoundedQueue<msgpack::WireBatch> queue_;
  std::atomic<bool> closed_{false};

  // Decode stage. The window (2× the pool width, at least 4) caps payloads
  // admitted to the decode stage but not yet delivered: it bounds
  // decode-stage memory and is the backpressure coupling between a slow
  // consumer and the ingest threads.
  std::unique_ptr<ThreadPool> decode_pool_;
  std::size_t window_ = 0;

  // Per-source ingest lanes, in source order; fixed after construction.
  std::vector<std::unique_ptr<SourceLane>> lanes_;

  // Admission, all guarded by window_mutex_ (taken before a lane's own
  // lock, never under it): one round-robin pick over the source lanes, the
  // in-flight window, and the counts that tell when the stream is over.
  Mutex window_mutex_;
  RoundRobin cycle_ EMLIO_GUARDED_BY(window_mutex_);
  /// Per lane: items pushed and announced to admission, not yet popped
  /// (the lane may briefly hold more — a pusher between push and announce).
  std::vector<std::size_t> queued_ EMLIO_GUARDED_BY(window_mutex_);
  std::size_t queued_total_ EMLIO_GUARDED_BY(window_mutex_) = 0;
  std::size_t inflight_ EMLIO_GUARDED_BY(window_mutex_) = 0;
  /// Ingest threads plus note posters that may still push.
  std::size_t feeders_ EMLIO_GUARDED_BY(window_mutex_) = 0;
  /// A queued payload waits for a slot and decode_stalls has counted it.
  bool stalled_ EMLIO_GUARDED_BY(window_mutex_) = false;
  std::uint64_t next_ticket_ EMLIO_GUARDED_BY(window_mutex_) = 0;
  bool window_closed_ EMLIO_GUARDED_BY(window_mutex_) = false;

  Mutex sequencer_mutex_;
  Sequencer<Decoded> resequencer_ EMLIO_GUARDED_BY(sequencer_mutex_);

  // Delivery context: whoever holds delivery_mutex_ drains the sequencer's
  // ready prefix through the epoch bookkeeping into queue_. Decode workers
  // try-lock and hand over; sender notes and end of stream take it blocking.
  Mutex delivery_mutex_;
  EpochSequencer<msgpack::WireBatch> epochs_ EMLIO_GUARDED_BY(delivery_mutex_);
  const EpochDelivery delivery_{*this};
  bool delivery_rejected_ EMLIO_GUARDED_BY(delivery_mutex_) = false;  ///< queue_ closed under us
  /// Atomic, not delivery_mutex_-guarded: drops are also counted from the
  /// ingest threads and from admission (window closed mid-admission).
  std::atomic<bool> drop_logged_{false};

  std::vector<std::thread> threads_;  ///< one ingest thread per source

  struct Counters {
    EMLIO_COUNTER_BLOCK(EMLIO_RECEIVER_COUNTERS)
  };
  Counters counters_;
  // Conservation bookkeeping for the end-of-stream audit (common/debug.h):
  // counted-received batches split into queue deliveries and post-receive
  // drops (queue closed under us, or held for an epoch that can never
  // complete). Mid-admission drops are excluded — those payloads never made
  // it into batches_received. Internal only, not surfaced in ReceiverStats.
  std::atomic<std::uint64_t> delivered_batches_{0};
  std::atomic<std::uint64_t> post_receive_drops_{0};
  /// One warn line for the first dead-sender drop, mirroring drop_logged_.
  std::atomic<bool> dead_drop_logged_{false};
};

}  // namespace emlio::core
