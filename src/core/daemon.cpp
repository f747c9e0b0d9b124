#include "core/daemon.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "common/debug.h"
#include "common/log.h"
#include "common/sequencer.h"
#include "core/lane_stats_json.h"

namespace emlio::core {

/// Per-sink pipeline lane: the locally-owned assignments for one destination
/// node (sorted by batch_id), a re-sequencer for out-of-order encode
/// completions, and the shared-lane prefetch queue its sender thread drains.
/// The queue/stall/peak machinery that used to live here IS the common
/// Lane<T> now; what remains is the daemon-specific glue around it.
struct Daemon::SinkLane {
  SinkLane(std::string name, std::size_t depth, LaneQos qos)
      : lane(std::move(name), depth, qos) {}

  std::uint32_t node_id = 0;
  net::MessageSink* sink = nullptr;
  std::vector<BatchAssignment> jobs;  ///< sorted by batch_id; read-only
  /// Bounded prefetch queue + per-lane counters + QoS (weight feeds the DWRR
  /// admission cycle; rate_per_sec throttles the sender edge via pop()).
  Lane<OutboundBatch> lane;
  std::atomic<bool> failed{false};
  std::atomic<std::uint64_t>* counter = nullptr;  ///< sentinel accounting

  // Re-sequencer state, guarded by mu: encode jobs finish out of order but
  // the queue is fed strictly in jobs[] order so the wire stream stays
  // deterministic (the same common::Sequencer the receiver's decode pool
  // uses). pump() is the only consumer.
  Mutex mu;
  Sequencer<OutboundBatch> resequencer
      EMLIO_GUARDED_BY(mu);  ///< seq → encoded result, in order
  std::uint64_t stall_seq EMLIO_GUARDED_BY(mu) =
      UINT64_MAX;  ///< last seq counted as an enqueue stall

  // Admission bookkeeping, guarded by Daemon::admit_mutex_ (NOT mu):
  std::size_t next_submit = 0;  ///< next jobs[] index to hand to the pool
  std::size_t in_window = 0;    ///< admitted but not yet queued (≤ window)
  std::size_t cycle_slot = 0;   ///< this lane's index in admit_cycle_
};

Daemon::Daemon(DaemonConfig config, std::vector<tfrecord::ShardReader> readers,
               std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> sinks,
               TimestampLogger* timestamps)
    : config_(std::move(config)),
      tracer_(obs::TracerConfig{config_.trace, config_.trace_ring}),
      sinks_(std::move(sinks)),
      timestamps_(timestamps) {
  for (auto& r : readers) {
    std::uint32_t id = r.index().shard_id;
    readers_.emplace(id, std::move(r));
  }
  if (config_.cache_bytes > 0) {
    cache::SampleCacheConfig cc;
    cc.capacity_bytes = config_.cache_bytes;
    cc.policy = config_.cache_policy;
    cache_ = std::make_shared<cache::SampleCache>(cc);
  }
  // Build the pool (and governor) NOW, so stats() — a point-in-time snapshot
  // any thread may take — never races a lazy first-epoch initialization.
  build_encode_pool();
}

std::vector<std::uint32_t> Daemon::shard_ids() const {
  std::vector<std::uint32_t> out;
  for (const auto& [id, r] : readers_) out.push_back(id);
  return out;
}

DaemonStats Daemon::stats() const {
  // Relaxed loads throughout — see the counter convention on DaemonStats.
  DaemonStats s;
  s.batches_sent = batches_sent_.load(std::memory_order_relaxed);
  s.samples_sent = samples_sent_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.encode_pool = pool_->stats();
  s.errors = errors_.load(std::memory_order_relaxed);
  {
    // Per-node lane breakdown: completed epochs (lane_totals_) plus any live
    // epoch's lanes, folded per destination node. The flat stall/peak fields
    // are the aggregates of these — the lanes array is now the source of
    // truth, not a parallel set of global atomics.
    MutexLock lock(lanes_mutex_);
    std::map<std::uint32_t, LaneStats> agg = lane_totals_;
    for (const SinkLane* lane : live_lanes_) {
      accumulate(agg[lane->node_id], lane->lane.stats());
    }
    s.lanes.reserve(agg.size());
    for (auto& [node_id, lane_stats] : agg) {
      (void)node_id;
      s.enqueue_stalls += lane_stats.enqueue_stalls;
      s.sender_stalls += lane_stats.dequeue_stalls;
      s.queue_peak_depth = std::max(s.queue_peak_depth, lane_stats.queue_peak_depth);
      s.lanes.push_back(std::move(lane_stats));
    }
  }
  s.store_reads = store_reads_.load(std::memory_order_relaxed);
  s.store_records_read = store_records_read_.load(std::memory_order_relaxed);
  for (const auto& [id, sink] : sinks_) {
    (void)id;
    s.wire_syscalls += sink->data_syscalls();
  }
  if (governor_) {
    auto g = governor_->stats();
    s.pool_resizes = g.resizes;
    s.pool_threads_current = g.threads_current;
    s.pool_threads_peak = g.threads_peak;
  } else {
    s.pool_threads_current = encode_pool_->target_threads();
    s.pool_threads_peak = s.pool_threads_current;
  }
  if (cache_) s.cache = cache_->stats();
  if (tracer_.enabled()) s.latency = tracer_.summaries();
  return s;
}

json::Value to_json(const DaemonStats& s) {
  json::Object o;
  o["batches_sent"] = s.batches_sent;
  o["samples_sent"] = s.samples_sent;
  o["bytes_sent"] = s.bytes_sent;
  o["encode_pool_reused"] = s.encode_pool.reused;
  o["encode_pool_allocated"] = s.encode_pool.allocated;
  o["enqueue_stalls"] = s.enqueue_stalls;
  o["sender_stalls"] = s.sender_stalls;
  o["queue_peak_depth"] = s.queue_peak_depth;
  o["errors"] = s.errors;
  o["pool_resizes"] = s.pool_resizes;
  o["pool_threads_current"] = s.pool_threads_current;
  o["pool_threads_peak"] = s.pool_threads_peak;
  o["store_reads"] = s.store_reads;
  o["store_records_read"] = s.store_records_read;
  o["wire_syscalls"] = s.wire_syscalls;
  o["cache_hits"] = s.cache.hits;
  o["cache_misses"] = s.cache.misses;
  o["cache_inserts"] = s.cache.inserts;
  o["cache_evictions"] = s.cache.evictions;
  o["cache_pinned_skips"] = s.cache.pinned_skips;
  o["cache_rejected"] = s.cache.rejected;
  o["cache_resident_bytes"] = s.cache.resident_bytes;
  o["cache_resident_bytes_peak"] = s.cache.resident_bytes_peak;
  o["cache_entries"] = s.cache.entries;
  o["lanes"] = to_json(s.lanes);
  // Nested per-stage quantile objects, present only when tracing — the
  // default JSON schema is unchanged. StatsStreamer flattens these to
  // latency.<stage>.{count,p50,p95,p99,max}; tools gauge the quantile leaves.
  if (!s.latency.empty()) o["latency"] = obs::to_json(s.latency);
  return json::Value(std::move(o));
}

bool Daemon::ok() const {
  MutexLock lock(error_mutex_);
  return last_error_.empty();
}

std::string Daemon::last_error() const {
  MutexLock lock(error_mutex_);
  return last_error_;
}

void Daemon::record_error(const std::string& what) {
  errors_.fetch_add(1, std::memory_order_relaxed);
  log::error("daemon ", config_.daemon_id, ": ", what);
  MutexLock lock(error_mutex_);
  if (last_error_.empty()) last_error_ = what;
}

LaneQos Daemon::lane_qos_for(std::uint32_t node_id) const {
  auto it = config_.node_qos.find(node_id);
  LaneQos qos = it != config_.node_qos.end() ? it->second : config_.default_lane_qos;
  qos.weight = std::max<std::uint32_t>(qos.weight, 1);
  return qos;
}

PoolGovernor::Window Daemon::sample_lane_window() {
  // Per-lane stall evidence for the governor, one control window at a time.
  // THE COLD-SINK FIX: the old aggregate counters let one wedged sink (full
  // queue, no consumer) pile up enqueue stalls and shrink the encode pool the
  // healthy lanes still needed. Here each lane votes separately and a lane is
  // weighted out of the shrink side unless it actually delivered this window
  // — a wedged or idle lane's full-queue stalls say nothing about pool width.
  // Rate-limited lanes are also excluded from shrink: their enqueue stalls
  // measure the configured throttle, not encode overcapacity. Failed lanes
  // vote on neither side.
  PoolGovernor::Window w;
  MutexLock lock(lanes_mutex_);
  for (SinkLane* lane : live_lanes_) {
    LaneBaseline& base = governor_base_[lane];
    const std::uint64_t enq = lane->lane.enqueue_stalls();
    const std::uint64_t deq = lane->lane.dequeue_stalls();
    const std::uint64_t del = lane->lane.delivered_items();
    const std::uint64_t d_enq = enq - base.enq;
    const std::uint64_t d_deq = deq - base.deq;
    const std::uint64_t d_del = del - base.del;
    base.enq = enq;
    base.deq = deq;
    base.del = del;
    if (lane->failed.load(std::memory_order_acquire)) continue;
    w.grow += d_deq;  // its sender starved: encode is the bottleneck
    if (d_del > 0 && lane->lane.qos().rate_per_sec == 0 && !lane->lane.closed()) {
      w.shrink += d_enq;  // a HEALTHY lane's queue ran full: width is waste
    }
  }
  return w;
}

void Daemon::build_encode_pool() {
  std::size_t n = config_.pool_threads ? config_.pool_threads : auto_pool_width();
  encode_pool_ = std::make_unique<ThreadPool>(n);
  std::size_t width_cap = n;
  if (config_.adaptive_pool) {
    auto gc = PoolGovernorConfig::from_knobs(config_.adaptive_min_threads,
                                             config_.adaptive_max_threads,
                                             config_.adaptive_interval_ms);
    // Growth the admission windows cannot feed is pure waste: each lane
    // admits at most prefetch_depth in-flight encode jobs and there is at
    // most one lane per configured sink, so cap the governor at the summed
    // admission windows instead of letting persistent sender stalls spawn
    // workers that never run.
    std::size_t feedable = std::max<std::size_t>(config_.prefetch_depth, 1) *
                           std::max<std::size_t>(sinks_.size(), 1);
    gc.max_threads = std::max(gc.min_threads, std::min(gc.max_threads, feedable));
    // The wire starving (dequeue stalls) grows the encode pool; the pool
    // outrunning the wire (enqueue stalls) shrinks it — per-lane windows,
    // with unhealthy lanes weighted out (see sample_lane_window).
    governor_ = std::make_unique<PoolGovernor>(config_.daemon_id + "/encode", *encode_pool_,
                                               [this] { return sample_lane_window(); }, gc);
    width_cap = std::max(width_cap, gc.max_threads);
  }
  // Global in-flight encode budget for DWRR admission: ~2× the widest the
  // pool can be keeps every worker fed while staying small enough that the
  // weighted cycle — not queue luck — decides encode share under contention.
  MutexLock lock(admit_mutex_);
  admit_budget_ = std::max<std::size_t>(4, 2 * width_cap);
}

msgpack::WireBatch Daemon::build_batch(const BatchAssignment& a) const {
  const auto& reader = readers_.at(a.shard_id);
  const auto& index = reader.index();
  msgpack::WireBatch batch;
  batch.epoch = a.epoch;
  batch.batch_id = a.batch_id;
  batch.node_id = a.node_id;
  batch.shard_id = a.shard_id;
  batch.samples.resize(a.count);
  for (std::size_t i = 0; i < a.count; ++i) {
    const auto& entry = index.records[a.first_record + i];
    batch.samples[i].index = entry.sample_index;
    batch.samples[i].label = entry.label;
  }

  if (!cache_) {
    // One contiguous slice: B records, zero-copy views into the mmap that
    // share the mapping's ownership, so a queued message that splices them
    // stays valid whatever happens to the reader.
    auto views = reader.slice(a.first_record, a.count, config_.verify_crc);
    store_reads_.fetch_add(1, std::memory_order_relaxed);
    store_records_read_.fetch_add(views.size(), std::memory_order_relaxed);
    for (std::size_t i = 0; i < views.size(); ++i) batch.samples[i].bytes = std::move(views[i]);
    return batch;
  }

  // Cache pass first: a hit hands the encoder an owning view of the cached
  // bytes — no shard read, and no CRC check (it passed one on insert).
  std::vector<std::size_t> missing;
  missing.reserve(a.count);
  for (std::size_t i = 0; i < a.count; ++i) {
    const auto& entry = index.records[a.first_record + i];
    if (auto hit = cache_->find({a.shard_id, entry.sample_index})) {
      batch.samples[i].bytes = std::move(*hit);
    } else {
      missing.push_back(i);
    }
  }
  if (missing.empty()) return batch;  // whole-batch hit: storage untouched

  // Only the misses come from storage, each CRC-checked once, right before
  // the insert copies it while its bytes are still in the CPU cache.
  store_reads_.fetch_add(1, std::memory_order_relaxed);
  store_records_read_.fetch_add(missing.size(), std::memory_order_relaxed);
  for (std::size_t i : missing) {
    const auto& entry = index.records[a.first_record + i];
    auto view = reader.record(a.first_record + i, config_.verify_crc);
    // The insert copies mmap bytes into cache-owned storage and returns a
    // view of that copy; when the cache cannot admit the entry (budget full
    // of pinned batches, oversized record) the mmap view serves this batch
    // and the bytes simply stay uncached.
    if (auto cached = cache_->insert({a.shard_id, entry.sample_index}, view)) {
      batch.samples[i].bytes = std::move(*cached);
    } else {
      batch.samples[i].bytes = std::move(view);
    }
  }
  return batch;
}

std::map<std::uint32_t, std::vector<BatchAssignment>> Daemon::local_batches(
    const EpochPlan& plan) const {
  std::map<std::uint32_t, std::vector<BatchAssignment>> out;
  for (const auto& node : plan.nodes) {
    for (const auto& worker : node.workers) {
      for (const auto& b : worker.batches) {
        if (owns_shard(b.shard_id)) out[node.node_id].push_back(b);
      }
    }
  }
  // Batch-id order per node — the deterministic wire order the pipelined
  // engine's senders preserve.
  for (auto& [node_id, batches] : out) {
    std::sort(batches.begin(), batches.end(),
              [](const BatchAssignment& a, const BatchAssignment& b) {
                return a.batch_id < b.batch_id;
              });
  }
  return out;
}

bool Daemon::validate_plan(
    std::uint32_t epoch, const std::map<std::uint32_t, std::vector<BatchAssignment>>& local) {
  // Every plan node this daemon will serve (≥1 locally-owned batch) must
  // have a sink BEFORE any thread launches — a missing sink used to throw
  // inside the worker's std::thread lambda and take the whole process down
  // via std::terminate.
  for (const auto& [node_id, batches] : local) {
    if (!batches.empty() && !sinks_.count(node_id)) {
      record_error("epoch " + std::to_string(epoch) + ": no sink for node " +
                   std::to_string(node_id) + " (plan assigns it locally-owned shards)");
      return false;
    }
  }
  return true;
}

// --------------------------------------------------------- pipelined engine

void Daemon::encode_job(SinkLane& lane, std::size_t seq) {
  OutboundBatch out;
  obs::BatchTrace* tp = tracer_.enabled() ? &out.trace : nullptr;
  if (!lane.failed.load(std::memory_order_acquire)) {
    try {
      msgpack::WireBatch batch;
      {
        // First boundary: begins the trace, attributes storage/cache time.
        obs::StageTimer read(tp, obs::Stage::kRead);
        batch = build_batch(lane.jobs[seq]);
      }
      out.batch_id = batch.batch_id;
      out.nsamples = batch.samples.size();
      if (tp) {
        out.trace.epoch = batch.epoch;
        out.trace.batch_id = batch.batch_id;
        out.trace.node_id = batch.node_id;
        out.trace.shard_id = batch.shard_id;
        out.trace.nsamples = batch.samples.size();
        // The origin stamp must be set BEFORE encode — it rides inside the
        // serialized bytes.
        if (config_.trace_wire) {
          batch.trace_origin_ns = static_cast<std::uint64_t>(out.trace.start_ns);
        }
      }
      // Encode into a pooled head: small samples are copied into it; for a
      // sink that gathers, large ones are spliced in by reference and first
      // copied by the sink at its boundary. The message moves through the
      // queue and sink copy-free and the head recycles when the transport
      // drops it.
      {
        obs::StageTimer enc(tp, obs::Stage::kEncode);
        out.message = lane.sink->gathers() ? msgpack::BatchCodec::encode_spliced(batch, *pool_)
                                           : msgpack::BatchCodec::encode(batch, *pool_);
      }
      if (tp) out.trace.wire_bytes = out.message.size();
    } catch (const std::exception& e) {
      record_error("encode worker (node " + std::to_string(lane.node_id) + ", batch " +
                   std::to_string(lane.jobs[seq].batch_id) + "): " + e.what());
      lane.failed.store(true, std::memory_order_release);
    }
  }

  // Park the result and pump: the ready prefix moves to the queue in
  // batch-id order, space permitting. Never blocks this pool thread.
  {
    MutexLock lock(lane.mu);
    lane.resequencer.put(seq, std::move(out));
  }
  pump(lane);
  {
    MutexLock lock(admit_mutex_);
    --admit_running_;
  }
  admit_more();  // the freed budget slot goes to whichever lane DWRR picks
}

void Daemon::pump(SinkLane& lane) {
  // Move the ready prefix of finished results into the prefetch lane (in
  // batch-id order), space permitting. Called by encode workers (a result
  // just parked) and by the sender (space just freed). Strictly NON-BLOCKING:
  // when this lane's queue is full, the batch stays parked — so a
  // backpressured sink idles only its own lane (≤ window parked results) and
  // the shared pool keeps serving the other sinks. The §4.5 back-off is the
  // stopped admission (in_window stays saturated, so admit_more skips this
  // lane), not a blocked thread.
  std::size_t pushed = 0;
  {
    MutexLock lock(lane.mu);
    if (lane.failed.load(std::memory_order_acquire)) {
      lane.lane.close();  // abort: sender (if alive) drains then exits
      return;
    }
    while (OutboundBatch* head = lane.resequencer.front()) {
      if (!lane.lane.try_push(*head)) {
        if (lane.lane.closed()) {
          // Sender closed the lane (sink gone); drop the epoch's remainder.
          lane.failed.store(true, std::memory_order_release);
          return;
        }
        // Queue full: disk/encode outran the wire. Count once per batch
        // (try_push leaves stall accounting to us — this dedup).
        if (lane.stall_seq != lane.resequencer.next()) {
          lane.stall_seq = lane.resequencer.next();
          lane.lane.note_enqueue_stall();
        }
        break;
      }
      lane.resequencer.pop_front();  // try_push moved the value out of *head
      ++pushed;
    }
    if (lane.resequencer.next() == lane.jobs.size()) {
      lane.lane.close();  // all queued: sender drains then exits
    }
  }
  if (pushed > 0) {
    // Queued batches leave the admission window (lock order: lane.mu was
    // released above — admit_mutex_ is never taken under a lane lock).
    MutexLock lock(admit_mutex_);
    lane.in_window -= std::min(lane.in_window, pushed);
  }
}

void Daemon::admit_more() {
  // Hand out encode jobs deficit-weighted round-robin across the epoch's
  // lanes, up to the global in-flight budget. A lane is admittable while it
  // has unsubmitted jobs, a healthy sink, and room in its window
  // (prefetch_depth admitted-but-not-yet-queued results) — a wedged sink's
  // window saturates and its whole encode share flows to the healthy lanes.
  // This replaces the old one-for-one per-lane admission: under a contended
  // pool each lane's encode share now converges to weight / Σ weights.
  std::vector<std::pair<SinkLane*, std::size_t>> grants;
  {
    MutexLock lock(admit_mutex_);
    if (epoch_lanes_.empty()) return;
    // Local aliases: the lambda body is analyzed as a separate function, but
    // it only ever runs synchronously below, under admit_mutex_.
    auto& epoch_lanes = epoch_lanes_;
    const std::size_t window_depth = admit_window_depth_;
    auto admittable = [&](std::size_t slot) {
      SinkLane* l = epoch_lanes[slot];
      return !l->failed.load(std::memory_order_acquire) &&
             l->next_submit < l->jobs.size() && l->in_window < window_depth;
    };
    while (admit_running_ < admit_budget_) {
      std::size_t slot = admit_cycle_.pick(admittable);
      if (slot == WeightedCycle::npos) break;
      SinkLane* l = epoch_lanes_[slot];
      grants.emplace_back(l, l->next_submit++);
      ++l->in_window;
      ++admit_running_;
    }
  }
  for (auto& [l, seq] : grants) {
    encode_pool_->post([this, l, seq] { encode_job(*l, seq); });
  }
}

void Daemon::sender_loop(SinkLane& lane, std::uint32_t epoch) {
  for (;;) {
    // Lane::pop counts the dequeue stall (empty at entry: the wire outran
    // disk/encode) and enforces this lane's rate limit at the consuming edge.
    auto msg = lane.lane.pop();
    if (!msg) return;  // closed and drained
    pump(lane);       // space just freed: refill while we spend time on the wire
    admit_more();
    std::uint64_t nbytes = msg->message.size();
    obs::BatchTrace* tp = msg->trace.active() ? &msg->trace : nullptr;
    // Everything between encode-done and here — resequencer parking + queue
    // residency + rate-limit throttling — is the lane-wait stage.
    if (tp) tp->note(obs::Stage::kLaneWait, obs::now_ns());
    if (timestamps_) timestamps_->record("batch_send", static_cast<std::int64_t>(msg->batch_id));
    bool sent;
    try {
      obs::StageTimer wire(tp, obs::Stage::kWire);
      sent = lane.sink->send_spliced(std::move(msg->message));
    } catch (const std::exception& e) {
      // A throwing sink (e.g. a batch larger than an shm slab) fails this
      // lane like a closed one, instead of escaping the thread.
      record_error("sender (node " + std::to_string(lane.node_id) + ", batch " +
                   std::to_string(msg->batch_id) + "): " + e.what());
      lane.failed.store(true, std::memory_order_release);
      lane.lane.close();
      return;
    }
    if (!sent) {
      log::warn("daemon ", config_.daemon_id, ": sink for node ", lane.node_id,
                " closed mid-epoch ", epoch);
      lane.failed.store(true, std::memory_order_release);
      lane.lane.close();  // unblocks producers; their pushes now reject
      return;
    }
    if (tp) tracer_.complete(*tp);
    lane.lane.add_delivered_bytes(nbytes);
    batches_sent_.fetch_add(1, std::memory_order_relaxed);
    samples_sent_.fetch_add(msg->nsamples, std::memory_order_relaxed);
    bytes_sent_.fetch_add(nbytes, std::memory_order_relaxed);
    lane.counter->fetch_add(1, std::memory_order_relaxed);
  }
}

bool Daemon::pipelined_epoch(const EpochPlan& plan,
                             std::map<std::uint32_t, std::vector<BatchAssignment>>& local,
                             NodeCounters& counters) {
  const std::size_t depth = std::max<std::size_t>(1, config_.prefetch_depth);

  // One lane per destination node with locally-owned batches (already in
  // batch-id order — the deterministic wire order), carrying that node's QoS.
  std::vector<std::unique_ptr<SinkLane>> lanes;
  for (auto& [node_id, batches] : local) {
    if (batches.empty()) continue;
    auto lane = std::make_unique<SinkLane>("node" + std::to_string(node_id), depth,
                                           lane_qos_for(node_id));
    lane->node_id = node_id;
    lane->sink = sinks_.at(node_id).get();
    lane->jobs = std::move(batches);
    lane->counter = &counters.at(node_id);
    lanes.push_back(std::move(lane));
  }

  // Register the epoch's lanes: with the stats/governor registry (so a
  // mid-epoch stats() or governor window sees them live) and with the DWRR
  // admission cycle.
  {
    MutexLock lock(lanes_mutex_);
    for (auto& lane : lanes) live_lanes_.push_back(lane.get());
  }
  {
    MutexLock lock(admit_mutex_);
    epoch_lanes_.clear();
    admit_cycle_ = WeightedCycle{};
    admit_running_ = 0;
    admit_window_depth_ = depth;
    for (auto& lane : lanes) {
      lane->cycle_slot = epoch_lanes_.size();
      epoch_lanes_.push_back(lane.get());
      admit_cycle_.add(lane->lane.qos().weight);
    }
  }

  {
    std::vector<std::thread> senders;
    // Runs on BOTH paths (exception or normal): close every lane (so blocked
    // producers and senders unblock), join the senders — a joinable sender
    // must never be destroyed — wait out straggler encode jobs (they
    // reference the lanes this frame owns), then retire the lanes: fold
    // their counters into the per-node lifetime totals and drop them from
    // the admission + governor registries.
    struct DrainGuard {
      Daemon* daemon;
      std::vector<std::unique_ptr<SinkLane>>& lanes;
      std::vector<std::thread>& senders;
      ~DrainGuard() {
        for (auto& lane : lanes) lane->lane.close();
        for (auto& t : senders) {
          if (t.joinable()) t.join();
        }
        daemon->encode_pool_->wait_idle();
        {
          MutexLock lock(daemon->admit_mutex_);
          daemon->epoch_lanes_.clear();
        }
        MutexLock lock(daemon->lanes_mutex_);
        for (auto& lane : lanes) {
          accumulate(daemon->lane_totals_[lane->node_id], lane->lane.stats());
          daemon->governor_base_.erase(lane.get());
          auto& live = daemon->live_lanes_;
          live.erase(std::remove(live.begin(), live.end(), lane.get()), live.end());
        }
      }
    } drain_guard{this, lanes, senders};

    senders.reserve(lanes.size());
    for (auto& lane : lanes) {
      senders.emplace_back(
          [this, lane = lane.get(), epoch = plan.epoch] { sender_loop(*lane, epoch); });
    }
    // Prime the pipeline: DWRR hands out the first budget's worth of encode
    // jobs; every completion and every queued batch re-admits through the
    // same weighted cycle.
    admit_more();
    // Normal completion: each lane's flush closes its queue after the last
    // batch, and its sender exits once drained. (The guard re-joins, closes
    // and waits out straggler encode jobs — all idempotent.)
    for (auto& t : senders) t.join();
  }

  bool clean = true;
  for (const auto& lane : lanes) {
    if (lane->failed.load(std::memory_order_acquire)) clean = false;
  }
#if EMLIO_AUDITS_ENABLED
  // Conservation, per lane, after every worker joined: on a clean epoch the
  // planned jobs all crossed the wire (encoded == queued == sent) and the
  // re-sequencer drained. A mismatch means a batch was minted twice, lost
  // between the resequencer and the queue, or miscounted by the sender.
  if (clean) {
    for (const auto& lane : lanes) {
      EMLIO_AUDIT_EQ("daemon lane delivery conservation", lane->lane.stats().delivered_items,
                     lane->jobs.size());
      MutexLock lock(lane->mu);
      EMLIO_AUDIT_EQ("daemon lane resequencer drained", lane->resequencer.next(),
                     lane->jobs.size());
      EMLIO_DCHECK(lane->resequencer.empty());
    }
  }
#endif
  return clean;
}

// ------------------------------------------------------------------- epochs

bool Daemon::serve_epoch(const EpochPlan& plan) {
  if (timestamps_) timestamps_->record("epoch_start", plan.epoch);

  auto local = local_batches(plan);
  if (!validate_plan(plan.epoch, local)) return false;  // error state set; nothing launched

  // Per-destination batch counters: the sentinel carries how many data
  // batches this daemon shipped, so the receiver can detect cross-stream
  // sentinel overtaking (see batch_codec.h). Pre-sized for every sink and
  // every plan node so no lookup can fail while workers are live.
  NodeCounters counters;
  for (const auto& [node_id, sink] : sinks_) counters[node_id];
  for (const auto& node : plan.nodes) counters[node.node_id];

  bool clean = pipelined_epoch(plan, local, counters);

  // End-of-epoch sentinel to every destination node this daemon serves
  // (best-effort on a failed lane: a closed sink rejects it harmlessly).
  for (auto& [node_id, sink] : sinks_) {
    auto sentinel = msgpack::BatchCodec::make_sentinel(
        node_id, plan.epoch, counters.at(node_id).load(std::memory_order_relaxed));
    sink->send(msgpack::BatchCodec::encode(sentinel));
  }
  if (timestamps_) timestamps_->record("epoch_end", plan.epoch);
  return clean;
}

bool Daemon::serve(const Planner& planner, std::size_t num_nodes) {
  for (std::uint32_t e = 0; e < planner.config().epochs; ++e) {
    if (!serve_epoch(planner.plan_epoch(e, num_nodes))) return false;
  }
  return true;
}

}  // namespace emlio::core
