#include "core/daemon.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "common/debug.h"
#include "common/log.h"
#include "common/sequencer.h"

namespace emlio::core {

/// Per-sink pipeline lane: the locally-owned assignments for one destination
/// node (sorted by batch_id), a re-sequencer for out-of-order encode
/// completions, and the shared-lane prefetch queue its sender thread drains.
/// The queue/stall/peak machinery that used to live here IS the common
/// Lane<T> now; what remains is the daemon-specific glue around it.
struct Daemon::SinkLane {
  SinkLane(std::string name, std::size_t depth, std::uint64_t rate)
      : lane(std::move(name), depth), pacer(rate) {}

  std::uint32_t node_id = 0;
  net::MessageSink* sink = nullptr;
  std::vector<BatchAssignment> jobs;  ///< sorted by batch_id; read-only
  /// Bounded prefetch queue + per-lane counters.
  Lane<OutboundBatch> lane;
  /// The lane_rate cap, paced on the sender thread before each send;
  /// stopped when the lane fails so what is queued drains at once.
  RatePacer pacer;
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
  // Build the pool NOW, so stats() — a point-in-time snapshot any thread may
  // take — never races a lazy first-epoch initialization.
  encode_pool_ = std::make_unique<ThreadPool>(config_.pool_threads ? config_.pool_threads
                                                                   : auto_pool_width());
  // Global in-flight encode budget for admission: 2× the pool width keeps
  // every worker fed while staying small enough that a stalled lane, its
  // window saturated, leaves the pool to the healthy lanes.
  MutexLock lock(admit_mutex_);
  admit_budget_ = std::max<std::size_t>(4, 2 * encode_pool_->thread_count());
}

std::vector<std::uint32_t> Daemon::shard_ids() const {
  std::vector<std::uint32_t> out;
  for (const auto& [id, r] : readers_) out.push_back(id);
  return out;
}

DaemonStats Daemon::stats() const {
  DaemonStats s;
  counters_.load_into(s);
  const BufferPool::Stats heads = pool_->stats();
  s.encode_pool_reused = heads.reused;
  s.encode_pool_allocated = heads.allocated;
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
  for (const auto& [id, sink] : sinks_) {
    (void)id;
    s.wire_syscalls += sink->data_syscalls();
  }
  s.pool_threads_current = encode_pool_->thread_count();
  if (cache_) s.cache = cache_->stats();
  if (tracer_.enabled()) s.latency = tracer_.summaries();
  return s;
}

json::Value to_json(const DaemonStats& s) {
  json::Object o;
  obs::put_metrics(o, s);
  obs::put_metrics(o, s.cache, "cache_");
  o["lanes"] = obs::metrics_array(s.lanes);
  // Nested per-stage quantile objects, present only when tracing — the
  // default JSON schema is unchanged. StatsStreamer flattens these to
  // latency.<stage>.{count,p50,p95,p99,max}; the quantile leaves are gauges.
  if (!s.latency.empty()) o["latency"] = obs::to_json(s.latency);
  return json::Value(std::move(o));
}

std::set<std::string> gauges(const DaemonStats&) {
  std::set<std::string> g(obs::kStageQuantileLeaves.begin(), obs::kStageQuantileLeaves.end());
  obs::collect_gauges<DaemonStats>(g);
  obs::collect_gauges<cache::SampleCacheStats>(g, "cache_");
  obs::collect_gauges<LaneStats>(g);
  return g;
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
  counters_.errors.fetch_add(1, std::memory_order_relaxed);
  log::error("daemon ", config_.daemon_id, ": ", what);
  MutexLock lock(error_mutex_);
  if (last_error_.empty()) last_error_ = what;
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
    counters_.store_reads.fetch_add(1, std::memory_order_relaxed);
    counters_.store_records_read.fetch_add(views.size(), std::memory_order_relaxed);
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
  counters_.store_reads.fetch_add(1, std::memory_order_relaxed);
  counters_.store_records_read.fetch_add(missing.size(), std::memory_order_relaxed);
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
  admit_more();  // the freed budget slot goes to the next admittable lane
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
      lane.lane.close();  // abort: sender (if alive) drains then exits,
      lane.pacer.stop();  // unpaced
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
  // Hand out encode jobs round-robin across the epoch's lanes, up to the
  // global in-flight budget. A lane is admittable while it has unsubmitted
  // jobs, a healthy sink, and room in its window (prefetch_depth
  // admitted-but-not-yet-queued results) — a wedged sink's window saturates
  // and its whole encode share flows to the healthy lanes.
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
      std::size_t slot = admit_cycle_.pick(epoch_lanes.size(), admittable);
      if (slot == RoundRobin::npos) break;
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
    // disk/encode).
    auto msg = lane.lane.pop();
    if (!msg) return;  // closed and drained
    pump(lane);       // space just freed: refill while we spend time on the wire
    admit_more();
    // The lane_rate cap, paid here by every batch, the epoch's tail too.
    lane.pacer.pace();
    std::uint64_t nbytes = msg->message.size();
    obs::BatchTrace* tp = msg->trace.active() ? &msg->trace : nullptr;
    // Everything between encode-done and here — resequencer parking + queue
    // residency + rate-limit pacing — is the lane-wait stage.
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
    counters_.batches_sent.fetch_add(1, std::memory_order_relaxed);
    counters_.samples_sent.fetch_add(msg->nsamples, std::memory_order_relaxed);
    counters_.bytes_sent.fetch_add(nbytes, std::memory_order_relaxed);
    lane.counter->fetch_add(1, std::memory_order_relaxed);
  }
}

bool Daemon::pipelined_epoch(const EpochPlan& plan,
                             std::map<std::uint32_t, std::vector<BatchAssignment>>& local,
                             NodeCounters& counters) {
  const std::size_t depth = std::max<std::size_t>(1, config_.prefetch_depth);

  // One lane per destination node with locally-owned batches (already in
  // batch-id order — the deterministic wire order).
  std::vector<std::unique_ptr<SinkLane>> lanes;
  for (auto& [node_id, batches] : local) {
    if (batches.empty()) continue;
    auto lane = std::make_unique<SinkLane>("node" + std::to_string(node_id), depth,
                                           config_.lane_rate);
    lane->node_id = node_id;
    lane->sink = sinks_.at(node_id).get();
    lane->jobs = std::move(batches);
    lane->counter = &counters.at(node_id);
    lanes.push_back(std::move(lane));
  }

  // Register the epoch's lanes: with the stats registry (so a mid-epoch
  // stats() sees them live) and with admission.
  {
    MutexLock lock(lanes_mutex_);
    for (auto& lane : lanes) live_lanes_.push_back(lane.get());
  }
  {
    MutexLock lock(admit_mutex_);
    epoch_lanes_.clear();
    admit_cycle_ = RoundRobin{};
    admit_running_ = 0;
    admit_window_depth_ = depth;
    for (auto& lane : lanes) epoch_lanes_.push_back(lane.get());
  }

  {
    std::vector<std::thread> senders;
    // Runs on BOTH paths (exception or normal): close every lane and stop
    // its pacer (so blocked producers and senders unblock), join the
    // senders — a joinable sender must never be destroyed — wait out
    // straggler encode jobs (they reference the lanes this frame owns), then
    // retire the lanes: fold their counters into the per-node lifetime
    // totals and drop them from the admission + stats registries.
    struct DrainGuard {
      Daemon* daemon;
      std::vector<std::unique_ptr<SinkLane>>& lanes;
      std::vector<std::thread>& senders;
      ~DrainGuard() {
        for (auto& lane : lanes) {
          lane->lane.close();
          lane->pacer.stop();
        }
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
    // Prime the pipeline: admission hands out the first budget's worth of
    // encode jobs; every completion and every queued batch re-admits through
    // the same round-robin pick.
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
