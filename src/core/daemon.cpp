#include "core/daemon.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/debug.h"
#include "common/log.h"
#include "common/sequencer.h"
#include "common/thread_name.h"

namespace emlio::core {

/// One sink's lane, built at construction and kept for the daemon's life.
/// Its only queue is its reorder buffer: encode jobs park their results in
/// it in any order, and the epoch's sender thread pops them in jobs[] (=
/// batch-id) order straight out of it (a common::Sequencer), so the wire
/// stream stays deterministic.
struct Daemon::SinkLane {
  SinkLane(std::uint32_t id, net::MessageSink* s, std::size_t queue)
      : node_id(id), sink(s), lends(s->lends()), name("node" + std::to_string(id)),
        pool_queue(queue) {}

  const std::uint32_t node_id;
  net::MessageSink* const sink;
  const bool lends;
  const std::string name;
  /// The lane's own queue in the encode pool, which serves its lanes
  /// round-robin.
  const std::size_t pool_queue;

  // Per-epoch state, reset by serve_epoch while no thread runs on the lane.
  std::vector<BatchAssignment> jobs;  ///< sorted by batch_id; read-only while the epoch runs
  /// The lane_rate cap, paced on the sender thread before each send. Fresh
  /// each epoch; a failed encode stops it so the ready batches leave at once.
  std::optional<RatePacer> pacer;
  std::atomic<bool> failed{false};
  // Admission state, touched only by the lane's sender thread, the one
  // thread that admits its jobs.
  std::size_t admitted = 0;  ///< jobs[] handed to the pool, in order
  /// The last reserve for the lane failed; the next that succeeds ends the
  /// admission wait, which counts one enqueue stall.
  bool starved = false;

  mutable Mutex mu;
  CondVar head_ready;  ///< the buffer's head became poppable, or the lane closed
  Sequencer<OutboundBatch> reorder EMLIO_GUARDED_BY(mu);
  bool closed EMLIO_GUARDED_BY(mu) = true;  ///< no sender runs on the lane
  // Lifetime counters: plain fields inside the critical sections put and
  // pop already take, and relaxed atomics for the two counted outside them.
  std::uint64_t popped EMLIO_GUARDED_BY(mu) = 0;
  std::uint64_t sender_stalls EMLIO_GUARDED_BY(mu) = 0;
  std::uint64_t peak EMLIO_GUARDED_BY(mu) = 0;
  std::atomic<std::uint64_t> delivered_bytes{0};
  std::atomic<std::uint64_t> enqueue_stalls{0};

  /// Park job `seq`'s result; wakes the sender when it is the head. A
  /// closed lane drops it instead, with the slot it holds.
  void put(std::size_t seq, OutboundBatch out) {
    bool head;
    {
      MutexLock lock(mu);
      if (closed) return;
      head = reorder.put(seq, std::move(out));
      peak = std::max<std::uint64_t>(peak, reorder.parked());
    }
    if (head) head_ready.notify_one();
  }

  /// The next batch in batch-id order, which its sender admitted, waiting
  /// for its encode to park it; `waited` says whether it had to (a sender
  /// stall). nullopt ends the sender's epoch: the head is a failed encode,
  /// or the lane closed with no head ready.
  std::optional<OutboundBatch> pop(bool& waited) {
    MutexLock lock(mu);
    waited = !reorder.front() && !closed;
    if (waited) ++sender_stalls;
    while (!reorder.front() && !closed) head_ready.wait(mu);
    const OutboundBatch* head = reorder.front();
    if (!head || head->nbytes == 0) return std::nullopt;
    ++popped;
    return reorder.pop_front();
  }

  /// Ends the lane's epoch: drops what is parked (a failed lane's
  /// leftovers, with their heads, mmap views, cache pins and slots) and
  /// every later put.
  void close() {
    {
      MutexLock lock(mu);
      closed = true;
      reorder.clear();
    }
    head_ready.notify_all();
  }

  LaneStats stats() const {
    LaneStats s;
    s.name = name;
    s.delivered_bytes = delivered_bytes.load(std::memory_order_relaxed);
    s.enqueue_stalls = enqueue_stalls.load(std::memory_order_relaxed);
    MutexLock lock(mu);
    s.delivered_items = popped;
    s.dequeue_stalls = sender_stalls;
    s.queue_peak_depth = peak;
    s.closed = closed;
    return s;
  }
};

Daemon::Daemon(DaemonConfig config, std::vector<tfrecord::ShardReader> readers,
               std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> sinks,
               TimestampLogger* timestamps)
    : config_(std::move(config)),
      tracer_(obs::TracerConfig{config_.trace, config_.trace_ring}),
      sinks_(std::move(sinks)),
      timestamps_(timestamps) {
  for (auto& r : readers) {
    const std::uint32_t id = r.index().shard_id;
    if (!readers_.emplace(id, std::move(r)).second) {
      throw std::invalid_argument("daemon: two readers for shard " + std::to_string(id));
    }
  }
  for (const auto& [node_id, sink] : sinks_) {
    // Pool queue 0 is the pool's default queue; lane i posts into i + 1.
    lanes_.push_back(std::make_unique<SinkLane>(node_id, sink.get(), lanes_.size() + 1));
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
}

Daemon::~Daemon() = default;

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
  // One row per sink (lanes_ never changes); the flat stall/peak fields
  // are their aggregates.
  s.lanes.reserve(lanes_.size());
  for (const auto& lane : lanes_) {
    LaneStats row = lane->stats();
    s.enqueue_stalls += row.enqueue_stalls;
    s.sender_stalls += row.dequeue_stalls;
    s.queue_peak_depth = std::max(s.queue_peak_depth, row.queue_peak_depth);
    s.lanes.push_back(std::move(row));
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

void Daemon::encode_job(SinkLane& lane, std::size_t seq, net::MessageSink::Slot slot) {
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
      {
        obs::StageTimer enc(tp, obs::Stage::kEncode);
        if (slot) {
          // Straight into the lent slot: the head and the small samples make
          // their one pass over memory here, on the pool. Samples that would
          // splice get room, which the sender fills.
          out.encoded = msgpack::BatchCodec::encode_into(batch, slot.bytes());
          out.nbytes = out.encoded.size;
          out.slot = std::move(slot);
        } else {
          // Into a pooled head: small samples are copied into it; for a sink
          // that gathers, large ones are spliced in by reference and first
          // copied by the sink at its boundary. The message moves through
          // the reorder buffer and sink copy-free and the head recycles when
          // the transport drops it.
          out.message = lane.sink->gathers()
                            ? msgpack::BatchCodec::encode_spliced(batch, *pool_)
                            : msgpack::BatchCodec::encode(batch, *pool_);
          out.nbytes = out.message.size();
        }
      }
      if (tp) out.trace.wire_bytes = out.nbytes;
    } catch (const std::exception& e) {
      record_error("encode worker (node " + std::to_string(lane.node_id) + ", batch " +
                   std::to_string(lane.jobs[seq].batch_id) + "): " + e.what());
      lane.failed.store(true, std::memory_order_release);
      lane.pacer->stop();  // the batches before this one leave unpaced
    }
  }
  // Park the result, failed or not (the sequence must stay dense). Never
  // blocks this pool thread: the window bounds what a lane can park. An
  // unused slot returns to its sink when this job ends.
  lane.put(seq, std::move(out));
}

void Daemon::post_encode(SinkLane& lane, std::size_t seq, net::MessageSink::Slot slot) {
  if (!slot) {
    encode_pool_->post(lane.pool_queue, [this, l = &lane, seq] { encode_job(*l, seq, {}); });
    return;
  }
  // The pool's tasks are copyable std::functions; the slot is move-only.
  auto held = std::make_shared<net::MessageSink::Slot>(std::move(slot));
  encode_pool_->post(lane.pool_queue,
                     [this, l = &lane, seq, held] { encode_job(*l, seq, std::move(*held)); });
}

bool Daemon::admit(SinkLane& lane, std::size_t popped) {
  // Hand the lane's jobs to the pool in batch-id order while its window
  // has room: at most prefetch_depth batches admitted but not yet popped,
  // so a wedged sink saturates only its own window. A lending lane also
  // reserves a slot with each job; the first reserve that fails ends the
  // call, and the sender's next pop admits again.
  while (lane.admitted < lane.jobs.size() && lane.admitted - popped < window() &&
         !lane.failed.load(std::memory_order_acquire)) {
    net::MessageSink::Slot slot;
    if (lane.lends) {
      slot = lane.sink->try_reserve();
      if (!slot) {
        if (!std::exchange(lane.starved, true)) {
          lane.enqueue_stalls.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
      lane.starved = false;
    }
    post_encode(lane, lane.admitted++, std::move(slot));
  }
  return lane.admitted > popped || lane.failed.load(std::memory_order_acquire);
}

void Daemon::sender_loop(SinkLane& lane, std::uint32_t epoch) {
  std::uint64_t sent = 0;
  std::size_t popped = 0;  // this epoch's pops, in jobs[] order
  auto closed_mid_epoch = [&] {
    log::warn("daemon ", config_.daemon_id, ": sink for node ", lane.node_id,
              " closed mid-epoch ", epoch);
    lane.failed.store(true, std::memory_order_release);
  };
  admit(lane, popped);  // fill the window
  while (popped < lane.jobs.size()) {
    if (lane.admitted == popped) {
      // Nothing admitted: the lane failed, or it lends and no slot was
      // free. Park for one, admitting the next batch once it frees.
      if (lane.failed.load(std::memory_order_acquire)) break;
      if (lane.sink->await_slot([&] { return admit(lane, popped); })) continue;
      closed_mid_epoch();
      break;
    }
    // A pop that frees a full window with jobs left ends an admission wait.
    // When its batch was encoded before the sender came for it, the wait
    // was on the wire: one enqueue stall. A window full of jobs still
    // encoding waits on encode, and the pop's sender stall says so.
    const bool full = lane.admitted - popped == window() && lane.admitted < lane.jobs.size();
    bool waited = false;
    auto msg = lane.pop(waited);
    if (!msg) break;
    ++popped;
    if (full && !waited) lane.enqueue_stalls.fetch_add(1, std::memory_order_relaxed);
    admit(lane, popped);  // a window slot freed
    // The lane_rate cap, paid here by every batch, the epoch's tail too.
    lane.pacer->pace();
    const std::uint64_t nbytes = msg->nbytes;
    obs::BatchTrace* tp = msg->trace.active() ? &msg->trace : nullptr;
    // Everything between encode-done and here — reorder-buffer parking and
    // rate-limit pacing — is the lane-wait stage.
    if (tp) tp->note(obs::Stage::kLaneWait, obs::now_ns());
    if (timestamps_) timestamps_->record("batch_send", static_cast<std::int64_t>(msg->batch_id));
    // A failed send fails the lane (admission skips it from then on).
    bool accepted;
    try {
      obs::StageTimer wire(tp, obs::Stage::kWire);
      if (msg->slot) {
        // A lent slot's wire stage: copy the spliced samples into their
        // room, then publish the descriptor.
        msg->encoded.fill(msg->slot.bytes());
        accepted = lane.sink->publish(std::move(msg->slot), nbytes);
      } else {
        accepted = lane.sink->send_spliced(std::move(msg->message));
      }
    } catch (const std::exception& e) {
      // A throwing sink (e.g. a batch larger than an shm slab) fails this
      // lane like a closed one, instead of escaping the thread.
      record_error("sender (node " + std::to_string(lane.node_id) + ", batch " +
                   std::to_string(msg->batch_id) + "): " + e.what());
      lane.failed.store(true, std::memory_order_release);
      break;
    }
    if (!accepted) {
      closed_mid_epoch();
      break;
    }
    if (tp) tracer_.complete(*tp);
    lane.delivered_bytes.fetch_add(nbytes, std::memory_order_relaxed);
    counters_.batches_sent.fetch_add(1, std::memory_order_relaxed);
    counters_.samples_sent.fetch_add(msg->nsamples, std::memory_order_relaxed);
    counters_.bytes_sent.fetch_add(nbytes, std::memory_order_relaxed);
    ++sent;
  }
  // A failed lane drops what it still holds, and what stragglers park
  // later, so the slots among it are free for the sentinel.
  lane.close();
  // The sink's end-of-epoch sentinel follows its batches. It carries how
  // many data batches this daemon sent the node, so the receiver can detect
  // cross-stream sentinel overtaking (see batch_codec.h). Best-effort on a
  // failed lane: a closed sink rejects it harmlessly.
  try {
    lane.sink->send(msgpack::BatchCodec::encode(
        msgpack::BatchCodec::make_sentinel(lane.node_id, epoch, sent)));
  } catch (const std::exception& e) {
    record_error("sentinel (node " + std::to_string(lane.node_id) + "): " + e.what());
    lane.failed.store(true, std::memory_order_release);
  }
}

// ------------------------------------------------------------------- epochs

bool Daemon::serve_epoch(const EpochPlan& plan) {
  if (timestamps_) timestamps_->record("epoch_start", plan.epoch);

  auto local = local_batches(plan);
  if (!validate_plan(plan.epoch, local)) return false;  // error state set; nothing launched

  // Reset every lane for the epoch; no thread runs on one now. A sink with
  // no locally-owned batches still gets its sentinel.
  for (auto& lane : lanes_) {
    auto it = local.find(lane->node_id);
    lane->jobs = it != local.end() ? std::move(it->second) : std::vector<BatchAssignment>{};
    lane->pacer.emplace(config_.lane_rate);
    lane->failed.store(false, std::memory_order_relaxed);
    lane->admitted = 0;
    lane->starved = false;
    MutexLock lock(lane->mu);
    lane->reorder = Sequencer<OutboundBatch>{};
    lane->closed = false;
  }

  {
    std::vector<std::thread> senders;
    // Runs on BOTH paths (exception or normal): close every lane and stop
    // its pacer (so a sender still waiting for a head unblocks), join the
    // senders — a joinable sender must never be destroyed — and wait out
    // straggler encode jobs, which write into the lanes. Each sender has
    // closed its own lane already, dropping a failed lane's leftover
    // batches, and a closed lane drops what stragglers put; on a clean
    // epoch every buffer is empty, as the audit checks.
    struct DrainGuard {
      Daemon* daemon;
      std::vector<std::thread>& senders;
      ~DrainGuard() {
        for (auto& lane : daemon->lanes_) {
          lane->close();
          lane->pacer->stop();
        }
        for (auto& t : senders) {
          if (t.joinable()) t.join();
        }
        daemon->encode_pool_->wait_idle();
      }
    } drain_guard{this, senders};

    senders.reserve(lanes_.size());
    for (auto& lane : lanes_) {
      senders.emplace_back([this, lane = lane.get(), epoch = plan.epoch] {
        set_thread_name("emlio-send" + std::to_string(lane->node_id));
        sender_loop(*lane, epoch);
      });
    }
    // Each sender exits after its lane's last batch (or failure) and
    // sentinel: joining them is the epoch barrier.
    for (auto& t : senders) t.join();
  }

  bool clean = true;
  for (const auto& lane : lanes_) {
    if (lane->failed.load(std::memory_order_acquire)) clean = false;
  }
#if EMLIO_AUDITS_ENABLED
  // Conservation, per lane, after every worker joined: on a clean epoch the
  // sender popped every planned job in order and the reorder buffer
  // drained. A mismatch means a batch was minted twice, lost in the buffer,
  // or skipped by the sender.
  if (clean) {
    for (const auto& lane : lanes_) {
      MutexLock lock(lane->mu);
      EMLIO_AUDIT_EQ("daemon lane popped every job", lane->reorder.next(), lane->jobs.size());
      EMLIO_AUDIT_EQ("daemon lane reorder buffer drained", lane->reorder.parked(), 0);
    }
  }
#endif
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
