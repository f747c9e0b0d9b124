#include "core/receiver.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "common/debug.h"
#include "common/log.h"

namespace emlio::core {

namespace {

std::vector<std::unique_ptr<net::MessageSource>> one_source(
    std::unique_ptr<net::MessageSource> source) {
  std::vector<std::unique_ptr<net::MessageSource>> v;
  v.push_back(std::move(source));
  return v;
}

}  // namespace

Receiver::Receiver(ReceiverConfig config, std::unique_ptr<net::MessageSource> source,
                   TimestampLogger* timestamps)
    : Receiver(config, one_source(std::move(source)), timestamps) {}

Receiver::Receiver(ReceiverConfig config, std::vector<std::unique_ptr<net::MessageSource>> sources,
                   TimestampLogger* timestamps)
    : config_(config),
      tracer_(obs::TracerConfig{config.trace, config.trace_ring}),
      sources_(std::move(sources)),
      timestamps_(timestamps),
      queue_(config.queue_capacity),
      epochs_(config.num_senders) {
  if (sources_.empty()) throw std::invalid_argument("receiver: no message sources");
  for (const auto& s : sources_) {
    if (!s) throw std::invalid_argument("receiver: null message source");
  }

  // One ingest thread per source feeds that source's lane; admission picks
  // among the lanes round-robin, stamps arrival tickets and feeds
  // the decode pool under a bounded in-flight window (2× the pool width, at
  // least 4: enough parked results to keep every worker busy across
  // out-of-order completions, small enough that a stalled consumer stops
  // ingest fast).
  decode_pool_ = std::make_unique<ThreadPool>(config_.decode_threads ? config_.decode_threads
                                                                     : auto_pool_width());
  window_ = std::max<std::size_t>(decode_pool_->thread_count() * 2, 4);
  const std::size_t depth = std::max<std::size_t>(config_.ingest_lane_depth, 1);
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    lanes_.push_back(
        std::make_unique<SourceLane>("src" + std::to_string(i), depth, config_.lane_rate));
  }
  {
    MutexLock lock(window_mutex_);
    queued_.assign(lanes_.size(), 0);
    feeders_ = lanes_.size();
  }
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    threads_.emplace_back([this, src = sources_[i].get(), i] { ingest_loop(*src, i); });
  }
}

Receiver::~Receiver() {
  close();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  // Drain straggler decode jobs (their deliveries count as drops now that
  // the queue is closed) before any member they touch goes away. Idle the
  // pool before resetting it: a straggler may still post, through
  // decode_pool_, a payload it admitted just before close().
  decode_pool_->wait_idle();
  decode_pool_.reset();
}

void Receiver::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  for (auto& s : sources_) s->close();
  // Closed lanes stop accepting (ingest threads' in-hand payloads count as
  // drops) and stopped pacers release a throttled ingest thread at once.
  // The next admission drains what is still queued and accounts it.
  for (auto& l : lanes_) {
    l->lane.close();
    l->pacer.stop();
  }
  {
    MutexLock lock(window_mutex_);
    window_closed_ = true;
  }
  queue_.close();
}

std::optional<msgpack::WireBatch> Receiver::next() { return queue_.pop(); }

ReceiverStats Receiver::stats() const {
  ReceiverStats s;
  counters_.load_into(s);
  // The consumer queue tracks its own high-water mark inside push — the old
  // per-delivery size() sample paid a second lock round-trip per batch.
  s.queue_peak_depth = queue_.counts().peak_depth;
  s.pool_threads_current = decode_pool_->thread_count();
  s.lanes.reserve(lanes_.size());
  for (const auto& l : lanes_) s.lanes.push_back(l->lane.stats());
  if (tracer_.enabled()) s.latency = tracer_.summaries();
  return s;
}

json::Value to_json(const ReceiverStats& s) {
  json::Object o;
  obs::put_metrics(o, s);
  o["lanes"] = obs::metrics_array(s.lanes);
  // Present only when tracing — see the matching note on to_json(DaemonStats).
  if (!s.latency.empty()) o["latency"] = obs::to_json(s.latency);
  return json::Value(std::move(o));
}

std::set<std::string> gauges(const ReceiverStats&) {
  std::set<std::string> g(obs::kStageQuantileLeaves.begin(), obs::kStageQuantileLeaves.end());
  obs::collect_gauges<ReceiverStats>(g);
  obs::collect_gauges<LaneStats>(g);
  return g;
}

// ------------------------------------------------------ delivery bookkeeping

msgpack::WireBatch Receiver::decode_payload(const Payload& payload, bool& error) {
  // Zero-copy decode: every sample in the result is a view sharing ownership
  // of `payload`'s storage; the receive buffer lives (and its pool slot
  // stays out) exactly until the consumer drops the batch.
  msgpack::WireBatch batch;
  error = false;
  auto t0 = std::chrono::steady_clock::now();
  try {
    batch = msgpack::BatchCodec::decode(payload);
  } catch (const std::exception& e) {
    log::error("receiver: undecodable payload (", e.what(), ")");
    counters_.decode_errors.fetch_add(1, std::memory_order_relaxed);
    error = true;
  }
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
  counters_.decode_ns.fetch_add(static_cast<std::uint64_t>(ns), std::memory_order_relaxed);
  return batch;
}

std::uint32_t Receiver::sender_for_source(std::size_t source_index) const {
  // One source per sender (including the trivial 1:1 case) makes the source
  // index a sound sender id; a single source muxing several senders has no
  // per-sender identity on the wire, so the epoch algebra runs anonymous.
  if (sources_.size() == config_.num_senders) return static_cast<std::uint32_t>(source_index);
  return EpochSequencer<msgpack::WireBatch>::kUnattributed;
}

void Receiver::process_batch(msgpack::WireBatch&& batch, std::size_t wire_bytes,
                             std::uint32_t sender) {
  // Caller holds delivery_mutex_: the epoch algebra and the queue pushes it
  // triggers run strictly one batch at a time, in sequence order.
  if (batch.last) {
    epochs_.sentinel(batch.epoch, sender, batch.sent_count, delivery_, delivery_);
  } else {
    counters_.batches_received.fetch_add(1, std::memory_order_relaxed);
    counters_.samples_received.fetch_add(batch.samples.size(), std::memory_order_relaxed);
    counters_.bytes_received.fetch_add(wire_bytes, std::memory_order_relaxed);
    if (timestamps_) {
      timestamps_->record("batch_recv", static_cast<std::int64_t>(batch.batch_id));
    }
    epochs_.data(batch.epoch, sender, std::move(batch), delivery_, delivery_);
  }
  sync_epoch_telemetry_locked();
}

void Receiver::apply_sender_note_locked(Note note, std::uint32_t sender) {
  // Caller holds delivery_mutex_. A death may complete epochs the dead
  // sender was holding back, so it gets the same delivery callbacks as a
  // batch.
  if (note == Note::kSenderDead) {
    log::warn("receiver: sender ", sender, " declared dead; repairing in-flight epochs");
    epochs_.sender_dead(sender, delivery_, delivery_);
  } else if (note == Note::kSenderRevived) {
    log::info("receiver: sender ", sender, " revived; epochs wait for it again");
    epochs_.sender_revived(sender);
  }
  sync_epoch_telemetry_locked();
}

void Receiver::sync_epoch_telemetry_locked() {
  counters_.epochs_repaired.store(epochs_.epochs_repaired(), std::memory_order_relaxed);
  const std::uint64_t stale = epochs_.stale_drops();
  if (stale != counters_.dropped_dead_sender.load(std::memory_order_relaxed)) {
    counters_.dropped_dead_sender.store(stale, std::memory_order_relaxed);
    if (!dead_drop_logged_.exchange(true, std::memory_order_relaxed)) {
      log::warn("receiver: dropping batch(es) re-sent for epochs already repaired after a "
                "sender death; counting in ReceiverStats::dropped_dead_sender");
    }
  }
}

void Receiver::post_sender_note(std::size_t source_index, Note note) {
  if (source_index >= sources_.size()) return;
  const std::uint32_t sender = sender_for_source(source_index);
  // Ride the source's lane so the declaration is ordered behind every
  // payload the source already delivered — death must not stale-drop the
  // dead sender's own in-flight tail. The poster is a feeder until its
  // token is queued, so the stream cannot end under it.
  bool feeding = false;
  {
    MutexLock lock(window_mutex_);
    if (feeders_ > 0) {
      ++feeders_;
      feeding = true;
    }
  }
  Inbound in;
  in.note = note;
  in.sender = sender;
  if (!feeding || !push_and_admit(source_index, in)) {
    // Lane closed: the source's stream already ended, nothing of it is in
    // front of us — apply directly.
    MutexLock delivery(delivery_mutex_);
    apply_sender_note_locked(note, sender);
  }
  if (feeding) retire_feeder();
}

void Receiver::note_sender_dead(std::size_t source_index) {
  if (closed_.load(std::memory_order_acquire)) return;
  post_sender_note(source_index, Note::kSenderDead);
}

void Receiver::note_sender_revived(std::size_t source_index) {
  if (closed_.load(std::memory_order_acquire)) return;
  post_sender_note(source_index, Note::kSenderRevived);
}

void Receiver::EpochDelivery::operator()(msgpack::WireBatch&& ready) const {
  receiver.emit(std::move(ready));
}

void Receiver::EpochDelivery::operator()(std::uint32_t epoch, std::uint64_t expected) const {
  receiver.counters_.epochs_completed.fetch_add(1, std::memory_order_relaxed);
  if (receiver.timestamps_) receiver.timestamps_->record("epoch_complete", epoch);
  receiver.emit(msgpack::BatchCodec::make_sentinel(0, epoch, expected));
}

void Receiver::emit(msgpack::WireBatch&& batch) {
  // Caller holds delivery_mutex_ (asserted: the epoch algebra reaches here
  // through lambda callbacks the analysis cannot follow). A rejected push
  // means the consumer queue closed under us: keep the epoch algebra running
  // (gaps must still fill, window slots must still free) but count every
  // decoded data batch that will never be seen — the old engine lost these
  // silently.
  delivery_mutex_.assert_held();
  const bool is_marker = batch.last;
  if (!delivery_rejected_) {
    if (queue_.push(std::move(batch))) {
      if (!is_marker) delivered_batches_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    delivery_rejected_ = true;
  }
  if (is_marker) return;  // synthesized markers are not lost data
  post_receive_drops_.fetch_add(1, std::memory_order_relaxed);
  count_drop(1, "consumer queue closed with decoded batches in flight");
}

namespace {

/// Shutdown-path classification of a raw payload the engine refused to
/// admit: only successfully-decoding data batches count as lost data —
/// epoch sentinels follow emit()'s "markers are not lost data" rule and
/// garbage would have become a tombstone, not a delivery. Cold path only
/// (the engine is closing), so the throwaway decode costs nothing that
/// matters.
bool payload_is_data(const Payload& payload) {
  try {
    return !msgpack::BatchCodec::decode(payload).last;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

void Receiver::count_drop(std::uint64_t n, const char* where) {
  counters_.dropped_on_close.fetch_add(n, std::memory_order_relaxed);
  // The one log line for every shutdown-drop path; exchange() keeps it to a
  // single emission across all of them.
  if (!drop_logged_.exchange(true, std::memory_order_relaxed)) {
    log::warn("receiver: ", where, "; counting drops in ReceiverStats::dropped_on_close");
  }
}

void Receiver::end_of_stream_locked() {
  // Account batches still held for epochs that can never complete (a sender
  // died mid-epoch); the caller closes the consumer queue afterwards.
  if (!closed_.load(std::memory_order_acquire)) {
    // The stream ended on its own (every source finished — cleanly or
    // dead), not by a local close: nothing further can arrive, so run the
    // end-of-stream repair. Epochs with direct evidence complete degraded
    // and their held batches deliver instead of leaking.
    epochs_.finish(delivery_, delivery_);
    sync_epoch_telemetry_locked();
  }
  // A locally closed receiver skips the repair: whatever is still held
  // counts as shutdown fallout, exactly as before.
  std::size_t held = epochs_.held_count();
  if (held > 0) {
    post_receive_drops_.fetch_add(held, std::memory_order_relaxed);
    count_drop(held, "stream ended with decoded batch(es) held for incomplete epochs");
  }
  // Conservation, with nothing further able to arrive: every data batch the
  // receiver counted off the wire was delivered to the consumer queue,
  // dropped when that queue closed under us or its epoch could never
  // complete, or stale-dropped after a sender death. Held batches were just
  // folded into post_receive_drops_ above, so the books must balance here.
  EMLIO_AUDIT_EQ("receiver batch conservation",
                 counters_.batches_received.load(std::memory_order_relaxed),
                 delivered_batches_.load(std::memory_order_relaxed) +
                     post_receive_drops_.load(std::memory_order_relaxed) +
                     epochs_.stale_drops());
}

namespace {

/// Fill a receiver-side trace's identity from its decoded batch, and graft
/// the sender's on-wire origin stamp (trace_wire) as an upstream "wire"
/// stage — the trace then starts at the daemon's send decision, so e2e
/// covers sender-queue residency + transit too (same-host steady clocks).
void adopt_batch_identity(obs::BatchTrace& trace, const msgpack::WireBatch& batch,
                          std::size_t wire_bytes) {
  trace.epoch = batch.epoch;
  trace.batch_id = batch.batch_id;
  trace.node_id = batch.node_id;
  trace.shard_id = batch.shard_id;
  trace.nsamples = batch.samples.size();
  trace.wire_bytes = wire_bytes;
  trace.prepend(obs::Stage::kWire, static_cast<std::int64_t>(batch.trace_origin_ns));
}

}  // namespace

// ------------------------------------------------- ingest, admission, decode

void Receiver::ingest_loop(net::MessageSource& source, std::size_t source_index) {
  // Pull raw payloads off one source into its lane. A full lane blocks
  // here (Lane::push counts the per-lane enqueue stall), which blocks the
  // transport, which blocks that daemon — per-source backpressure that never
  // touches the other lanes.
  SourceLane& lane = *lanes_[source_index];
  const std::uint32_t sender = sender_for_source(source_index);
  while (auto payload = source.recv()) {
    Inbound in;
    in.payload = std::move(*payload);
    in.sender = sender;
    // The trace starts the moment the payload leaves the transport; pacing,
    // lane residency and any wait for a decode slot accrue to the "ingest"
    // stage, which ends at admission.
    if (tracer_.enabled()) in.trace.begin(obs::now_ns());
    lane.pacer.pace();  // the lane_rate cap; close() stops it
    if (!push_and_admit(source_index, in)) {
      // Shutting down: the lane rejected a payload this thread already
      // pulled off the wire — without the count it would simply vanish
      // (received != delivered + dropped, and nobody would know why).
      // (Rejected pushes leave the payload in place, so it is inspectable.)
      if (payload_is_data(in.payload)) {
        count_drop(1, "engine closed with a payload pulled off the wire mid-admission");
      }
      break;
    }
  }
  if (!closed_.load(std::memory_order_acquire) &&
      source.end_state() == net::SourceEnd::kDeadPeer) {
    // Dead peer (reconnect window exhausted, if any): declare the sender
    // dead *behind* everything it already delivered by riding its own lane.
    Inbound note;
    note.note = Note::kSenderDead;
    note.sender = sender;
    // A closed lane rejects it — then the engine is ending anyway.
    push_and_admit(source_index, note);
  }
  // This source is done (transport closed or engine closing): its lane
  // drains through admission, and the stream ends once every feeder has
  // left and the window has emptied.
  lane.lane.close();
  retire_feeder();
}

bool Receiver::push_and_admit(std::size_t source_index, Inbound& in) {
  if (!lanes_[source_index]->lane.push(in)) return false;
  admit_more(Retire::kNone, source_index);
  return true;
}

void Receiver::retire_feeder() {
  if (!admit_more(Retire::kFeeder)) return;
  MutexLock delivery(delivery_mutex_);
  end_of_stream_locked();
  queue_.close();
}

bool Receiver::admit_more(Retire retire, std::size_t pushed) {
  // Admission runs inline on whichever thread just changed its inputs: an
  // ingest thread that pushed, a decode completion that freed a slot, a
  // feeder that left. Under window_mutex_ a RoundRobin picks the next lane
  // with a queued head — the pattern of Daemon::admit_more — pops it and
  // stamps its arrival ticket while the window has room, one payload per
  // pass. The ticket order IS the delivery order, so per-lane streams stay
  // in arrival order; the pick only decides how lanes interleave.
  bool apply = true;
  for (;;) {
    std::optional<Inbound> admitted;
    std::vector<Inbound> refused;
    std::size_t lane = kNoLane;
    std::uint64_t ticket = 0;
    bool more = false;
    bool over = false;
    {
      MutexLock lock(window_mutex_);
      if (apply) {
        apply = false;
        if (pushed != kNoLane) {
          ++queued_[pushed];
          ++queued_total_;
        }
        if (retire == Retire::kFeeder) --feeders_;
        if (retire == Retire::kDecode) --inflight_;
      }
      if (window_closed_) {
        // Refused admission by the closing engine: drain what is queued and
        // account it below, keeping pulled == delivered + dropped.
        for (std::size_t i = 0; i < lanes_.size(); ++i) {
          for (; queued_[i] > 0; --queued_[i]) refused.push_back(*lanes_[i]->lane.try_pop());
        }
        queued_total_ = 0;
      } else if (inflight_ < window_) {
        // Local alias: pick() runs the predicate synchronously, under the
        // lock, but a lambda body is analyzed as a separate function.
        const auto& queued = queued_;
        lane = cycle_.pick(queued.size(), [&](std::size_t i) { return queued[i] > 0; });
        if (lane != kNoLane) {
          admitted = lanes_[lane]->lane.try_pop();
          EMLIO_DCHECK(admitted.has_value());
          --queued_[lane];
          --queued_total_;
          ++inflight_;
          ticket = next_ticket_++;
          stalled_ = false;
        }
      }
      if (!window_closed_ && inflight_ >= window_ && queued_total_ > 0 && !stalled_) {
        // A payload waits for a slot: decode (or the consumer behind it) is
        // the bottleneck right now. Counted once per waiting payload; the
        // flag clears when the next one is admitted.
        stalled_ = true;
        counters_.decode_stalls.fetch_add(1, std::memory_order_relaxed);
      }
      more = admitted && inflight_ < window_ && queued_total_ > 0;
      over = retire != Retire::kNone && feeders_ == 0 && inflight_ == 0 && queued_total_ == 0;
    }
    for (const Inbound& in : refused) {
      if (in.note == Note::kData && payload_is_data(in.payload)) {
        count_drop(1, "engine closed with a payload pulled off the wire mid-admission");
      }
    }
    if (admitted) {
      if (admitted->note == Note::kData) {
        lanes_[lane]->lane.add_delivered_bytes(admitted->payload.size());
        // Ingest ends here; the pool's run queue is the decode-wait stage,
        // stamped in decode_job.
        if (admitted->trace.active()) admitted->trace.note(obs::Stage::kIngest, obs::now_ns());
      }
      // Liveness tokens take a ticket like any payload: the death/revival
      // must land in the delivery stream behind the sender's
      // already-admitted batches.
      decode_pool_->post([this, ticket, in = std::move(*admitted)]() mutable {
        decode_job(ticket, std::move(in));
      });
    }
    if (!more) return over;
  }
}

void Receiver::decode_job(std::uint64_t ticket, Inbound in) {
  Decoded decoded;
  decoded.note = in.note;
  decoded.sender = in.sender;
  if (in.note == Note::kData) {
    decoded.wire_bytes = in.payload.size();
    obs::BatchTrace* tp = in.trace.active() ? &in.trace : nullptr;
    if (tp) in.trace.note(obs::Stage::kDecodeWait, obs::now_ns());
    {
      obs::StageTimer dec(tp, obs::Stage::kDecode);
      decoded.batch = decode_payload(in.payload, decoded.error);
    }
    if (tp && !decoded.error) {
      adopt_batch_identity(in.trace, decoded.batch, decoded.wire_bytes);
    }
  }
  decoded.trace = in.trace;
  // A failed decode still fills its ticket (as a tombstone) — the ordered
  // stream must never stall on a gap.
  bool in_order;
  {
    MutexLock lock(sequencer_mutex_);
    in_order = resequencer_.put(ticket, std::move(decoded));
  }
  if (!in_order) counters_.resequence_stalls.fetch_add(1, std::memory_order_relaxed);
  pump_delivery();
}

void Receiver::pump_delivery() {
  // Whoever holds delivery_mutex_ drains the sequencer's ready prefix in
  // ticket order. Workers that lose the try_lock go straight back to
  // decoding — their parked item is the current drainer's problem. The
  // re-check after unlock closes the race where an item parks while the
  // drainer is between "saw empty" and "released the lock".
  for (;;) {
    if (!delivery_mutex_.try_lock()) return;  // an active drainer will pick it up
    for (;;) {
      std::optional<Decoded> head;
      {
        MutexLock lock(sequencer_mutex_);
        if (resequencer_.front()) head = resequencer_.pop_front();
      }
      if (!head) break;
      process_decoded(std::move(*head));
    }
    delivery_mutex_.unlock();
    {
      MutexLock lock(sequencer_mutex_);
      if (!resequencer_.front()) return;
    }
  }
}

void Receiver::process_decoded(Decoded&& decoded) {
  // Caller holds delivery_mutex_.
  if (decoded.note != Note::kData) {
    apply_sender_note_locked(decoded.note, decoded.sender);
  } else if (!decoded.error) {
    obs::BatchTrace& trace = decoded.trace;
    const bool traced = trace.active() && !decoded.batch.last;
    // Time parked behind a ticket gap + waiting for the drainer.
    if (traced) trace.note(obs::Stage::kResequence, obs::now_ns());
    process_batch(std::move(decoded.batch), decoded.wire_bytes, decoded.sender);
    if (traced) {
      trace.note(obs::Stage::kDeliver, obs::now_ns());
      tracer_.complete(trace);
    }
  }
  // Delivered (or tombstoned): the window slot frees and admission takes
  // the next queued payload. We already hold delivery_mutex_, so a last
  // retirement runs the end-of-stream bookkeeping inline.
  if (admit_more(Retire::kDecode)) {
    end_of_stream_locked();
    queue_.close();
  }
}

}  // namespace emlio::core
