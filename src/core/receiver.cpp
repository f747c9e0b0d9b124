#include "core/receiver.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "common/debug.h"
#include "common/log.h"
#include "common/thread_name.h"

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
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    states_.push_back(std::make_unique<SourceState>(config_.lane_rate));
  }
  {
    MutexLock lock(delivery_mutex_);
    feeders_ = sources_.size();
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
}

void Receiver::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  // Closed sources end their ingest loops; stopped pacers release a
  // throttled ingest thread at once, and the closed queue rejects (and
  // counts) whatever an ingest thread still delivers.
  for (auto& s : sources_) s->close();
  for (auto& st : states_) st->pacer.stop();
  queue_.close();
}

std::optional<msgpack::WireBatch> Receiver::next() { return queue_.pop(); }

ReceiverStats Receiver::stats() const {
  ReceiverStats s;
  counters_.load_into(s);
  // The consumer queue tracks its own high-water mark inside push — the old
  // per-delivery size() sample paid a second lock round-trip per batch.
  s.queue_peak_depth = queue_.counts().peak_depth;
  s.lanes.reserve(states_.size());
  for (std::size_t i = 0; i < states_.size(); ++i) {
    LaneStats row;
    row.name = "src" + std::to_string(i);
    row.delivered_items = states_[i]->items.load(std::memory_order_relaxed);
    row.delivered_bytes = states_[i]->bytes.load(std::memory_order_relaxed);
    row.closed = states_[i]->done.load(std::memory_order_relaxed) ||
                 closed_.load(std::memory_order_relaxed);
    s.lanes.push_back(std::move(row));
  }
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

std::optional<msgpack::WireBatch> Receiver::decode_payload(const Payload& payload) {
  // Zero-copy decode: every sample in the result is a view sharing ownership
  // of `payload`'s storage; the receive buffer lives (and its pool slot
  // stays out) exactly until the consumer drops the batch.
  std::optional<msgpack::WireBatch> batch;
  auto t0 = std::chrono::steady_clock::now();
  try {
    batch = msgpack::BatchCodec::decode(payload);
  } catch (const std::exception& e) {
    log::error("receiver: undecodable payload (", e.what(), ")");
    counters_.decode_errors.fetch_add(1, std::memory_order_relaxed);
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
  // triggers run strictly one batch at a time.
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
  } else {
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
    if (!std::exchange(dead_drop_logged_, true)) {
      log::warn("receiver: dropping batch(es) re-sent for epochs already repaired after a "
                "sender death; counting in ReceiverStats::dropped_dead_sender");
    }
  }
}

void Receiver::post_sender_note(std::size_t source_index, Note note) {
  if (closed_.load(std::memory_order_acquire) || source_index >= sources_.size()) return;
  MutexLock delivery(delivery_mutex_);
  apply_sender_note_locked(note, sender_for_source(source_index));
}

void Receiver::note_sender_dead(std::size_t source_index) {
  post_sender_note(source_index, Note::kSenderDead);
}

void Receiver::note_sender_revived(std::size_t source_index) {
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
  // but count every decoded data batch that will never be seen.
  delivery_mutex_.assert_held();
  const bool is_marker = batch.last;
  if (!delivery_rejected_) {
    if (queue_.push(std::move(batch))) {
      if (!is_marker) ++delivered_batches_;
      return;
    }
    delivery_rejected_ = true;
  }
  if (is_marker) return;  // synthesized markers are not lost data
  ++post_receive_drops_;
  count_drop(1, "consumer queue closed with decoded batches in flight");
}

void Receiver::count_drop(std::uint64_t n, const char* where) {
  counters_.dropped_on_close.fetch_add(n, std::memory_order_relaxed);
  // The one log line for every shutdown-drop path.
  if (!std::exchange(drop_logged_, true)) {
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
  // counts as shutdown fallout.
  std::size_t held = epochs_.held_count();
  if (held > 0) {
    post_receive_drops_ += held;
    count_drop(held, "stream ended with decoded batch(es) held for incomplete epochs");
  }
  // Conservation, with nothing further able to arrive: every data batch the
  // receiver counted off the wire was delivered to the consumer queue,
  // dropped when that queue closed under us or its epoch could never
  // complete, or stale-dropped after a sender death. Held batches were just
  // folded into post_receive_drops_ above, so the books must balance here.
  EMLIO_AUDIT_EQ("receiver batch conservation",
                 counters_.batches_received.load(std::memory_order_relaxed),
                 delivered_batches_ + post_receive_drops_ + epochs_.stale_drops());
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

// -------------------------------------------------------------------- ingest

void Receiver::ingest_loop(net::MessageSource& source, std::size_t source_index) {
  set_thread_name("emlio-ingest" + std::to_string(source_index));
  SourceState& state = *states_[source_index];
  const std::uint32_t sender = sender_for_source(source_index);
  // Every payload pulled off the wire goes through delivery: after close()
  // the closed queue rejects a data batch and counts it in
  // dropped_on_close, and the loop stops pulling.
  while (!closed_.load(std::memory_order_acquire)) {
    std::optional<Payload> payload = source.recv();
    if (!payload) break;
    // The trace starts the moment the payload leaves the transport; the
    // ingest stage is the lane_rate pacing.
    obs::BatchTrace trace;
    obs::BatchTrace* tp = nullptr;
    if (tracer_.enabled()) {
      trace.begin(obs::now_ns());
      tp = &trace;
    }
    state.pacer.pace();  // the lane_rate cap; close() stops it
    if (tp) trace.note(obs::Stage::kIngest, obs::now_ns());
    state.items.fetch_add(1, std::memory_order_relaxed);
    state.bytes.fetch_add(payload->size(), std::memory_order_relaxed);
    std::optional<msgpack::WireBatch> batch;
    {
      obs::StageTimer dec(tp, obs::Stage::kDecode);
      batch = decode_payload(*payload);
    }
    if (!batch) continue;
    const bool traced = tp && !batch->last;
    if (traced) adopt_batch_identity(trace, *batch, payload->size());
    {
      MutexLock delivery(delivery_mutex_);
      process_batch(std::move(*batch), payload->size(), sender);
    }
    if (traced) {
      // The wait for the mutex, the epoch algebra and the queue push.
      trace.note(obs::Stage::kDeliver, obs::now_ns());
      tracer_.complete(trace);
    }
  }
  MutexLock delivery(delivery_mutex_);
  if (!closed_.load(std::memory_order_acquire) &&
      source.end_state() == net::SourceEnd::kDeadPeer) {
    // Dead peer (reconnect window exhausted, if any): everything the
    // sender delivered is in, so its epochs may repair now.
    apply_sender_note_locked(Note::kSenderDead, sender);
  }
  state.done.store(true, std::memory_order_relaxed);
  if (--feeders_ == 0) {
    end_of_stream_locked();
    queue_.close();
  }
}

}  // namespace emlio::core
