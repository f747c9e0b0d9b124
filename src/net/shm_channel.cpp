#include "net/shm_channel.h"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace emlio::net {

namespace {

// How long a parked waiter sleeps before re-checking close flags and peer
// liveness. Purely a dead-peer backstop: a live peer wakes us via the
// doorbell futex immediately.
constexpr std::chrono::milliseconds kParkSlice{100};

// Busy-spin pacing: burn a few iterations back-to-back, then yield so a
// same-core peer (single-CPU hosts, oversubscribed CI) can make progress.
void spin_pause(std::size_t iteration) {
  if ((iteration & 63u) == 63u) std::this_thread::yield();
}

}  // namespace

// --------------------------------------------------------- ShmMessageSink

ShmMessageSink::ShmMessageSink(const std::string& name, const ShmOptions& opts)
    : seg_(ShmSegment::create(name, ShmSegment::Options{opts.slab_bytes, opts.slab_count})),
      opts_(opts) {}

ShmMessageSink::~ShmMessageSink() { close(); }

bool ShmMessageSink::send(Payload message) { return send_spliced(std::move(message)); }

bool ShmMessageSink::send_spliced(SplicedPayload message) {
  if (message.size() > seg_->slab_bytes()) {
    throw std::runtime_error("shm send: message of " + std::to_string(message.size()) +
                             " bytes exceeds slab_bytes=" + std::to_string(seg_->slab_bytes()) +
                             " — raise ShmOptions::slab_bytes");
  }
  MutexLock lock(send_mu_);

  // Acquire a free slab: spin briefly (the receiver usually returns one
  // within the spin budget when it is keeping up), then park on the
  // free-ring doorbell. Every park timeout re-checks close flags and
  // receiver liveness so exhaustion backpressure can never deadlock.
  std::optional<std::uint64_t> desc;
  std::size_t spins = 0;
  while (true) {
    if (closed_.load(std::memory_order_relaxed) || seg_->source_closed()) return false;
    desc = seg_->free_pop();
    if (desc) break;
    if (spins < opts_.spin_iterations) {
      spin_pause(spins++);
      continue;
    }
    const std::uint32_t snap = seg_->free_bell_seq();
    desc = seg_->free_pop();  // re-check after snapshot: no lost wake-up
    if (desc) break;
    if (closed_.load(std::memory_order_relaxed) || seg_->source_closed()) return false;
    const bool moved = seg_->wait_free_bell(snap, kParkSlice);
    if (!moved && !seg_->attacher_alive()) return false;  // receiver crashed
    spins = 0;
  }

  const std::uint32_t index = shm_desc_index(*desc);
  // The one copy this transport makes — its boundary (channel.h): head
  // pieces and spliced samples enter the shared mapping here, in wire
  // order, and are never copied again.
  std::uint8_t* slab = seg_->slab_ptr(index);
  message.for_each_piece([&](std::span<const std::uint8_t> piece) {
    std::memcpy(slab, piece.data(), piece.size());
    slab += piece.size();
  });
  seg_->data_push(shm_desc_make(index, static_cast<std::uint32_t>(message.size())));
  seg_->ring_data_bell();
  return true;
}

void ShmMessageSink::close() {
  if (closed_.exchange(true, std::memory_order_seq_cst)) return;
  seg_->ring_free_bell();  // unblock a send parked waiting for a slab
  {
    // Taking send_mu_ waits out any in-flight send, so the close flag (a
    // release store) is ordered after the final data push — a receiver that
    // observes it can drain the ring to empty and miss nothing.
    MutexLock lock(send_mu_);
    seg_->mark_sink_closed();
  }
  seg_->ring_data_bell();  // wake the receiver to observe the close
}

// ------------------------------------------------------- ShmMessageSource

ShmMessageSource::ShmMessageSource(const std::string& name, std::size_t spin_iterations)
    : seg_(ShmSegment::attach(name)), spin_iterations_(spin_iterations) {}

ShmMessageSource::ShmMessageSource(std::shared_ptr<ShmSegment> seg, std::size_t spin_iterations)
    : seg_(std::move(seg)), spin_iterations_(spin_iterations) {}

std::unique_ptr<ShmMessageSource> ShmMessageSource::attach_wait(const std::string& name,
                                                                std::chrono::milliseconds timeout,
                                                                std::size_t spin_iterations) {
  return std::unique_ptr<ShmMessageSource>(
      new ShmMessageSource(ShmSegment::attach_wait(name, timeout), spin_iterations));
}

ShmMessageSource::~ShmMessageSource() { close(); }

std::optional<Payload> ShmMessageSource::wrap_desc(std::uint64_t desc) {
  const std::uint32_t index = shm_desc_index(desc);
  const std::uint32_t length = shm_desc_length(desc);
  // The release closure captures the segment shared_ptr: the mapping (and
  // the sender's ability to reuse this slab) outlives both endpoints for as
  // long as any decoded view of these bytes is alive. free_producer_mu
  // serializes releases racing on arbitrary consumer threads.
  auto seg = seg_;
  return Payload::wrap_external(seg->slab_ptr(index), length, [seg, index]() {
    {
      MutexLock lock(seg->free_producer_mu());
      seg->free_push(shm_desc_make(index, 0));
    }
    seg->ring_free_bell();
  });
}

std::optional<Payload> ShmMessageSource::recv() {
  MutexLock lock(recv_mu_);
  std::size_t spins = 0;
  while (true) {
    if (closed_.load(std::memory_order_relaxed)) return std::nullopt;
    if (auto desc = seg_->data_pop()) return wrap_desc(*desc);
    if (seg_->sink_closed()) {
      // The close flag was released after the final push; one more pop under
      // its acquire drains a message that raced with close.
      if (auto desc = seg_->data_pop()) return wrap_desc(*desc);
      return std::nullopt;
    }
    if (spins < spin_iterations_) {
      spin_pause(spins++);
      continue;
    }
    const std::uint32_t snap = seg_->data_bell_seq();
    if (auto desc = seg_->data_pop()) return wrap_desc(*desc);  // no lost wake-up
    if (closed_.load(std::memory_order_relaxed) || seg_->sink_closed()) continue;
    const bool moved = seg_->wait_data_bell(snap, kParkSlice);
    spins = 0;
    if (!moved && !seg_->creator_alive()) {
      std::fprintf(stderr,
                   "emlio: shm source %s: daemon (pid %u) died mid-stream; ending stream\n",
                   seg_->name().c_str(), seg_->header().creator_pid);
      end_.store(SourceEnd::kDeadPeer, std::memory_order_release);
      return std::nullopt;
    }
  }
}

void ShmMessageSource::close() {
  if (closed_.exchange(true, std::memory_order_seq_cst)) return;
  seg_->mark_source_closed();
  seg_->ring_data_bell();  // unblock our own parked recv
  seg_->ring_free_bell();  // fail the sender's parked send
}

}  // namespace emlio::net
