#include "net/shm_channel.h"

#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace emlio::net {

namespace {

// How long a parked waiter sleeps before re-checking close flags and peer
// liveness. Purely a dead-peer backstop: a live peer wakes us via the
// doorbell futex immediately.
constexpr std::chrono::milliseconds kParkSlice{100};

}  // namespace

// --------------------------------------------------------- ShmMessageSink

ShmMessageSink::ShmMessageSink(const std::string& name, const ShmOptions& opts)
    : seg_(ShmSegment::create(name, ShmSegment::Options{opts.slab_bytes, opts.slab_count})) {
  MutexLock lock(slab_mu_);
  unpublished_.reserve(seg_->slab_count());
}

ShmMessageSink::~ShmMessageSink() { close(); }

std::optional<std::uint32_t> ShmMessageSink::take_slab() {
  MutexLock lock(slab_mu_);
  if (!unpublished_.empty()) {
    const std::uint32_t index = unpublished_.back();
    unpublished_.pop_back();
    return index;
  }
  if (auto desc = seg_->free_pop()) return shm_desc_index(*desc);
  return std::nullopt;
}

void ShmMessageSink::unreserve(std::uint64_t index) noexcept {
  {
    MutexLock lock(slab_mu_);
    unpublished_.push_back(static_cast<std::uint32_t>(index));
  }
  seg_->ring_free_bell();  // a send or slot wait parked for a slab takes it
}

bool ShmMessageSink::push(std::uint32_t index, std::size_t length) {
  {
    MutexLock lock(data_mu_);
    if (closed_.load(std::memory_order_relaxed) || seg_->source_closed()) return false;
    seg_->data_push(shm_desc_make(index, static_cast<std::uint32_t>(length)));
  }
  seg_->ring_data_bell();
  return true;
}

bool ShmMessageSink::send(Payload message) {
  if (message.size() > seg_->slab_bytes()) {
    throw std::runtime_error("shm send: message of " + std::to_string(message.size()) +
                             " bytes exceeds slab_bytes=" + std::to_string(seg_->slab_bytes()) +
                             " — raise ShmOptions::slab_bytes");
  }
  Slot slot;
  if (!await_slot([&] { return static_cast<bool>(slot = try_reserve()); })) return false;
  // The one copy this transport makes — its boundary (channel.h). memcpy,
  // not std::ranges::copy: on 256 KiB batches the latter ran ~15 % slower
  // in bench_micro_shm.
  if (message.size() > 0) std::memcpy(slot.bytes().data(), message.data(), message.size());
  return publish(std::move(slot), message.size());
}

MessageSink::Slot ShmMessageSink::try_reserve() {
  if (closed_.load(std::memory_order_relaxed) || seg_->source_closed()) return {};
  const auto index = take_slab();
  if (!index) return {};
  return lend({seg_->slab_ptr(*index), seg_->slab_bytes()}, *index);
}

bool ShmMessageSink::publish(Slot slot, std::size_t length) {
  const auto index = static_cast<std::uint32_t>(take_back(slot, length));
  if (push(index, length)) return true;
  unreserve(index);
  return false;
}

bool ShmMessageSink::await_slot(const std::function<bool()>& ready) {
  // Park on the free-ring doorbell between tries. The snapshot precedes
  // each try, so a slab returned in between moves the bell and the park
  // falls through; every park timeout re-checks the close flags and the
  // receiver's liveness, so exhaustion backpressure can never deadlock.
  while (true) {
    if (closed_.load(std::memory_order_relaxed) || seg_->source_closed()) return false;
    const std::uint32_t snap = seg_->free_bell_seq();
    if (ready()) return true;
    if (closed_.load(std::memory_order_relaxed) || seg_->source_closed()) return false;
    const bool moved = seg_->wait_free_bell(snap, kParkSlice);
    if (!moved && !seg_->attacher_alive()) return false;  // receiver crashed
  }
}

void ShmMessageSink::close() {
  if (closed_.exchange(true, std::memory_order_seq_cst)) return;
  seg_->ring_free_bell();  // unblock a send or slot wait parked for a slab
  {
    // Taking data_mu_ waits out an in-flight push, so the close flag (a
    // release store) is ordered after the final data push — a receiver
    // that observes it can drain the ring to empty and miss nothing. A push
    // that comes later sees closed_ and fails.
    MutexLock lock(data_mu_);
    seg_->mark_sink_closed();
  }
  seg_->ring_data_bell();  // wake the receiver to observe the close
}

// ------------------------------------------------------- ShmMessageSource

ShmMessageSource::ShmMessageSource(const std::string& name)
    : seg_(ShmSegment::attach(name)) {}

ShmMessageSource::ShmMessageSource(std::shared_ptr<ShmSegment> seg) : seg_(std::move(seg)) {}

std::unique_ptr<ShmMessageSource> ShmMessageSource::attach_wait(const std::string& name,
                                                                std::chrono::milliseconds timeout) {
  return std::unique_ptr<ShmMessageSource>(
      new ShmMessageSource(ShmSegment::attach_wait(name, timeout)));
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
  while (true) {
    if (closed_.load(std::memory_order_relaxed)) return std::nullopt;
    if (auto desc = seg_->data_pop()) return wrap_desc(*desc);
    if (seg_->sink_closed()) {
      // The close flag was released after the final push; one more pop under
      // its acquire drains a message that raced with close.
      if (auto desc = seg_->data_pop()) return wrap_desc(*desc);
      return std::nullopt;
    }
    const std::uint32_t snap = seg_->data_bell_seq();
    if (auto desc = seg_->data_pop()) return wrap_desc(*desc);  // no lost wake-up
    if (closed_.load(std::memory_order_relaxed) || seg_->sink_closed()) continue;
    const bool moved = seg_->wait_data_bell(snap, kParkSlice);
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
