// Shared-memory MessageSink/MessageSource — the same-host zero-syscall lane.
//
// ShmMessageSink (daemon side) creates a ShmSegment; ShmMessageSource
// (receiver side) attaches to it by name. The sink lends its slabs
// (channel.h): the daemon reserves one when it admits a batch, its encode
// pool writes the batch straight into it, and publish() only pushes an
// 8-byte descriptor into the data ring — one pass over each byte, and
// nothing enters the kernel. send() (the sentinel, and callers that do not
// lend) is a client of the same calls: it reserves a slab, copies the
// message into it — the one copy every transport is allowed at its
// boundary — and publishes it. A recv() pops a descriptor and wraps the
// slab in a refcount-pinned Payload (Payload::wrap_external) whose release
// closure returns the slab to the free ring, so the receiver's decode views
// read batch bytes directly out of shared memory and the slab recycles at
// exactly the consumer's pace — the payload layer's zero-copy invariant,
// across a process boundary.
//
// Backpressure falls out of the slab pool: slab_count is the in-flight
// budget (the HWM analogue). A slab is in flight from the moment it is lent
// (a send borrows one too) until the receiver drops the last view of its
// message; a slot dropped unpublished goes back to a list in the sink's
// process, never onto the free ring, whose only producer is the receiver. A
// send or slot wait that finds no slab blocks — parked on the free-ring
// doorbell's futex — until one comes back. Blocking never hangs on a dead
// peer: every park has a timeout, and the timeout path checks peer liveness
// (pid probe) and the close flags, so a crashed receiver fails the send and
// a crashed daemon ends the source's stream with a warning instead of a
// deadlock.
//
// Both endpoints implement the channel.h contracts exactly, so the Daemon
// and Receiver staged engines run over shared memory with zero changes.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

#include "net/channel.h"
#include "net/shm_segment.h"

namespace emlio::net {

struct ShmOptions {
  std::size_t slab_bytes = 4u << 20;  ///< max message size (one encoded batch)
  std::size_t slab_count = 16;        ///< in-flight budget (HWM analogue)
};

/// Sender endpoint; owns (creates) the segment and unlinks it on
/// destruction. Thread-safe: any number of threads may send, reserve and
/// publish at once; neither try_reserve nor publish ever waits behind a send
/// parked for a slab.
class ShmMessageSink final : public MessageSink {
 public:
  ShmMessageSink(const std::string& name, const ShmOptions& opts = {});
  ~ShmMessageSink() override;

  /// Reserves a slot (await_slot on try_reserve), copies the message into
  /// it and publishes it. Blocks while all slabs are in flight
  /// (backpressure). Returns false once the channel is closed from either
  /// end or the receiver process is gone. Throws if the message exceeds
  /// slab_bytes — that is a configuration error, not a runtime condition.
  /// A spliced message takes MessageSink's default flatten first.
  bool send(Payload message) override;

  /// Slots are whole slabs: first the slots dropped unpublished, then the
  /// free ring. A publish is one descriptor push. A message larger than
  /// slab_bytes cannot be written into one: BatchCodec::encode_into throws,
  /// naming slab_bytes.
  bool lends() const override { return true; }
  Slot try_reserve() override;
  bool publish(Slot slot, std::size_t length) override;
  bool await_slot(const std::function<bool()>& ready) override;

  /// Publishes the close flag so the receiver drains the ring and ends its
  /// stream. Unblocks any send or slot wait parked for a slab; a publish
  /// racing the close either lands before the flag or fails. Idempotent.
  void close() override;

  /// The data plane never enters the kernel: descriptors and bytes travel
  /// through the mapping, and doorbell futexes are parking, not byte moves.
  std::uint64_t data_syscalls() const override { return 0; }

  const std::string& segment_name() const noexcept { return seg_->name(); }

 private:
  void unreserve(std::uint64_t index) noexcept override;
  /// A slab this process may write, or nullopt when none is free.
  std::optional<std::uint32_t> take_slab();
  /// Push slab `index` holding `length` bytes onto the data ring, unless
  /// the channel is closed from either end.
  bool push(std::uint32_t index, std::size_t length);

  std::shared_ptr<ShmSegment> seg_;
  /// The free ring's consumer side, and the slabs lent and dropped
  /// unpublished (reserved to slab_count, so unreserve never allocates).
  Mutex slab_mu_;
  std::vector<std::uint32_t> unpublished_ EMLIO_GUARDED_BY(slab_mu_);
  /// The data ring's producer side. close() takes it to order the close
  /// flag after the final push.
  Mutex data_mu_;
  std::atomic<bool> closed_{false};
};

/// Receiver endpoint; attaches to a segment created by ShmMessageSink.
/// Thread-safe (recv serialized internally). Payloads returned by recv()
/// keep the segment mapped until their last handle drops, so they may
/// safely outlive the source.
class ShmMessageSource final : public MessageSource {
 public:
  /// Attach to an existing segment; throws if it does not exist or is stale
  /// (dead creator, closed, or layout-incompatible — see ShmSegment).
  explicit ShmMessageSource(const std::string& name);

  /// Attach, waiting up to `timeout` for the daemon to create the segment
  /// (start-order independence, like the TCP connect-retry loop). Stale or
  /// incompatible segments still fail immediately.
  static std::unique_ptr<ShmMessageSource> attach_wait(const std::string& name,
                                                       std::chrono::milliseconds timeout);

  ~ShmMessageSource() override;

  /// Pops the next descriptor and wraps its slab zero-copy. After the sink
  /// closes, keeps returning the messages already in the ring, then empty.
  /// Returns empty (with a stderr warning and end_state() == kDeadPeer) if
  /// the daemon process dies mid-stream.
  std::optional<Payload> recv() override;

  /// Ends the stream immediately (messages still in the ring are dropped,
  /// matching the TCP pull socket) and unblocks a sender waiting for slabs.
  void close() override;

  /// kDeadPeer once a park-timeout pid probe caught the daemon dead
  /// mid-stream; kClean for a deliberate sink close (or a live stream).
  SourceEnd end_state() const override { return end_.load(std::memory_order_acquire); }

 private:
  explicit ShmMessageSource(std::shared_ptr<ShmSegment> seg);
  std::optional<Payload> wrap_desc(std::uint64_t desc);

  std::shared_ptr<ShmSegment> seg_;
  Mutex recv_mu_;               // serializes data-pop ordering
  std::atomic<bool> closed_{false};
  std::atomic<SourceEnd> end_{SourceEnd::kClean};
};

}  // namespace emlio::net
