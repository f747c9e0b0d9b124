// Shared-memory MessageSink/MessageSource — the same-host zero-syscall lane.
//
// ShmMessageSink (daemon side) creates a ShmSegment; ShmMessageSource
// (receiver side) attaches to it by name. A send copies the message's head
// pieces and spliced samples straight into a free slab — the one copy every
// transport is allowed at its boundary (see channel.h) — and publishes an
// 8-byte descriptor into the data ring; nothing enters the kernel. A recv() pops a descriptor
// and wraps the slab in a refcount-pinned Payload (Payload::wrap_external)
// whose release closure returns the slab to the free ring, so the receiver's
// decode views read batch bytes directly out of shared memory and the slab
// recycles at exactly the consumer's pace — the PR 1 zero-copy invariant,
// now across a process boundary.
//
// Backpressure falls out of the slab pool: slab_count is the in-flight
// budget (the HWM analogue), and a sender that exhausts it blocks in send()
// — parked on the free-ring doorbell's futex — until the receiver releases
// a slab. Blocking never hangs on a dead peer: every park has a timeout,
// and the timeout path checks peer liveness (pid probe) and the close
// flags, so a crashed receiver fails the send and a crashed daemon ends the
// source's stream with a warning instead of a deadlock.
//
// Both endpoints implement the channel.h contracts exactly, so the Daemon
// and Receiver staged engines run over shared memory with zero changes.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <string>

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
/// destruction. Thread-safe: sends are serialized internally, so any number
/// of sender threads (the daemon runs one per sink lane) can use it directly.
class ShmMessageSink final : public MessageSink {
 public:
  ShmMessageSink(const std::string& name, const ShmOptions& opts = {});
  ~ShmMessageSink() override;

  /// send_spliced's no-splice case.
  bool send(Payload message) override;

  /// Copies the message's pieces (head ranges and splices, in wire order)
  /// into a free slab and publishes its descriptor. Blocks while all slabs
  /// are in flight (backpressure). Returns false once the channel is closed
  /// from either end or the receiver process is gone. Throws if the
  /// message's serialized size exceeds slab_bytes — that is a configuration
  /// error, not a runtime condition.
  bool send_spliced(SplicedPayload message) override;
  bool gathers() const override { return true; }

  /// Publishes the close flag so the receiver drains the ring and ends its
  /// stream. Unblocks any send stuck waiting for a slab. Idempotent.
  void close() override;

  /// The data plane never enters the kernel: descriptors and bytes travel
  /// through the mapping, and doorbell futexes are parking, not byte moves.
  std::uint64_t data_syscalls() const override { return 0; }

  const std::string& segment_name() const noexcept { return seg_->name(); }

 private:
  std::shared_ptr<ShmSegment> seg_;
  Mutex send_mu_;               // serializes free-pop + slab write + data-push
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
