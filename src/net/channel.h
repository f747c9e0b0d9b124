// Transport-neutral message channel interfaces.
//
// The daemon pushes serialized batches through a MessageSink; the receiver
// drains a MessageSource. Two transports implement these: real framed TCP
// (net/push_pull.h) and an in-process simulated link with injected RTT and
// bandwidth (net/sim_channel.h). The EMLIO core is written against these
// interfaces so the exact same daemon/receiver code runs over loopback TCP
// in production and over the latency-injected channel in tests.
//
// Messages are ref-counted Payloads, and the interfaces are move-only on the
// message: a send() transfers the handle into the transport and a recv()
// transfers it out, so a payload crosses every in-process hop (the daemon's
// prefetch lane, the sim link's in-flight queue, the TCP pull socket's
// shared queue) without its bytes ever being copied. The only copy a
// transport may make is at its boundary (kernel write/read, the shm slab).
//
// Into a sink that gathers, the daemon sends SplicedPayloads: a pooled
// msgpack head with its large samples spliced in by reference, so those
// bytes are first copied at the boundary itself. TCP gathers head pieces
// and splices into one sendmsg iovec list. A sink that cannot gather (the
// sim link, test wrappers) gets contiguous Payloads from the daemon; called
// directly, it inherits send_spliced's default, which flattens into pooled
// storage and calls send(Payload).
//
// A sink whose boundary is memory it owns can lend it instead (shm, whose
// slabs are the messages' final home): try_reserve() hands out a Slot over
// one whole slab, the daemon encodes a batch straight into it on its encode
// pool, and publish() sends it without another copy. Only samples large
// enough to splice are copied in on the sender thread, into the room the
// encoder left for them; shm's own send() is a client of these calls, and
// it does not gather. Every other sink keeps the defaults and never lends.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/payload.h"

namespace emlio::net {

/// Blocking message producer endpoint (PUSH side).
class MessageSink {
 public:
  class Slot;

  virtual ~MessageSink() = default;

  /// Send one message. The Payload is MOVED into the transport — no byte
  /// copy happens at this boundary, and the caller's handle is consumed.
  /// (Callers holding a raw buffer adopt it via `Payload(std::move(vec))`;
  /// an intentional duplicate must go through Payload::copy_of so the copy
  /// is visible at the call site.) Blocks while the transport is above its
  /// high-water mark (backpressure). Returns false if the channel is closed;
  /// the message is dropped in that case.
  virtual bool send(Payload message) = 0;

  /// Send one spliced message; same contract as send(Payload), and the
  /// receiver gets the same bytes. The default passes a message without
  /// splices to send(Payload) unchanged and otherwise flattens it into this
  /// sink's pooled storage first (no fresh allocation per batch once warm).
  /// Transports that can gather the pieces override it.
  virtual bool send_spliced(SplicedPayload message) {
    return send(std::move(message).flatten(*flatten_pool_));
  }

  /// True when send_spliced gathers a message's pieces at the transport's
  /// boundary (TCP sendmsg). The daemon splices samples only into sinks
  /// that gather: any other sink would flatten on its one sender thread the
  /// copy the parallel encode pool otherwise makes.
  virtual bool gathers() const { return false; }

  /// Flush and close. Further sends fail. Idempotent.
  virtual void close() = 0;

  /// Cumulative count of *byte-moving* syscalls this sink has issued on the
  /// data path (send/sendmsg/writev class). Futex parking and other control
  /// syscalls are excluded on every transport, so the number audits exactly
  /// one claim: how many kernel crossings each batch's bytes cost. 0 for
  /// transports whose data plane never enters the kernel (in-process,
  /// shared memory).
  virtual std::uint64_t data_syscalls() const { return 0; }

  // ---------------------------------------------------------------- lending

  /// True when try_reserve can hand out slots.
  virtual bool lends() const { return false; }

  /// A free slot, or an empty one when none is free now or the channel is
  /// closed from either end. Never blocks.
  virtual Slot try_reserve();

  /// Send the first `length` bytes of `slot`, which this sink lent, as one
  /// message: same contract as send(), but it never waits for a slot. On
  /// false the slot goes back to the sink. Throws std::invalid_argument for
  /// a slot lent elsewhere or a length past its end.
  virtual bool publish(Slot slot, std::size_t length);

  /// Wait for a slot to come free: calls `ready()` at once and again each
  /// time one may have, and returns true when it does. Returns false,
  /// within one park interval, once the channel is closed from either end
  /// or the receiving process is gone. `ready()` reserves (or decides it no
  /// longer needs to); the sink only parks between calls.
  virtual bool await_slot(const std::function<bool()>& ready);

 protected:
  /// For a lending sink: a slot over `memory`, which unreserve(id) takes
  /// back if the slot is dropped unpublished.
  Slot lend(std::span<std::uint8_t> memory, std::uint64_t id);
  /// For publish(): empties `slot`, so dropping it returns nothing, and
  /// gives back its id. Throws std::invalid_argument unless this sink lent
  /// it and `length` fits.
  std::uint64_t take_back(Slot& slot, std::size_t length);
  /// Where a slot dropped unpublished goes.
  virtual void unreserve(std::uint64_t /*id*/) noexcept {}

 private:
  /// Storage for send_spliced's default flatten.
  std::shared_ptr<BufferPool> flatten_pool_ = BufferPool::create();
};

/// Writable storage a lending sink lent for one whole message (on shm, one
/// slab). Move-only. Publish it with MessageSink::publish, or drop it and it
/// returns itself to its sink. It must not outlive that sink.
class MessageSink::Slot {
 public:
  Slot() = default;
  Slot(Slot&& other) noexcept { *this = std::move(other); }
  Slot& operator=(Slot&& other) noexcept {
    if (this != &other) {
      reset();
      owner_ = std::exchange(other.owner_, nullptr);
      memory_ = other.memory_;
      id_ = other.id_;
    }
    return *this;
  }
  ~Slot() { reset(); }

  explicit operator bool() const noexcept { return owner_ != nullptr; }
  /// The whole slot; a message is written from its start.
  std::span<std::uint8_t> bytes() const noexcept { return memory_; }

  /// Return the slot to its sink now (a no-op when empty).
  void reset() noexcept {
    if (owner_) std::exchange(owner_, nullptr)->unreserve(id_);
  }

 private:
  friend class MessageSink;
  Slot(MessageSink* owner, std::span<std::uint8_t> memory, std::uint64_t id) noexcept
      : owner_(owner), memory_(memory), id_(id) {}

  MessageSink* owner_ = nullptr;
  std::span<std::uint8_t> memory_;
  std::uint64_t id_ = 0;
};

inline MessageSink::Slot MessageSink::try_reserve() { return {}; }

inline bool MessageSink::publish(Slot /*slot*/, std::size_t /*length*/) {
  throw std::logic_error("publish: this sink does not lend");
}

inline bool MessageSink::await_slot(const std::function<bool()>& /*ready*/) {
  throw std::logic_error("await_slot: this sink does not lend");
}

inline MessageSink::Slot MessageSink::lend(std::span<std::uint8_t> memory, std::uint64_t id) {
  return Slot(this, memory, id);
}

inline std::uint64_t MessageSink::take_back(Slot& slot, std::size_t length) {
  if (slot.owner_ != this) {
    throw std::invalid_argument("publish: the slot was not lent by this sink");
  }
  if (length > slot.memory_.size()) {
    throw std::invalid_argument("publish: length " + std::to_string(length) +
                                " exceeds the slot's " + std::to_string(slot.memory_.size()) +
                                " bytes");
  }
  slot.owner_ = nullptr;
  return slot.id_;
}

/// How a MessageSource's stream came to an end — consulted after recv()
/// returns nullopt so the receiver can tell a clean sender shutdown from a
/// dead peer and repair the in-flight epoch instead of wedging or silently
/// truncating.
enum class SourceEnd : std::uint8_t {
  kClean,     ///< sender closed the stream deliberately (or it hasn't ended)
  kDeadPeer,  ///< the peer died / the link failed mid-stream
};

/// Blocking message consumer endpoint (PULL side).
class MessageSource {
 public:
  virtual ~MessageSource() = default;

  /// Receive the next message; the returned Payload is the transport's
  /// buffer handed over by move (decode it in place — WireBatch views share
  /// its ownership). Empty optional when the channel is closed and drained.
  virtual std::optional<Payload> recv() = 0;

  /// Stop receiving and release resources. Idempotent.
  virtual void close() = 0;

  /// Why the stream ended. Meaningful once recv() has returned nullopt;
  /// transports that cannot distinguish (or haven't ended) report kClean.
  virtual SourceEnd end_state() const { return SourceEnd::kClean; }
};

}  // namespace emlio::net
