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
// transfers it out, so a payload crosses every in-process hop (send queue,
// HWM queue, receiver queue) without its bytes ever being copied. The only
// copy a transport may make is at its boundary (kernel write/read, the shm
// slab).
//
// Into a sink that gathers, the daemon sends SplicedPayloads: a pooled
// msgpack head with its large samples spliced in by reference, so those
// bytes are first copied at the boundary itself. TCP gathers head pieces
// and splices into one sendmsg iovec list; shm copies them straight into the
// slab. A sink that cannot gather (the sim link, test wrappers) gets
// contiguous Payloads from the daemon; called directly, it inherits
// send_spliced's default, which flattens into pooled storage and calls
// send(Payload).
#pragma once

#include <memory>
#include <optional>

#include "common/payload.h"

namespace emlio::net {

/// Blocking message producer endpoint (PUSH side).
class MessageSink {
 public:
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
  /// boundary (TCP sendmsg, the shm slab copy). The daemon splices samples
  /// only into sinks that gather: any other sink would flatten on its one
  /// sender thread the copy the parallel encode pool otherwise makes.
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

 private:
  /// Storage for send_spliced's default flatten.
  std::shared_ptr<BufferPool> flatten_pool_ = BufferPool::create();
};

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
