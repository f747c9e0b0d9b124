// ZeroMQ-style PUSH/PULL sockets over framed TCP.
//
// Reproduces the transport semantics EMLIO needs from ZMQ (§4.5):
//   * PUSH fan-out over multiple parallel TCP streams,
//   * send blocks in the kernel; the daemon's prefetch lane is the HWM, so
//     "storage-side workers naturally back off when compute-side queues are
//     full",
//   * PULL fair-merges all inbound connections into one shared queue.
//
// Unlike ZMQ, streams connect eagerly in the constructor. By default a
// failed connect throws rather than retrying silently — the Planner owns
// endpoint liveness — but `PushPullOptions::connect_retry` opts into a
// bounded backoff window (shared net::RetryPolicy schedule) so a daemon can
// start before its receiver is listening.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/channel.h"
#include "net/retry.h"
#include "net/socket.h"

namespace emlio::net {

/// Configuration shared by both ends.
struct PushPullOptions {
  /// Retired: a PushSocket queues nothing of its own. Its send blocks in the
  /// kernel, and the daemon's prefetch lane is the HWM. Kept so callers that
  /// set the default still build; any other value makes PushSocket's
  /// constructor throw std::invalid_argument.
  std::size_t high_water_mark = 16;
  std::size_t num_streams = 1;  ///< parallel TCP connections per PUSH socket
  /// Connect-retry window per stream. The default (max_attempts = 1) keeps
  /// the historical fail-fast semantics; callers that tolerate a
  /// not-yet-listening peer raise max_attempts / set a deadline.
  RetryOptions connect_retry{};
};

/// PUSH end: connects `num_streams` TCP streams to a PULL endpoint and
/// round-robins messages across them. A send writes its frame on the
/// calling thread (the daemon's sender thread) and blocks while the
/// kernel's socket buffers are full — the infinite-blocking semantics of
/// §4.5. The socket owns no thread and no queue.
class PushSocket final : public MessageSink {
 public:
  PushSocket(const std::string& host, std::uint16_t port, PushPullOptions options = {});
  ~PushSocket() override;

  /// send_spliced's no-splice case.
  bool send(Payload message) override;

  /// Gathers the frame header, head pieces and splices into one sendmsg
  /// under the chosen stream's lock, and returns once the kernel has taken
  /// the whole frame; bytes are not copied before that. A socket error logs
  /// one line, marks the stream failed and returns false, as does every
  /// later send that picks that stream.
  bool send_spliced(SplicedPayload message) override;
  bool gathers() const override { return true; }

  /// Waits out in-flight sends, then half-closes every stream so the peer
  /// reads what was sent and then EOF. Further sends fail.
  void close() override;

  /// Byte-moving syscalls issued so far: one sendmsg per framed message
  /// (header, head pieces and splices as one iovec list), more only when
  /// the kernel takes a frame in pieces or the frame has more than IOV_MAX
  /// pieces. The "1 writev per batch" audit of the TCP lane.
  std::uint64_t data_syscalls() const override {
    return syscalls_.load(std::memory_order_relaxed);
  }

  std::size_t messages_sent() const noexcept { return sent_.load(std::memory_order_relaxed); }
  std::size_t num_streams() const noexcept { return streams_.size(); }

 private:
  struct Stream {
    explicit Stream(TcpStream connected) : tcp(std::move(connected)) {}
    Mutex mu;  // serializes the frames of concurrent senders on this stream
    TcpStream tcp EMLIO_GUARDED_BY(mu);
    std::vector<iovec> iov EMLIO_GUARDED_BY(mu);  ///< send_frame's gather-list scratch
    bool failed EMLIO_GUARDED_BY(mu) = false;
  };

  std::vector<std::unique_ptr<Stream>> streams_;
  std::atomic<std::size_t> next_stream_{0};
  std::atomic<std::size_t> sent_{0};
  std::atomic<std::uint64_t> syscalls_{0};
  std::atomic<bool> closed_{false};
};

/// PULL end: accepts any number of PUSH connections and merges their framed
/// messages into one bounded shared queue. Receiver-side backpressure: when
/// the shared queue is full the per-connection reader blocks, the kernel TCP
/// window fills, and the remote PUSH send() stalls.
class PullSocket final : public MessageSource {
 public:
  /// Bind on loopback:port (0 = ephemeral). `queue_capacity` is the shared
  /// in-memory queue depth (the receiver's HWM). `expected_senders`, when
  /// non-zero, is the number of inbound TCP connections after whose clean
  /// EOF the stream ends: recv() drains whatever is queued, then returns
  /// empty — giving TCP the same "sender close ends the stream" semantics
  /// the in-process and shm transports have natively. 0 (the default)
  /// preserves the original behavior: the socket accepts connections
  /// forever and only a local close() ends the stream. Counts connections,
  /// not PushSockets — a PUSH with N streams contributes N.
  explicit PullSocket(std::uint16_t port, std::size_t queue_capacity = 64,
                      std::size_t expected_senders = 0);
  ~PullSocket() override;

  /// Hands out the reader's pooled receive buffer by move; the buffer
  /// recycles into this socket's BufferPool when the consumer (and any
  /// decoded sample views) drop it.
  std::optional<Payload> recv() override;

  /// Stops accepting, shuts every accepted connection down (so a reader
  /// parked on an idle peer wakes), joins the reader threads and releases
  /// each connection with a reset, so a peer blocked in send fails at once.
  void close() override;

  /// kDeadPeer when at least one inbound connection ended with a transport
  /// error (reset, truncated frame) rather than a clean EOF and the socket
  /// was not being closed locally. Note TCP's limits: a kill -9'd peer whose
  /// kernel sends a clean FIN at a frame boundary is indistinguishable from
  /// a deliberate close, and on a muxed socket the error is not attributable
  /// to one sender — callers that need per-sender liveness watch
  /// connection counts (set_peer_callback) or use a transport with a pid
  /// probe (shm).
  SourceEnd end_state() const override {
    return peer_errors_.load(std::memory_order_acquire) > 0 &&
                   !closed_.load(std::memory_order_acquire)
               ? SourceEnd::kDeadPeer
               : SourceEnd::kClean;
  }

  /// Observe connection churn: called with `true` when an inbound connection
  /// is accepted, `false` when one ends (clean or error alike), from the
  /// acceptor/reader threads. Lets a receiver with a known sender population
  /// treat "connections dropped below expected" as a dead sender.
  void set_peer_callback(std::function<void(bool connected)> cb);

  /// Inbound connections that ended with a transport error so far.
  std::size_t peer_errors() const noexcept {
    return peer_errors_.load(std::memory_order_relaxed);
  }

  /// The bound port (for connecting PUSH sockets).
  std::uint16_t port() const noexcept { return listener_.port(); }

  std::size_t messages_received() const noexcept {
    return received_.load(std::memory_order_relaxed);
  }

  /// Receive-buffer pool statistics (observability / tests).
  BufferPool::Stats pool_stats() const { return pool_->stats(); }

 private:
  /// One accepted connection. The socket owns the stream until its reader
  /// is joined, so close() can shut it down without ever touching a
  /// descriptor number the kernel has handed out again.
  struct Reader {
    explicit Reader(TcpStream accepted) : stream(std::move(accepted)) {}
    TcpStream stream;
    std::thread thread;
    std::atomic<bool> finished{false};  ///< set last by the thread: join is immediate
  };

  void accept_loop();
  void reader_loop(TcpStream& stream);
  void notify_peer(bool connected);

  TcpListener listener_;
  std::shared_ptr<BufferPool> pool_;
  BoundedQueue<Payload> queue_;
  std::size_t expected_senders_;
  std::atomic<std::size_t> finished_senders_{0};
  std::thread acceptor_;
  Mutex readers_mutex_;
  std::vector<std::unique_ptr<Reader>> readers_ EMLIO_GUARDED_BY(readers_mutex_);
  Mutex peer_cb_mutex_;
  std::function<void(bool)> peer_cb_ EMLIO_GUARDED_BY(peer_cb_mutex_);
  std::atomic<std::size_t> peer_errors_{0};
  std::atomic<std::size_t> received_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace emlio::net
