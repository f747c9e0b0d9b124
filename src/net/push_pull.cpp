#include "net/push_pull.h"

#include "common/log.h"
#include "net/framing.h"

namespace emlio::net {

PushSocket::PushSocket(const std::string& host, std::uint16_t port, PushPullOptions options) {
  std::size_t n = options.num_streams ? options.num_streams : 1;
  streams_.reserve(n);
  // One retry window covers all streams: a receiver that is down is down for
  // every connection, and restarting the schedule per stream would multiply
  // the deadline by num_streams.
  RetryPolicy policy(options.connect_retry);
  for (std::size_t i = 0; i < n; ++i) {
    Stream s;
    for (;;) {
      try {
        s.tcp = TcpStream::connect(host, port);
        break;
      } catch (const std::exception& e) {
        auto delay = policy.next_delay();
        if (!delay) throw;  // budget spent — fail the constructor as before
        log::warn("push connect ", host, ":", port, " failed (", e.what(), "); retry in ",
                  delay->count(), " ms");
        std::this_thread::sleep_for(*delay);
      }
    }
    s.queue = std::make_unique<BoundedQueue<SplicedPayload>>(options.high_water_mark);
    streams_.push_back(std::move(s));
  }
  // Start senders only after every connect succeeded, so a failed constructor
  // leaves no running threads.
  for (auto& s : streams_) {
    s.sender = std::thread([this, &s] { sender_loop(s); });
  }
}

PushSocket::~PushSocket() { close(); }

bool PushSocket::send(Payload message) { return send_spliced(std::move(message)); }

bool PushSocket::send_spliced(SplicedPayload message) {
  if (closed_.load(std::memory_order_acquire)) return false;
  std::size_t idx = next_stream_.fetch_add(1, std::memory_order_relaxed) % streams_.size();
  if (!streams_[idx].queue->push(std::move(message))) return false;
  sent_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void PushSocket::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  for (auto& s : streams_) s.queue->close();
  for (auto& s : streams_) {
    if (s.sender.joinable()) s.sender.join();
    s.tcp.shutdown_send();
  }
}

void PushSocket::sender_loop(Stream& stream) {
  for (;;) {
    auto msg = stream.queue->pop();
    if (!msg) return;  // closed and drained
    try {
      syscalls_.fetch_add(send_frame(stream.tcp, *msg, stream.iov), std::memory_order_relaxed);
    } catch (const std::exception& e) {
      log::error("push sender: ", e.what());
      stream.queue->close();
      return;
    }
  }
}

PullSocket::PullSocket(std::uint16_t port, std::size_t queue_capacity,
                       std::size_t expected_senders)
    : listener_(port),
      // Pool a few more buffers than the queue holds so readers mid-recv and
      // consumers mid-decode don't force fresh allocations.
      pool_(BufferPool::create(queue_capacity + 8)),
      queue_(queue_capacity),
      expected_senders_(expected_senders) {
  acceptor_ = std::thread([this] { accept_loop(); });
}

PullSocket::~PullSocket() { close(); }

std::optional<Payload> PullSocket::recv() {
  auto msg = queue_.pop();
  if (msg) received_.fetch_add(1, std::memory_order_relaxed);
  return msg;
}

void PullSocket::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  listener_.close();
  queue_.close();
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(readers_mutex_);
    readers.swap(readers_);
  }
  for (auto& r : readers) {
    if (r.joinable()) r.join();
  }
}

void PullSocket::set_peer_callback(std::function<void(bool connected)> cb) {
  std::lock_guard<std::mutex> lock(peer_cb_mutex_);
  peer_cb_ = std::move(cb);
}

void PullSocket::notify_peer(bool connected) {
  std::function<void(bool)> cb;
  {
    std::lock_guard<std::mutex> lock(peer_cb_mutex_);
    cb = peer_cb_;
  }
  if (cb) cb(connected);
}

void PullSocket::accept_loop() {
  for (;;) {
    auto stream = listener_.accept();
    if (!stream) return;  // listener closed
    std::lock_guard<std::mutex> lock(readers_mutex_);
    if (closed_.load(std::memory_order_acquire)) return;
    notify_peer(true);
    readers_.emplace_back([this, s = std::move(*stream)]() mutable { reader_loop(std::move(s)); });
  }
}

void PullSocket::reader_loop(TcpStream stream) {
  try {
    for (;;) {
      auto frame = recv_frame(stream, pool_.get());
      if (!frame) break;  // peer finished
      if (!queue_.push(std::move(*frame))) return;  // socket closed locally
    }
  } catch (const std::exception& e) {
    if (!closed_.load(std::memory_order_acquire)) {
      log::error("pull reader: ", e.what());
      peer_errors_.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  if (!closed_.load(std::memory_order_acquire)) notify_peer(false);
  // With a known sender population, the last connection to finish (clean EOF
  // or error alike — a dead sender must not wedge the stream) ends the
  // stream: close() on the queue drains what is buffered, then recv()
  // returns empty. Pending items survive — BoundedQueue close is
  // drain-then-end, not drop.
  if (expected_senders_ != 0 &&
      finished_senders_.fetch_add(1, std::memory_order_acq_rel) + 1 == expected_senders_) {
    queue_.close();
  }
}

}  // namespace emlio::net
