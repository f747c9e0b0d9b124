#include "net/sim_channel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "common/rng.h"

namespace emlio::net {

namespace {

/// Shared state between the two endpoints of one simulated link.
class LinkState : public SimLinkControl {
 public:
  explicit LinkState(const SimLinkConfig& config)
      : config_(config), rng_(config.seed), clock_(SteadyClock::instance()) {}

  bool send(Payload message) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [&] {
      return in_flight_.size() < config_.high_water_mark || closed_ || severed_;
    });
    if (closed_ || severed_) return false;  // a severed link looks like a dead peer
    if (drop_probability_ > 0.0 && rng_.uniform01() < drop_probability_) {
      // Lost on the wire: the sender sees a successful send, the receiver
      // never sees the message. Dropped bytes don't occupy the link.
      messages_dropped_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }

    Nanos now = clock_.now();
    // Serialization occupies the link: back-to-back messages queue behind the
    // previous one's transmit completion.
    Nanos tx_start = std::max(now, link_free_at_);
    auto tx_nanos = static_cast<Nanos>(static_cast<double>(message.size()) /
                                       config_.bandwidth_bytes_per_sec * 1e9);
    link_free_at_ = tx_start + tx_nanos;

    double one_way_ms = config_.rtt_ms / 2.0 + extra_latency_ms_.load(std::memory_order_relaxed);
    if (spike_ms_ > 0.0) {
      one_way_ms += spike_ms_;  // one-shot: exactly this message pays it
      spike_ms_ = 0.0;
    }
    Nanos ready = link_free_at_ + from_millis(one_way_ms);
    bytes_sent_.fetch_add(message.size(), std::memory_order_relaxed);
    in_flight_.push_back(Message{ready, std::move(message)});
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  std::optional<Payload> recv() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      not_empty_.wait(lock, [&] { return !in_flight_.empty() || closed_ || severed_; });
      if (severed_) return std::nullopt;  // link cut mid-stream — dead peer
      if (in_flight_.empty()) return std::nullopt;  // closed and drained
      Nanos ready = in_flight_.front().ready_at;
      Nanos now = clock_.now();
      if (now >= ready) break;
      // Messages are FIFO (TCP ordering): wait until the head is deliverable.
      not_empty_.wait_for(lock, std::chrono::nanoseconds(ready - now));
    }
    auto msg = std::move(in_flight_.front().bytes);
    in_flight_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return msg;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  void set_extra_latency_ms(double ms) override {
    extra_latency_ms_.store(ms, std::memory_order_relaxed);
  }

  void spike_next_ms(double ms) override {
    std::lock_guard<std::mutex> lock(mutex_);
    spike_ms_ = ms;
  }

  void sever() override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      severed_ = true;
      // Everything in flight dies with the link.
      messages_dropped_.fetch_add(in_flight_.size(), std::memory_order_relaxed);
      in_flight_.clear();
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  void restore() override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      severed_ = false;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  void set_drop_probability(double p) override {
    std::lock_guard<std::mutex> lock(mutex_);
    drop_probability_ = p;
  }

  std::uint64_t messages_dropped() const override {
    return messages_dropped_.load(std::memory_order_relaxed);
  }

  std::uint64_t bytes_sent() const override {
    return bytes_sent_.load(std::memory_order_relaxed);
  }

  SourceEnd end_state() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return severed_ ? SourceEnd::kDeadPeer : SourceEnd::kClean;
  }

 private:
  struct Message {
    Nanos ready_at;
    Payload bytes;
  };

  SimLinkConfig config_;
  Rng rng_;
  const SteadyClock& clock_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<Message> in_flight_;
  Nanos link_free_at_ = 0;
  std::atomic<double> extra_latency_ms_{0.0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> messages_dropped_{0};
  double spike_ms_ = 0.0;          // guarded by mutex_
  double drop_probability_ = 0.0;  // guarded by mutex_
  bool severed_ = false;           // guarded by mutex_
  bool closed_ = false;
};

class SimSink final : public MessageSink {
 public:
  explicit SimSink(std::shared_ptr<LinkState> state) : state_(std::move(state)) {}
  ~SimSink() override { close(); }
  bool send(Payload message) override { return state_->send(std::move(message)); }
  void close() override { state_->close(); }

 private:
  std::shared_ptr<LinkState> state_;
};

class SimSource final : public MessageSource {
 public:
  explicit SimSource(std::shared_ptr<LinkState> state) : state_(std::move(state)) {}
  ~SimSource() override = default;
  std::optional<Payload> recv() override { return state_->recv(); }
  void close() override { state_->close(); }
  SourceEnd end_state() const override { return state_->end_state(); }

 private:
  std::shared_ptr<LinkState> state_;
};

}  // namespace

SimChannel make_sim_channel(const SimLinkConfig& config) {
  auto state = std::make_shared<LinkState>(config);
  SimChannel channel;
  channel.sink = std::make_unique<SimSink>(state);
  channel.source = std::make_unique<SimSource>(state);
  channel.control = state;
  return channel;
}

}  // namespace emlio::net
