#include "core/service.h"

#include <unistd.h>

#include <atomic>
#include <stdexcept>

#include "common/log.h"
#include "common/thread_name.h"
#include "net/shm_channel.h"

namespace emlio::core {

EmlioService::EmlioService(ServiceConfig config)
    : config_(std::move(config)), timestamps_(SteadyClock::instance(), kEventLogCapacity) {
  indexes_ = tfrecord::load_all_indexes(config_.dataset_dir);
  if (indexes_.empty()) {
    throw std::runtime_error("emlio service: no shards found in " + config_.dataset_dir);
  }
  if (!cache::parse_policy(config_.cache_policy)) {
    // Fail at construction, like every other config error, before start()
    // wires any thread.
    throw std::runtime_error("emlio service: unknown cache policy '" + config_.cache_policy +
                             "' (expected \"clock\" or \"lru\")");
  }
  if (config_.adaptive_pool) {
    throw std::runtime_error("emlio service: adaptive_pool is retired; both pools run at "
                             "their fixed width");
  }
  PlannerConfig pc;
  pc.batch_size = config_.batch_size;
  pc.epochs = config_.epochs;
  pc.threads_per_node = config_.threads_per_node;
  pc.seed = config_.seed;
  pc.shuffle = config_.shuffle;
  planner_ = std::make_unique<Planner>(indexes_, pc);
}

EmlioService::~EmlioService() { stop(); }

void EmlioService::start() {
  if (started_) return;
  // started_ is set last: a start() that throws (a missing or short shard
  // file fails the readers) leaves the service unstarted, so next_batch()
  // refuses and another start() tries again.
  std::shared_ptr<net::SimLinkControl> link_control;
  std::shared_ptr<net::MessageSink> sink;
  std::unique_ptr<net::MessageSource> source;

  if (config_.transport == Transport::kShm) {
    // Unique per (process, service instance): parallel test services and
    // leftover names from unrelated runs cannot collide.
    static std::atomic<std::uint64_t> seq{0};
    const std::string name = "emlio." + std::to_string(static_cast<unsigned long>(::getpid())) +
                             "." + std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
    net::ShmOptions so;
    so.slab_bytes = config_.shm_slab_bytes;
    so.slab_count = config_.high_water_mark;
    // Sink first (it creates the segment), then attach the source — the
    // same order the two-process tools use, minus the attach-wait.
    sink = std::make_shared<net::ShmMessageSink>(name, so);
    source = std::make_unique<net::ShmMessageSource>(name);
  } else if (config_.transport == Transport::kTcp) {
    auto pull = std::make_unique<net::PullSocket>(/*port=*/0, config_.receiver_queue);
    net::PushPullOptions opts;
    opts.num_streams = config_.num_streams;
    // The pull socket is bound before this connects, so the connect keeps
    // the fail-fast RetryOptions{}.
    sink = std::make_shared<net::PushSocket>("127.0.0.1", pull->port(), opts);
    source = std::move(pull);
  } else {
    net::SimLinkConfig link = config_.link;
    link.high_water_mark = config_.high_water_mark;
    auto channel = net::make_sim_channel(link);
    sink = std::shared_ptr<net::MessageSink>(std::move(channel.sink));
    source = std::move(channel.source);
    link_control = channel.control;
  }

  // Single compute node (id 0); one daemon owning every shard.
  std::vector<tfrecord::ShardReader> readers;
  readers.reserve(indexes_.size());
  for (const auto& idx : indexes_) readers.emplace_back(idx);

  std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> sinks;
  sinks[0] = sink;

  DaemonConfig dc;
  dc.daemon_id = "daemon0";
  dc.verify_crc = config_.verify_crc;
  dc.pool_threads = config_.pipeline_pool_threads;
  dc.prefetch_depth = config_.high_water_mark;
  dc.cache_bytes = config_.cache_bytes;
  dc.cache_policy = *cache::parse_policy(config_.cache_policy);  // validated in ctor
  dc.trace = config_.trace;
  dc.trace_wire = config_.trace_wire;
  auto daemon = std::make_unique<Daemon>(dc, std::move(readers), std::move(sinks), &timestamps_);

  ReceiverConfig rc;
  rc.num_senders = 1;
  rc.queue_capacity = config_.receiver_queue;
  rc.trace = config_.trace;
  auto receiver = std::make_unique<Receiver>(rc, std::move(source), &timestamps_);

  link_control_ = std::move(link_control);
  daemon_ = std::move(daemon);
  receiver_ = std::move(receiver);

  daemon_thread_ = std::thread([this, sink] {
    set_thread_name("emlio-daemon");
    // The daemon reports failures through its error state; anything that
    // still escapes (I/O faults) must not leave this thread uncaught —
    // that would std::terminate the process. Either way the sink closes so
    // the receiver sees end-of-stream instead of hanging.
    try {
      if (!daemon_->serve(*planner_, /*num_nodes=*/1)) {
        log::error("emlio service: daemon stopped early: ", daemon_->last_error());
      }
    } catch (const std::exception& e) {
      log::error("emlio service: daemon thread: ", e.what());
    }
    sink->close();  // flush & end the stream
  });
  started_ = true;
}

std::optional<msgpack::WireBatch> EmlioService::next_batch() {
  if (!started_) throw std::logic_error("emlio service: next_batch before start");
  // The service knows E, so it ends the stream after the final epoch marker —
  // a TCP pull socket by itself cannot distinguish "no more data ever" from
  // "sender momentarily quiet".
  if (epochs_done_ >= config_.epochs) return std::nullopt;
  auto batch = receiver_->next();
  if (batch && batch->last) ++epochs_done_;
  return batch;
}

void EmlioService::stop() {
  if (!started_) return;
  // Order matters for abnormal shutdown: closing the receiver first closes
  // its source (on TCP the pull socket, which shuts its connections down),
  // so any in-flight daemon send fails fast instead of blocking on a TCP
  // window that will never reopen.
  if (receiver_) receiver_->close();
  if (daemon_thread_.joinable()) daemon_thread_.join();
  started_ = false;
}

ServiceStats EmlioService::stats() const {
  ServiceStats s;
  if (daemon_) s.daemon = daemon_->stats();
  if (receiver_) s.receiver = receiver_->stats();
  return s;
}

json::Value EmlioService::daemon_trace_json() const {
  return daemon_ ? daemon_->trace_json() : json::Value();
}

json::Value EmlioService::receiver_trace_json() const {
  return receiver_ ? receiver_->trace_json() : json::Value();
}

}  // namespace emlio::core
