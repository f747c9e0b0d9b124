// EmlioService — one-call wiring of the full EMLIO stack for a single
// compute node: Planner → Daemon (background thread) → transport →
// Receiver → BatchProvider. This is the public entry point the examples and
// integration tests use; multi-node deployments compose Planner/Daemon/
// Receiver directly (see examples/sharded_cluster.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common/timestamp_logger.h"
#include "core/daemon.h"
#include "core/planner.h"
#include "core/receiver.h"
#include "net/push_pull.h"
#include "net/sim_channel.h"

namespace emlio::core {

/// Transport between daemon and receiver.
enum class Transport {
  kInProcess,  ///< latency-injectable in-process channel (tests, emulation)
  kTcp,        ///< framed TCP over loopback (the production path)
  kShm,        ///< shared-memory slab ring — same-host zero-syscall lane
};

struct ServiceConfig {
  std::string dataset_dir;            ///< TFRecord shards + mapping JSONs
  std::size_t batch_size = 32;        ///< B
  std::uint32_t epochs = 1;           ///< E
  /// T — plan partitions per node (PlannerConfig::threads_per_node). The
  /// daemon flattens a node's WorkerPlans back into one batch-id-ordered
  /// lane, so T shapes the plan, not the daemon's thread count.
  std::uint32_t threads_per_node = 2;
  /// ZMQ-style HWM: the daemon's prefetch depth, the sim link's in-flight
  /// cap and the shm slab count. It does not reach the TCP sockets: a TCP
  /// send queues nothing of its own and blocks in the kernel, behind the
  /// prefetch lane. On shm an admitted batch holds the slab it is encoded
  /// into, so the daemon's window, the slab ring and the receiver share
  /// these high_water_mark slabs between them.
  std::size_t high_water_mark = 16;
  std::size_t num_streams = 2;        ///< parallel TCP streams (kTcp)
  std::size_t receiver_queue = 16;    ///< shared in-memory queue depth
  /// Daemon pipeline: read+encode pool width (0 = auto).
  std::size_t pipeline_pool_threads = 0;
  /// Receiver decode pool width (ReceiverConfig::decode_threads; 0 = auto,
  /// the same rule as pipeline_pool_threads). Output is re-sequenced into
  /// arrival order at every width.
  std::size_t decode_threads = 0;
  /// Retired: both pools run at their fixed width. Kept only so existing
  /// callers that set it false still build; true makes the constructor
  /// throw.
  bool adaptive_pool = false;
  /// Daemon-side sample cache: byte budget (0 = off) and eviction policy
  /// ("clock" or "lru" — parsed by cache::parse_policy; anything else makes
  /// start() throw). When the dataset fits the budget, warm epochs are
  /// served entirely from memory (DaemonStats::store_reads stops growing).
  std::size_t cache_bytes = 0;
  std::string cache_policy = "clock";
  /// Per-batch stage tracing on BOTH engines (src/obs): stage + end-to-end
  /// latency histograms in stats().daemon.latency / .receiver.latency and
  /// rings of each engine's 16 slowest batches (the engines' default ring
  /// size) behind Daemon/Receiver::trace_json. trace_wire also
  /// stamps the daemon's send origin into the wire bytes (optional "t0"
  /// codec key) so the receiver's trace covers queue+transit; leave it off
  /// to keep the wire byte-identical to an untraced run.
  bool trace = false;
  bool trace_wire = false;
  std::uint64_t seed = 1234;
  bool shuffle = true;
  bool verify_crc = false;
  Transport transport = Transport::kInProcess;
  net::SimLinkConfig link;            ///< kInProcess latency/bandwidth model
  /// kShm: the cap on one encoded batch. The service owns both ends, so the
  /// segment gets a per-process unique name (created by the daemon side,
  /// unlinked at teardown) and high_water_mark slabs, the in-flight budget.
  std::size_t shm_slab_bytes = 4u << 20;
};

/// Aggregated run statistics.
struct ServiceStats {
  DaemonStats daemon;
  ReceiverStats receiver;
};

class EmlioService {
 public:
  /// Loads shard indexes and builds the planner. Throws if the dataset
  /// directory has no shards, the cache policy is unknown, or
  /// adaptive_pool is set.
  explicit EmlioService(ServiceConfig config);

  /// Destructor stops everything.
  ~EmlioService();

  EmlioService(const EmlioService&) = delete;
  EmlioService& operator=(const EmlioService&) = delete;

  /// Start the daemon thread and receiver. Idempotent.
  void start();

  /// Next wire batch (epoch markers have last=true). nullopt = all epochs
  /// served and drained.
  std::optional<msgpack::WireBatch> next_batch();

  /// Stop the service (joins the daemon thread).
  void stop();

  const Planner& planner() const { return *planner_; }
  std::uint64_t dataset_samples() const { return planner_->dataset_size(); }
  ServiceStats stats() const;
  /// Bound on the service's event log: two events per data batch
  /// (batch_send, batch_recv) plus the epoch events, about 50 B each, so
  /// 2^16 events hold the last ~32k batches in ~3.3 MB. Once full, the
  /// oldest events are evicted and counted in dropped_events().
  static constexpr std::size_t kEventLogCapacity = std::size_t{1} << 16;
  TimestampLogger& timestamps() { return timestamps_; }
  /// Slow-batch forensics (ServiceConfig::trace): each engine's trace_json.
  /// Null JSON before start().
  json::Value daemon_trace_json() const;
  json::Value receiver_trace_json() const;

 private:
  ServiceConfig config_;
  TimestampLogger timestamps_;
  std::unique_ptr<Planner> planner_;
  std::vector<tfrecord::ShardIndex> indexes_;

  std::shared_ptr<net::SimLinkControl> link_control_;  // kInProcess
  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<Receiver> receiver_;
  std::thread daemon_thread_;
  std::uint32_t epochs_done_ = 0;
  bool started_ = false;
};

}  // namespace emlio::core
