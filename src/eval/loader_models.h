// Discrete-event models of the three data-loading pipelines (§5.1) plus the
// sharded scenario (§5.2) and the stage-breakdown experiment (Figure 1).
//
// Each model reproduces its loader's *queueing structure*:
//
//   PyTorch DataLoader over NFS — W workers each fetch one sample file at a
//   time (paying per-file metadata + chunk round trips), decode on host
//   cores, collate into batches; the GPU trains when a batch is ready.
//
//   NVIDIA DALI over NFS — P prefetch streams fetch sample files (same
//   per-file RTT cost), decode+augment run on the GPU, small host feed cost.
//
//   EMLIO — storage-side daemon threads read contiguous TFRecord slices from
//   the *local* disk, serialize batches, and stream them through a
//   bandwidth/latency pipe under an HWM in-flight cap; the receiver
//   deserializes and feeds a prefetch queue; the GPU trains. No per-sample
//   round trips anywhere — RTT only delays pipeline fill.
//
// The models charge time and meter CPU/GPU activity; NodeRig converts meters
// into the Joule figures the paper reports.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "energy/report.h"
#include "sim/testbed.h"
#include "train/ddp.h"
#include "train/loss_model.h"
#include "train/model_profile.h"
#include "tsdb/tsdb.h"
#include "workload/dataset_spec.h"

namespace emlio::eval {

enum class LoaderKind { kPyTorch, kDali, kEmlio };

/// Transport fabric for the EMLIO wire path — the paper's §6 future work
/// ("evaluating heterogeneous transports — such as RDMA and NVMe-over-
/// Fabric — to further reduce I/O latency and energy").
enum class Fabric {
  kTcpZmq,  ///< the paper's evaluated transport (default)
  kRdma,    ///< kernel-bypass verbs: zero-copy sends, ~60 % lower host CPU
            ///< cost per byte, small fixed per-message latency
  kNvmeOf,  ///< NVMe-over-Fabrics: the compute node reads shard extents from
            ///< remote flash directly (no daemon serialize stage); each read
            ///< pays one fabric round trip but deep queues pipeline them
};

/// How much of the pipeline runs — Figure 1's R / R+P / R+P+T stages.
enum class Stage { kRead, kReadPreprocess, kFull };

/// Loader-specific knobs (defaults reproduce the paper's setups).
struct LoaderParams {
  // PyTorch DataLoader
  std::size_t pytorch_workers = 4;          ///< DataLoader num_workers
  double pytorch_metadata_rtts = 4.0;       ///< open/stat/close round trips
  Nanos pytorch_per_batch_overhead = from_millis(33);  ///< collate+H2D stall

  // DALI
  std::size_t dali_prefetch_streams = 4;    ///< parallel read-ahead fetchers
  double dali_metadata_rtts = 1.1;          ///< open+getattr per file
  double dali_feed_threads = 1.5;           ///< host threads feeding the GPU
  /// Serial NFS-client cost (attr cache revalidation, page-cache misses)
  /// DALI pays per batch when reading a remote mount — the reason its
  /// 0.1 ms-RTT epoch is already ~9 % slower than local (165.4 vs 151.7 s).
  Nanos dali_nfs_per_batch_overhead = from_millis(17.5);

  // EMLIO
  std::size_t emlio_daemon_threads = 1;     ///< T (Figure 7 vs 8 concurrency)
  /// Storage-side pipelined engine knobs (mirror DaemonConfig::pool_threads
  /// and ::prefetch_depth). pool_threads 0 = one read+encode lane per daemon
  /// thread (the paper's serial SendWorker behaviour); prefetch_depth 0 =
  /// no storage-side encoded-batch queue modeled (pre-pipeline behaviour).
  std::size_t emlio_pool_threads = 0;
  std::size_t emlio_prefetch_depth = 0;
  /// Daemon-side sample cache (mirrors DaemonConfig::cache_bytes, in MB;
  /// 0 = off). Meaningful with emlio_cache_warm: a warm (second-or-later)
  /// epoch serves the cached fraction of the dataset straight from daemon
  /// memory — those batches skip the disk/NFS read stage entirely, exactly
  /// like the real daemon's whole-batch cache hits. Cold epochs and the
  /// uncached remainder read storage as before.
  std::size_t emlio_cache_mb = 0;
  bool emlio_cache_warm = false;
  std::size_t emlio_hwm = 16;               ///< ZMQ HWM per stream
  std::size_t emlio_streams = 4;            ///< parallel TCP streams
  std::size_t emlio_prefetch_q = 4;         ///< DALI external_source queue
  double serialize_bytes_per_sec = 190e6;   ///< msgpack pack rate per thread
  double deserialize_bytes_per_sec = 900e6; ///< unpack rate (one thread)
  double deserialize_threads = 4.0;         ///< host threads deserializing
  /// Receiver decode pool width (mirrors ReceiverConfig::decode_threads).
  /// 0 = keep the legacy deserialize_threads sizing; N > 0 models the
  /// pooled receiver: N decode workers drain the wire in parallel before
  /// the re-sequenced batches reach the prefetch queue.
  std::size_t emlio_decode_threads = 0;
  double loopback_bytes_per_sec = 1.8e9;    ///< local-regime loopback cost
  Nanos emlio_feed_overhead = from_millis(5.2);  ///< external_source dequeue+feed
  double emlio_service_threads = 1.8;       ///< receiver/plugin host threads

  std::size_t batch_size = 128;             ///< B
};

struct ScenarioConfig {
  std::string name;
  LoaderKind loader = LoaderKind::kEmlio;
  Fabric fabric = Fabric::kTcpZmq;
  Stage stage = Stage::kFull;
  workload::DatasetSpec dataset;
  train::ModelProfile model;
  sim::NodeSpec compute_node = sim::presets::uc_compute();
  sim::NodeSpec storage_node = sim::presets::uc_storage();
  sim::NetworkRegime regime;
  LoaderParams params;

  std::size_t num_compute_nodes = 1;
  bool sharded = false;            ///< scenario 2: 50 % local + 50 % remote
  train::DdpConfig ddp;            ///< used when num_compute_nodes > 1
  train::LossModel loss;
  bool record_loss_curve = false;
  tsdb::Database* record_energy_to = nullptr;  ///< optional 100 ms traces
};

struct ScenarioResult {
  std::string name;
  double duration_s = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t batches = 0;
  /// Energy of every compute node over the epoch (storage node reported
  /// separately: the paper's figures measure the training side).
  std::vector<energy::NodeEnergy> compute_energy;
  energy::NodeEnergy storage_energy;
  /// Summed compute-side energy — the figures' bars.
  energy::NodeEnergy total;
  /// (wall-clock seconds, loss) per iteration when record_loss_curve is set.
  std::vector<std::pair<double, double>> loss_curve;

  double io_throughput_mb_s = 0.0;  ///< payload bytes / duration
};

/// Run one epoch of the configured scenario. Deterministic.
ScenarioResult run_scenario(const ScenarioConfig& config);

}  // namespace emlio::eval
