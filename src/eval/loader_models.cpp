#include "eval/loader_models.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>

#include "common/rng.h"
#include "eval/rig.h"
#include "sim/engine.h"
#include "sim/pipe.h"
#include "sim/semaphore.h"
#include "storage/read_cost.h"

namespace emlio::eval {

namespace {

/// Shared GPU training loop: consumes ready batches one at a time, metering
/// GPU (fractional activity = sub-peak power) and the host feed threads;
/// optionally models DDP allreduce with busy-poll spin energy.
class TrainSide {
 public:
  TrainSide(sim::Engine& eng, NodeRig& node, const ScenarioConfig& cfg,
            std::uint64_t total_batches, std::size_t batch_size, bool decode_on_gpu)
      : eng_(&eng),
        node_(&node),
        cfg_(&cfg),
        total_batches_(total_batches),
        batch_size_(batch_size),
        decode_on_gpu_(decode_on_gpu),
        loss_rng_(cfg.loss.tau_samples > 0 ? 17 : 17) {}

  /// Invoked by the loader model when one batch's data is fully on the node.
  /// `bytes` = encoded payload (drives the GPU decode cost).
  void batch_ready(std::uint64_t bytes) {
    ready_.push_back(bytes);
    maybe_start();
  }

  /// Fires once after the last batch completes.
  std::function<void()> on_complete;
  /// Fires when a batch is dequeued for training (releases upstream credit).
  std::function<void()> on_consume;

  std::uint64_t batches_done() const { return done_; }
  std::vector<std::pair<double, double>>&& take_loss_curve() { return std::move(curve_); }

 private:
  void maybe_start() {
    if (busy_ || ready_.empty()) return;
    busy_ = true;
    std::uint64_t bytes = ready_.front();
    ready_.pop_front();
    if (on_consume) on_consume();

    if (cfg_->stage != Stage::kFull) {
      // Stage experiments stop before training: consume instantly.
      finish_batch();
      return;
    }

    const auto& m = cfg_->model;
    Nanos gpu_time = m.train_batch(batch_size_);
    if (decode_on_gpu_) gpu_time += m.gpu_decode(bytes);
    node_->gpu().begin_work(m.gpu_active_fraction);
    node_->cpu().begin_work(m.cpu_threads_during_train);
    eng_->schedule(gpu_time, [this] {
      node_->gpu().end_work(cfg_->model.gpu_active_fraction);
      node_->cpu().end_work(cfg_->model.cpu_threads_during_train);
      samples_seen_ += batch_size_;
      if (cfg_->record_loss_curve) {
        curve_.emplace_back(to_seconds(eng_->now()), cfg_->loss.observe(samples_seen_, loss_rng_));
      }
      after_step();
    });
  }

  void after_step() {
    // DDP synchronization: the ring allreduce's bandwidth term stalls the
    // step (exposed); the bucketed RTT term overlaps the next step's compute
    // but the NCCL-style busy-poll keeps CPU threads and part of the GPU
    // burning power for the *whole* window — Figure 10's energy growth at
    // constant duration.
    if (cfg_->num_compute_nodes > 1) {
      Nanos full = train::allreduce_time(cfg_->ddp, cfg_->model.gradient_bytes,
                                         cfg_->regime.rtt_ms);
      Nanos exposed = train::allreduce_bandwidth_term(cfg_->ddp, cfg_->model.gradient_bytes);
      node_->cpu().begin_work(cfg_->ddp.spin_cpu_threads);
      node_->gpu().begin_work(cfg_->ddp.spin_gpu_fraction);
      eng_->schedule(full, [this] {
        node_->cpu().end_work(cfg_->ddp.spin_cpu_threads);
        node_->gpu().end_work(cfg_->ddp.spin_gpu_fraction);
      });
      eng_->schedule(exposed, [this] { finish_batch(); });
      return;
    }
    finish_batch();
  }

  void finish_batch() {
    Nanos extra = 0;
    if (cfg_->stage == Stage::kFull) {
      if (cfg_->loader == LoaderKind::kPyTorch) {
        extra = cfg_->params.pytorch_per_batch_overhead;
      } else if (cfg_->loader == LoaderKind::kEmlio) {
        // external_source dequeue + feed cost; the loopback re-ingest adds a
        // little more when storage and compute share a node (§5.1 "2 %
        // slower than DALI" at local storage).
        extra = cfg_->params.emlio_feed_overhead;
        if (cfg_->regime.local_disk) extra += from_millis(1.3);
      } else if (cfg_->loader == LoaderKind::kDali && !cfg_->regime.local_disk) {
        extra = cfg_->params.dali_nfs_per_batch_overhead;
      }
    }
    auto complete = [this] {
      busy_ = false;
      if (++done_ == total_batches_) {
        if (on_complete) on_complete();
      } else {
        maybe_start();
      }
    };
    if (extra > 0) {
      node_->cpu().begin_work(1.0);
      eng_->schedule(extra, [this, complete] {
        node_->cpu().end_work(1.0);
        complete();
      });
    } else {
      complete();
    }
  }

  sim::Engine* eng_;
  NodeRig* node_;
  const ScenarioConfig* cfg_;
  std::uint64_t total_batches_;
  std::size_t batch_size_;
  bool decode_on_gpu_;
  bool busy_ = false;
  std::uint64_t done_ = 0;
  std::uint64_t samples_seen_ = 0;
  std::deque<std::uint64_t> ready_;
  Rng loss_rng_;
  std::vector<std::pair<double, double>> curve_;
};

/// Per-sample fetch cost through the configured storage regime.
struct FetchModel {
  storage::LocalDiskModel local;
  storage::NfsModel nfs;
  bool use_local = false;

  Nanos sample_time(std::uint64_t bytes) const {
    return use_local ? local.read_time(bytes) : nfs.read_time(bytes);
  }
};

FetchModel make_fetch(const ScenarioConfig& cfg, double metadata_rtts, std::size_t streams) {
  FetchModel f;
  f.use_local = cfg.regime.local_disk;
  // Per-file loaders do random small reads; SSDs deliver a fraction of their
  // sequential bandwidth on that pattern (EMLIO's contiguous TFRecord slices
  // keep the full sequential rate — §4.3's point).
  f.local.bytes_per_sec = 0.25 * cfg.compute_node.disk_bytes_per_sec;
  f.local.request_latency = cfg.compute_node.disk_latency;
  f.nfs.rtt_ms = cfg.regime.rtt_ms;
  f.nfs.metadata_round_trips = metadata_rtts;
  f.nfs.server_bytes_per_sec = cfg.storage_node.disk_bytes_per_sec;
  // Streams share the NIC: each gets an equal slice, capped by a
  // per-connection ceiling typical of single-stream TCP on 10 GbE.
  double per_stream =
      std::min(300e6, cfg.compute_node.nic_bytes_per_sec / static_cast<double>(streams));
  f.nfs.stream_bytes_per_sec = per_stream;
  return f;
}

// ------------------------------------------------------------------ PyTorch

/// W workers: fetch (idle CPU) → decode on a host core → collate.
ScenarioResult run_pytorch(const ScenarioConfig& cfg) {
  sim::Engine eng;
  NodeRig compute(eng, cfg.compute_node, "compute0");
  NodeRig storage_rig(eng, cfg.storage_node, "storage0");

  const auto& ds = cfg.dataset;
  const std::size_t B = cfg.params.batch_size;
  const std::uint64_t total_batches = (ds.num_samples + B - 1) / B;

  TrainSide trainer(eng, compute, cfg, total_batches, B, /*decode_on_gpu=*/false);

  FetchModel fetch = make_fetch(cfg, cfg.params.pytorch_metadata_rtts,
                                cfg.params.pytorch_workers);
  sim::Server decode_pool(eng, cfg.compute_node.cpu_threads, &compute.cpu());

  std::uint64_t issued = 0;
  std::uint64_t decoded = 0;
  std::uint64_t batches_announced = 0;
  Nanos finish_time = 0;
  bool done = false;

  // NFS serving burns storage-node CPU (nfsd + disk) proportional to load.
  if (!cfg.regime.local_disk) storage_rig.cpu().begin_work(2.0);

  std::function<void()> worker_fetch = [&]() {
    if (issued >= ds.num_samples) return;
    ++issued;
    eng.schedule(fetch.sample_time(ds.bytes_per_sample), [&] {
      auto after_decode = [&] {
        ++decoded;
        while (decoded >= std::min<std::uint64_t>((batches_announced + 1) * B, ds.num_samples) &&
               batches_announced < total_batches) {
          ++batches_announced;
          trainer.batch_ready(B * ds.bytes_per_sample);
        }
        worker_fetch();  // worker moves on to its next sample
      };
      if (cfg.stage == Stage::kRead) {
        after_decode();  // read-only stage: no decode work
      } else {
        decode_pool.submit(cfg.model.cpu_decode(ds.bytes_per_sample), after_decode);
      }
    });
  };

  trainer.on_complete = [&] {
    finish_time = eng.now();
    done = true;
  };

  for (std::size_t w = 0; w < cfg.params.pytorch_workers; ++w) worker_fetch();
  eng.run();
  if (!cfg.regime.local_disk) storage_rig.cpu().end_work(2.0);
  if (!done) finish_time = eng.now();

  ScenarioResult r;
  r.name = cfg.name;
  r.duration_s = to_seconds(finish_time);
  r.samples = ds.num_samples;
  r.batches = total_batches;
  r.compute_energy.push_back(compute.energy(0, finish_time));
  r.storage_energy = storage_rig.energy(0, finish_time);
  r.total = r.compute_energy[0];
  r.loss_curve = trainer.take_loss_curve();
  r.io_throughput_mb_s = static_cast<double>(ds.total_bytes()) / 1e6 / r.duration_s;
  if (cfg.record_energy_to) compute.record(*cfg.record_energy_to, 0, finish_time);
  return r;
}

// --------------------------------------------------------------------- DALI

/// P prefetch streams fetch files; decode happens on the GPU.
ScenarioResult run_dali(const ScenarioConfig& cfg) {
  sim::Engine eng;
  NodeRig compute(eng, cfg.compute_node, "compute0");
  NodeRig storage_rig(eng, cfg.storage_node, "storage0");

  const auto& ds = cfg.dataset;
  const std::size_t B = cfg.params.batch_size;
  const std::uint64_t total_batches = (ds.num_samples + B - 1) / B;

  TrainSide trainer(eng, compute, cfg, total_batches, B, /*decode_on_gpu=*/true);

  // In the sharded scenario each node reads 50 % locally and 50 % over NFS;
  // centralized remote regimes read 100 % over NFS.
  FetchModel fetch = make_fetch(cfg, cfg.params.dali_metadata_rtts,
                                cfg.params.dali_prefetch_streams);
  FetchModel local_fetch = fetch;
  local_fetch.use_local = true;

  std::uint64_t issued = 0;
  std::uint64_t fetched = 0;
  std::uint64_t batches_announced = 0;
  Nanos finish_time = 0;

  compute.cpu().begin_work(cfg.params.dali_feed_threads);
  if (!cfg.regime.local_disk && !cfg.sharded) storage_rig.cpu().begin_work(2.0);

  std::function<void()> stream_fetch = [&]() {
    if (issued >= ds.num_samples) return;
    std::uint64_t i = issued++;
    bool local = cfg.regime.local_disk || (cfg.sharded && (i % 2 == 0));
    Nanos t = local ? local_fetch.sample_time(ds.bytes_per_sample)
                    : fetch.sample_time(ds.bytes_per_sample);
    eng.schedule(t, [&] {
      ++fetched;
      while (fetched >= std::min<std::uint64_t>((batches_announced + 1) * B, ds.num_samples) &&
             batches_announced < total_batches) {
        ++batches_announced;
        trainer.batch_ready(B * ds.bytes_per_sample);
      }
      stream_fetch();
    });
  };

  bool done = false;
  trainer.on_complete = [&] {
    finish_time = eng.now();
    done = true;
  };

  for (std::size_t s = 0; s < cfg.params.dali_prefetch_streams; ++s) stream_fetch();
  eng.run();
  compute.cpu().end_work(cfg.params.dali_feed_threads);
  if (!cfg.regime.local_disk && !cfg.sharded) storage_rig.cpu().end_work(2.0);
  if (!done) finish_time = eng.now();

  ScenarioResult r;
  r.name = cfg.name;
  r.duration_s = to_seconds(finish_time);
  r.samples = ds.num_samples;
  r.batches = total_batches;
  auto e0 = compute.energy(0, finish_time);
  r.compute_energy.push_back(e0);
  r.storage_energy = storage_rig.energy(0, finish_time);
  r.total = e0;
  if (cfg.num_compute_nodes > 1) {
    // Symmetric data-parallel peers: clone node 0's profile.
    for (std::size_t n = 1; n < cfg.num_compute_nodes; ++n) {
      auto e = e0;
      e.node_id = "compute" + std::to_string(n);
      r.compute_energy.push_back(e);
      r.total.cpu_joules += e.cpu_joules;
      r.total.dram_joules += e.dram_joules;
      r.total.gpu_joules += e.gpu_joules;
    }
  }
  r.loss_curve = trainer.take_loss_curve();
  r.io_throughput_mb_s = static_cast<double>(ds.total_bytes()) / 1e6 / r.duration_s;
  if (cfg.record_energy_to) compute.record(*cfg.record_energy_to, 0, finish_time);
  return r;
}

// -------------------------------------------------------------------- EMLIO

/// Storage daemon (T threads): disk slice → serialize → HWM-capped stream →
/// receiver deserialize → prefetch queue → GPU.
ScenarioResult run_emlio(const ScenarioConfig& cfg) {
  sim::Engine eng;
  NodeRig compute(eng, cfg.compute_node, "compute0");
  NodeRig storage_rig(eng, cfg.storage_node, "storage0");
  // Local regime: daemon and trainer share one box — meter the same rig.
  NodeRig& daemon_host = cfg.regime.local_disk ? compute : storage_rig;

  const auto& ds = cfg.dataset;
  const auto& p = cfg.params;
  const std::size_t B = p.batch_size;
  const std::uint64_t total_batches = (ds.num_samples + B - 1) / B;
  const std::uint64_t batch_bytes = B * ds.bytes_per_sample;

  TrainSide trainer(eng, compute, cfg, total_batches, B, /*decode_on_gpu=*/true);

  sim::Pipe disk(eng, cfg.regime.local_disk ? cfg.compute_node.disk_bytes_per_sec
                                            : cfg.storage_node.disk_bytes_per_sec,
                 cfg.regime.local_disk ? cfg.compute_node.disk_latency
                                       : cfg.storage_node.disk_latency);
  sim::Pipe network(eng, cfg.compute_node.nic_bytes_per_sec,
                    from_millis(cfg.regime.rtt_ms / 2.0));
  // Pipelined storage engine: the read+encode pool can be wider than the
  // daemon's worker count (DaemonConfig::pool_threads), and a bounded
  // encoded-batch queue sits between encode and the wire
  // (DaemonConfig::prefetch_depth). Defaults model the paper's daemon: one
  // encode thread per SendWorker (pool width = T).
  std::size_t pool_threads =
      p.emlio_pool_threads ? p.emlio_pool_threads : p.emlio_daemon_threads;
  // Receiver-side decode fan-out (LoaderParams::emlio_decode_threads)
  // widens the deserialize stage the same way pool_threads widens the
  // storage-side encode stage.
  std::size_t decode_threads =
      p.emlio_decode_threads ? p.emlio_decode_threads
                             : static_cast<std::size_t>(p.deserialize_threads);
  sim::Server serialize_pool(eng, pool_threads, &daemon_host.cpu());
  sim::Server deserialize_pool(eng, decode_threads, &compute.cpu());
  sim::AsyncSemaphore hwm(p.emlio_hwm * p.emlio_streams);
  sim::AsyncSemaphore prefetch(p.emlio_prefetch_q);
  std::unique_ptr<sim::AsyncSemaphore> send_queue;
  if (p.emlio_prefetch_depth) {
    send_queue = std::make_unique<sim::AsyncSemaphore>(p.emlio_prefetch_depth);
  }

  // Sharded scenario 2: every node consumes the full dataset, with half the
  // shards local and half streamed from peer daemons — but the EMLIO wire
  // path is identical (the remote half just crosses the network pipe), so
  // the batch stream is modeled uniformly; peer-serving CPU is charged below.
  std::uint64_t next_batch = 0;
  Nanos finish_time = 0;

  // Fabric effects (§6 future work): RDMA's zero-copy verbs cut the host
  // CPU cost of moving a byte by ~60 % on both ends; NVMe-oF removes the
  // serialize stage entirely (the receiver reads raw shard extents) at the
  // price of one fabric round trip per read, which deep submission queues
  // pipeline away.
  double host_cost_scale = cfg.fabric == Fabric::kRdma ? 0.4 : 1.0;
  auto serialize_time = [&, host_cost_scale](std::uint64_t bytes) -> Nanos {
    if (cfg.fabric == Fabric::kNvmeOf) return 0;
    return static_cast<Nanos>(static_cast<double>(bytes) / p.serialize_bytes_per_sec * 1e9 *
                              host_cost_scale);
  };
  auto deserialize_time = [&, host_cost_scale](std::uint64_t bytes) -> Nanos {
    double scale = cfg.fabric == Fabric::kNvmeOf ? 0.3 : host_cost_scale;
    return static_cast<Nanos>(static_cast<double>(bytes) / p.deserialize_bytes_per_sec * 1e9 *
                              scale);
  };

  // Sample-cache model: on a warm epoch the cached fraction of batches is
  // served from daemon DRAM — no disk stage. Batches are picked evenly
  // (Bresenham spread) so partial caches interleave hits and misses the way
  // a CLOCK/LRU-resident working set does.
  const double cache_hit_fraction =
      (p.emlio_cache_warm && p.emlio_cache_mb > 0 && ds.total_bytes() > 0)
          ? std::min(1.0, static_cast<double>(p.emlio_cache_mb << 20) /
                              static_cast<double>(ds.total_bytes()))
          : 0.0;

  // One logical flow per daemon thread.
  std::function<void()> daemon_next = [&]() {
    if (next_batch >= total_batches) return;
    const std::uint64_t batch_index = next_batch;
    ++next_batch;
    bool remote = !cfg.regime.local_disk && (!cfg.sharded || (next_batch % 2 == 1));
    (void)remote;
    bool cache_hit =
        cache_hit_fraction > 0.0 &&
        std::floor(static_cast<double>(batch_index + 1) * cache_hit_fraction) >
            std::floor(static_cast<double>(batch_index) * cache_hit_fraction);
    // NVMe-oF reads cross the fabric: one extra round trip per extent read,
    // pipelined by the NVMe queue so only the first read's latency is exposed.
    Nanos extra_read_latency =
        cfg.fabric == Fabric::kNvmeOf ? from_millis(cfg.regime.rtt_ms / 2.0) : 0;
    auto fetch = [&](std::function<void()> then) {
      // Cache hit: bytes are already daemon-resident, skip the disk pipe.
      if (cache_hit) then();
      else disk.transfer_with_latency(batch_bytes, extra_read_latency, std::move(then));
    };
    fetch([&] {
      serialize_pool.submit(serialize_time(batch_bytes), [&] {
        // Encoded batch enters the per-sink prefetch queue (when modeled);
        // its slot frees once the sender hands the batch to the wire.
        auto enqueue = [&](std::function<void()> fn) {
          if (send_queue) send_queue->acquire(std::move(fn));
          else fn();
        };
        enqueue([&] {
        hwm.acquire([&] {
          if (send_queue) send_queue->release();
          daemon_next();  // pipeline: next batch proceeds while this one ships
          Nanos extra_loopback = 0;
          if (cfg.regime.local_disk) {
            // Loopback send/receive costs host CPU instead of the NIC.
            extra_loopback = static_cast<Nanos>(static_cast<double>(batch_bytes) /
                                                p.loopback_bytes_per_sec * 1e9);
            compute.cpu().begin_work(1.0);
            eng.schedule(extra_loopback, [&] { compute.cpu().end_work(1.0); });
          }
          network.transfer_with_latency(batch_bytes, extra_loopback, [&] {
            prefetch.acquire([&] {
              hwm.release();
              deserialize_pool.submit(deserialize_time(batch_bytes), [&] {
                trainer.batch_ready(batch_bytes);
              });
            });
          });
        });
        });
      });
    });
  };

  trainer.on_consume = [&] { prefetch.release(); };
  bool done = false;
  trainer.on_complete = [&] {
    finish_time = eng.now();
    done = true;
  };

  // Receiver + EMLIO-plugin host threads run for the whole epoch.
  compute.cpu().begin_work(p.emlio_service_threads);
  // Sharded peer service: each node's daemon also serializes for its peers —
  // symmetric cost, charged on the compute rig.
  if (cfg.sharded) compute.cpu().begin_work(1.0);

  for (std::size_t t = 0; t < pool_threads; ++t) daemon_next();
  eng.run();
  compute.cpu().end_work(p.emlio_service_threads);
  if (cfg.sharded) compute.cpu().end_work(1.0);
  if (!done) finish_time = eng.now();

  ScenarioResult r;
  r.name = cfg.name;
  r.duration_s = to_seconds(finish_time);
  r.samples = ds.num_samples;
  r.batches = total_batches;
  auto e0 = compute.energy(0, finish_time);
  r.compute_energy.push_back(e0);
  r.storage_energy = cfg.regime.local_disk ? energy::NodeEnergy{}
                                           : storage_rig.energy(0, finish_time);
  r.total = e0;
  if (cfg.num_compute_nodes > 1) {
    for (std::size_t n = 1; n < cfg.num_compute_nodes; ++n) {
      auto e = e0;
      e.node_id = "compute" + std::to_string(n);
      r.compute_energy.push_back(e);
      r.total.cpu_joules += e.cpu_joules;
      r.total.dram_joules += e.dram_joules;
      r.total.gpu_joules += e.gpu_joules;
    }
  }
  r.loss_curve = trainer.take_loss_curve();
  r.io_throughput_mb_s = static_cast<double>(ds.total_bytes()) / 1e6 / r.duration_s;
  if (cfg.record_energy_to) compute.record(*cfg.record_energy_to, 0, finish_time);
  return r;
}

}  // namespace

ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  switch (cfg.loader) {
    case LoaderKind::kPyTorch: return run_pytorch(cfg);
    case LoaderKind::kDali: return run_dali(cfg);
    case LoaderKind::kEmlio: return run_emlio(cfg);
  }
  throw std::logic_error("unknown loader kind");
}

}  // namespace emlio::eval
