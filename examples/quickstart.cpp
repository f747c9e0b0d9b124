// Quickstart: the whole EMLIO pipeline in one file.
//
//   1. generate a small synthetic dataset and pack it into TFRecord shards
//      (+ mapping_shard_*.json indexes),
//   2. start an EmlioService — Planner + storage Daemon + Receiver wired
//      over real loopback TCP with multi-stream PUSH/PULL and HWM=16,
//   3. feed the received batches through the DALI-style preprocessing
//      pipeline (decode → crop → mirror → normalize, async prefetch),
//   4. run a mock training loop that verifies data-parallel epoch semantics
//      (every sample exactly once, payloads checksum-clean).
//
// Run:  ./quickstart [num_samples]
#include <cstdio>
#include <filesystem>

#include "core/service.h"
#include "pipeline/pipeline.h"
#include "train/trainer.h"
#include "workload/materialize.h"

using namespace emlio;

int main(int argc, char** argv) {
  std::uint64_t num_samples = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 256;

  // 1. Build the dataset: pseudo-JPEG samples of ~16 KiB into 4 shards.
  namespace fs = std::filesystem;
  auto dir = fs::temp_directory_path() / "emlio_quickstart";
  fs::remove_all(dir);
  auto spec = workload::presets::tiny(num_samples, 16 * 1024);
  auto built = workload::materialize_tfrecord(spec, dir.string(), /*num_shards=*/4);
  std::printf("dataset: %zu samples, %.1f MB across %zu shards in %s\n",
              static_cast<std::size_t>(built.total_records()),
              static_cast<double>(built.total_payload_bytes()) / 1e6, built.shards.size(),
              dir.string().c_str());

  // 2. EMLIO service over real TCP on loopback.
  core::ServiceConfig cfg;
  cfg.dataset_dir = dir.string();
  cfg.batch_size = 32;
  cfg.epochs = 2;
  cfg.threads_per_node = 2;   // T plan partitions (the daemon merges them)
  cfg.num_streams = 2;        // parallel TCP streams
  cfg.high_water_mark = 16;   // the paper's ZMQ HWM
  cfg.transport = core::Transport::kTcp;
  core::EmlioService service(cfg);
  service.start();

  // 3. DALI-style pipeline fed by the receiver (external_source).
  pipeline::PipelineConfig pcfg;
  pcfg.prefetch_depth = 4;  // Q
  pcfg.num_threads = 2;
  pipeline::Pipeline pipe(pcfg, [&] { return service.next_batch(); });
  pipe.warm_up();  // Algorithm 3 line 4

  // 4. Train (mock model, real integrity checks).
  train::TrainerOptions topt;
  topt.expected_samples_per_epoch = spec.num_samples;
  topt.validate_payloads = false;  // the pipeline's decode already verified checksums
  train::Trainer trainer(topt);
  std::uint32_t epoch = 0;
  trainer.start_epoch(epoch);
  while (auto out = pipe.run()) {
    if (out->epoch_end) {
      auto result = trainer.end_epoch();
      std::printf("epoch %u: %llu samples, %llu batches, loss %.3f, clean=%s\n", result.epoch,
                  static_cast<unsigned long long>(result.samples),
                  static_cast<unsigned long long>(result.batches), result.final_loss,
                  result.clean(spec.num_samples) ? "yes" : "NO");
      if (++epoch < cfg.epochs) trainer.start_epoch(epoch);
      continue;
    }
    // Re-pack the preprocessed batch for the trainer's bookkeeping: in a real
    // deployment the tensors go straight to the GPU; the trainer here only
    // needs indices/labels, which the pipeline preserved.
    msgpack::WireBatch wire;
    wire.epoch = out->epoch;
    wire.batch_id = out->batch_id;
    for (const auto& s : out->samples) {
      msgpack::WireSample ws;
      ws.index = s.sample_index;
      ws.label = s.label;
      wire.samples.push_back(std::move(ws));
    }
    trainer.train_step(wire);
  }

  service.stop();
  auto stats = service.stats();
  std::printf("daemon sent %llu batches (%.1f MB serialized); receiver decoded %llu batches, "
              "%llu errors\n",
              static_cast<unsigned long long>(stats.daemon.batches_sent),
              static_cast<double>(stats.daemon.bytes_sent) / 1e6,
              static_cast<unsigned long long>(stats.receiver.batches_received),
              static_cast<unsigned long long>(stats.receiver.decode_errors));
  fs::remove_all(dir);
  return 0;
}
