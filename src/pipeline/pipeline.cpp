#include "pipeline/pipeline.h"

#include <array>

#include "common/rng.h"

namespace emlio::pipeline {

Pipeline::Pipeline(PipelineConfig config, ExternalSource source)
    : config_(config),
      source_(std::move(source)),
      work_queue_(config.prefetch_depth ? config.prefetch_depth : 1),
      out_queue_(config.prefetch_depth ? config.prefetch_depth : 1) {
  if (!source_) throw std::invalid_argument("pipeline: null external source");
  std::size_t n = config_.num_threads ? config_.num_threads : 1;
  workers_live_.store(n, std::memory_order_release);
  feeder_ = std::thread([this] { feeder_loop(); });
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Pipeline::~Pipeline() { shutdown(); }

void Pipeline::shutdown() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  work_queue_.close();
  out_queue_.close();
  if (feeder_.joinable()) feeder_.join();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void Pipeline::warm_up() {
  // The queues fill on their own; warm-up just waits until the prefetch
  // buffer is full (or the stream ended first).
  while (!stopped_.load(std::memory_order_acquire) &&
         out_queue_.size() < out_queue_.capacity() &&
         workers_live_.load(std::memory_order_acquire) > 0) {
    std::this_thread::yield();
  }
}

std::optional<PreprocessedBatch> Pipeline::run() { return out_queue_.pop(); }

PipelineStats Pipeline::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void Pipeline::feeder_loop() {
  std::uint64_t sequence = 0;
  for (;;) {
    auto batch = source_();
    if (!batch) break;
    if (!work_queue_.push(WorkItem{sequence++, std::move(*batch)})) return;
  }
  work_queue_.close();
}

PreprocessedBatch Pipeline::preprocess(msgpack::WireBatch batch) {
  PreprocessedBatch out;
  out.epoch = batch.epoch;
  out.batch_id = batch.batch_id;
  out.epoch_end = batch.last;
  if (batch.last) return out;

  static constexpr std::array<float, 3> kMean = {128.0f, 128.0f, 128.0f};
  static constexpr std::array<float, 3> kStd = {64.0f, 64.0f, 64.0f};
  static constexpr std::uint64_t kAugmentSeed = 99;  // random crop + flip stream

  out.samples.reserve(batch.samples.size());
  std::uint64_t failures = 0;
  for (const auto& s : batch.samples) {
    Decoded d = decode(std::span<const std::uint8_t>(s.bytes.data(), s.bytes.size()), s.label,
                       config_.decode_height, config_.decode_width);
    if (!d.checksum_ok) ++failures;

    // Deterministic per-sample augmentation stream (same sample, same epoch
    // → same augmentation; different epochs reshuffle via the seed mix).
    Rng rng(kAugmentSeed ^ (s.index * 0x9E3779B97F4A7C15ull) ^ batch.epoch);
    if (config_.crop > 0 && config_.crop <= d.image.height && config_.crop <= d.image.width) {
      auto max_y = d.image.height - config_.crop;
      auto max_x = d.image.width - config_.crop;
      auto y0 = static_cast<std::uint32_t>(rng.uniform(max_y + 1));
      auto x0 = static_cast<std::uint32_t>(rng.uniform(max_x + 1));
      d.image = crop(d.image, y0, x0, config_.crop, config_.crop);
    }
    d.image = mirror(d.image, rng.uniform01() < 0.5);
    d.image = normalize(d.image, kMean, kStd);
    out.samples.push_back(std::move(d));
  }

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.batches;
    stats_.samples += out.samples.size();
    stats_.checksum_failures += failures;
  }
  return out;
}

void Pipeline::worker_loop() {
  for (;;) {
    auto item = work_queue_.pop();
    if (!item) break;
    PreprocessedBatch result = preprocess(std::move(item->batch));

    // Reorder: emit strictly by sequence so multi-threaded decode preserves
    // the planner's batch order. The mutex stays held across the push so two
    // workers can never interleave emissions; the consumer side never takes
    // this mutex, so a full output queue drains normally (backpressure, not
    // deadlock).
    std::unique_lock<std::mutex> lock(reorder_mutex_);
    reorder_.emplace(item->sequence, std::move(result));
    while (!reorder_.empty() && reorder_.begin()->first == next_emit_) {
      PreprocessedBatch ready = std::move(reorder_.begin()->second);
      reorder_.erase(reorder_.begin());
      ++next_emit_;
      if (!out_queue_.push(std::move(ready))) return;
    }
  }
  if (workers_live_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    out_queue_.close();  // last worker out: downstream sees end of stream
  }
}

}  // namespace emlio::pipeline
