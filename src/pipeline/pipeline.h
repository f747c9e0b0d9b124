// DALI-style asynchronous preprocessing pipeline (paper §4.4, Algorithm 3).
//
// An ExternalSource callback feeds wire batches (EMLIO's BatchProvider, or
// any loader); `num_threads` decode workers run decode→resize→crop→mirror→
// normalize concurrently with the consumer (DALI's exec_async /
// exec_pipelined, §4.5); results land in a prefetch queue of depth Q.
// run() pops one preprocessed batch — the pipe.run() of Algorithm 3 line 7.
// warm_up() manually fills the queue (line 4). Batch order is preserved even
// with multiple decode workers (completion-buffer reordering), because the
// training loop's loss accounting expects the planner's batch stream.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "msgpack/batch_codec.h"
#include "pipeline/ops.h"

namespace emlio::pipeline {

/// Callback supplying the next wire batch; nullopt ends the stream.
/// A batch with last=true is passed through as an epoch marker.
using ExternalSource = std::function<std::optional<msgpack::WireBatch>()>;

struct PipelineConfig {
  std::size_t prefetch_depth = 4;   ///< Q — prefetched preprocessed batches
  std::size_t num_threads = 2;     ///< decode worker threads
  std::uint32_t decode_height = 32;
  std::uint32_t decode_width = 32;
  std::uint32_t crop = 28;          ///< random-crop output size (0 = off)
};

/// One preprocessed batch.
struct PreprocessedBatch {
  std::uint32_t epoch = 0;
  std::uint64_t batch_id = 0;
  bool epoch_end = false;  ///< true for the end-of-epoch marker
  std::vector<Decoded> samples;
};

struct PipelineStats {
  std::uint64_t batches = 0;
  std::uint64_t samples = 0;
  std::uint64_t checksum_failures = 0;
};

class Pipeline {
 public:
  Pipeline(PipelineConfig config, ExternalSource source);
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Algorithm 3 line 4: run Q fetches so the prefetch queue is full before
  /// the training loop starts.
  void warm_up();

  /// Pop the next preprocessed batch (blocking). nullopt = stream ended.
  std::optional<PreprocessedBatch> run();

  /// Stop workers and release the source. Idempotent.
  void shutdown();

  PipelineStats stats() const;
  const PipelineConfig& config() const noexcept { return config_; }

 private:
  void feeder_loop();
  void worker_loop();
  PreprocessedBatch preprocess(msgpack::WireBatch batch);

  PipelineConfig config_;
  ExternalSource source_;

  struct WorkItem {
    std::uint64_t sequence;
    msgpack::WireBatch batch;
  };
  BoundedQueue<WorkItem> work_queue_;
  BoundedQueue<PreprocessedBatch> out_queue_;

  // Reorder buffer: worker results enter keyed by sequence; the emitter
  // releases them in order.
  std::mutex reorder_mutex_;
  std::map<std::uint64_t, PreprocessedBatch> reorder_;
  std::uint64_t next_emit_ = 0;

  std::thread feeder_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};
  std::atomic<std::size_t> workers_live_{0};

  mutable std::mutex stats_mutex_;
  PipelineStats stats_;
};

}  // namespace emlio::pipeline
