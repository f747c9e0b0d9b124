// The EMLIO Planner (paper §4.2, Algorithm 2).
//
// A centralized component that ingests TFRecord shard metadata (offsets,
// sizes, labels — the mapping_shard_*.json files), the compute-node list and
// epoch/batch-size parameters, and emits a *batch plan*: for every epoch and
// node, exactly which contiguous shard record ranges form each fixed-size
// batch. Compute nodes never scan shards or issue random small reads; the
// correctness of data-parallel epoch semantics (every sample exactly once
// per epoch across the fleet) is decided here, ahead of time.
//
// Algorithm 2 line 2's global label map is the shard indexes' records
// themselves: each RecordEntry pairs a sample index with its label, and the
// daemon reads a sample's label from its own entry, so the planner keeps
// only each shard's record count.
//
// Randomization: the shard list is shuffled every epoch (Algorithm 2 line 4)
// and the batch-sized slices within each shard are shuffled too, so batch
// order is randomized while every batch stays one contiguous byte range.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tfrecord/shard_index.h"

namespace emlio::core {

struct PlannerConfig {
  std::size_t batch_size = 128;       ///< B
  std::uint32_t epochs = 1;           ///< E
  /// T — partitions (WorkerPlans) per node, the paper's SendWorker split.
  /// The daemon's local_batches flattens and re-sorts them by batch_id, so
  /// T shapes the plan only; the daemon's pool width is DaemonConfig's.
  std::uint32_t threads_per_node = 1;
  std::uint64_t seed = 1234;          ///< epoch-shuffle RNG seed
  bool shuffle = true;                ///< disable for deterministic tests
  /// Scenario 2 semantics: every node receives the full dataset
  /// ("each node ... still processes the full dataset", §5.2). Default is
  /// standard data-parallel partitioning (shards round-robin across nodes).
  bool full_dataset_per_node = false;
};

/// One batch: `count` records of `shard_id` starting at `first_record`.
struct BatchAssignment {
  std::uint64_t batch_id = 0;   ///< unique within (epoch, node)
  std::uint32_t epoch = 0;
  std::uint32_t node_id = 0;    ///< destination compute node
  std::uint32_t worker_id = 0;  ///< WorkerPlan partition index within the node
  std::uint32_t shard_id = 0;
  std::uint64_t first_record = 0;
  std::uint32_t count = 0;

  bool operator==(const BatchAssignment&) const = default;
};

/// One of the T plan partitions (the paper's SendWorkers) for one
/// (epoch, node).
struct WorkerPlan {
  std::uint32_t node_id = 0;
  std::uint32_t worker_id = 0;
  std::vector<BatchAssignment> batches;
};

/// One compute node's plan for an epoch.
struct NodePlan {
  std::uint32_t node_id = 0;
  std::vector<WorkerPlan> workers;

  std::size_t total_batches() const;
  std::uint64_t total_samples() const;
};

/// The full plan for one epoch across all nodes.
struct EpochPlan {
  std::uint32_t epoch = 0;
  std::vector<NodePlan> nodes;

  std::size_t total_batches() const;
  std::uint64_t total_samples() const;
};

/// Shard metadata the planner needs (decoupled from the full index so the
/// simulator can plan over synthetic shards without files on disk).
struct ShardMeta {
  std::uint32_t shard_id = 0;
  std::uint64_t num_records = 0;
};

class Planner {
 public:
  /// Plan over full shard indexes (their record counts).
  Planner(const std::vector<tfrecord::ShardIndex>& shards, PlannerConfig config);

  /// Plan over bare metadata.
  Planner(std::vector<ShardMeta> shards, PlannerConfig config);

  const PlannerConfig& config() const noexcept { return config_; }

  /// Total records across all shards (|D|).
  std::uint64_t dataset_size() const noexcept { return dataset_size_; }

  /// Build the plan for `epoch` over `num_nodes` compute nodes.
  /// Deterministic: same (seed, epoch, num_nodes) → same plan.
  EpochPlan plan_epoch(std::uint32_t epoch, std::size_t num_nodes) const;

  /// Sanity-check a plan: per-node batch sizes ≤ B, ranges in bounds, and —
  /// for partitioned plans — every record covered exactly once across nodes.
  /// Throws std::logic_error with a description on violation.
  static void validate(const EpochPlan& plan, const std::vector<ShardMeta>& shards,
                       const PlannerConfig& config);

 private:
  std::vector<ShardMeta> shards_;
  PlannerConfig config_;
  std::uint64_t dataset_size_ = 0;
};

}  // namespace emlio::core
