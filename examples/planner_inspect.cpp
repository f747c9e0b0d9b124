// Inspect what the Planner (Algorithm 2) produces: build a small dataset,
// plan two epochs across two nodes with two SendWorker threads each, dump
// the batch plan, and validate the data-parallel coverage invariant.
#include <cstdio>
#include <filesystem>

#include "core/planner.h"
#include "workload/materialize.h"

using namespace emlio;

int main() {
  namespace fs = std::filesystem;
  auto dir = fs::temp_directory_path() / "emlio_planner_example";
  fs::remove_all(dir);
  auto spec = workload::presets::tiny(96, 2048);
  workload::materialize_tfrecord(spec, dir.string(), 3);
  auto indexes = tfrecord::load_all_indexes(dir.string());

  core::PlannerConfig cfg;
  cfg.batch_size = 8;
  cfg.epochs = 2;
  cfg.threads_per_node = 2;
  core::Planner planner(indexes, cfg);
  std::printf("dataset: %llu samples in %zu shards\n",
              static_cast<unsigned long long>(planner.dataset_size()), indexes.size());

  std::vector<core::ShardMeta> meta;
  for (const auto& idx : indexes) meta.push_back({idx.shard_id, idx.num_records()});

  for (std::uint32_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    auto plan = planner.plan_epoch(epoch, /*num_nodes=*/2);
    core::Planner::validate(plan, meta, cfg);  // throws on any coverage bug
    std::printf("epoch %u: %zu batches, %llu samples, coverage VALID\n", epoch,
                plan.total_batches(), static_cast<unsigned long long>(plan.total_samples()));
    for (const auto& node : plan.nodes) {
      for (const auto& worker : node.workers) {
        std::printf("  node %u / worker %u: %zu batches |", node.node_id, worker.worker_id,
                    worker.batches.size());
        for (std::size_t i = 0; i < std::min<std::size_t>(4, worker.batches.size()); ++i) {
          const auto& b = worker.batches[i];
          std::printf(" [shard %u recs %llu..%llu]", b.shard_id,
                      static_cast<unsigned long long>(b.first_record),
                      static_cast<unsigned long long>(b.first_record + b.count - 1));
        }
        if (worker.batches.size() > 4) std::printf(" ...");
        std::printf("\n");
      }
    }
  }
  std::printf("note: epoch 0 and epoch 1 orders differ (per-epoch shuffle), but each epoch\n"
              "covers every record exactly once across the two nodes.\n");
  fs::remove_all(dir);
  return 0;
}
