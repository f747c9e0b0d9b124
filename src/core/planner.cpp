#include "core/planner.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>

namespace emlio::core {

namespace {

void check_config(const PlannerConfig& config) {
  if (config.batch_size == 0) throw std::invalid_argument("planner: batch_size must be > 0");
  if (config.threads_per_node == 0) {
    throw std::invalid_argument("planner: threads_per_node must be > 0");
  }
}

}  // namespace

std::size_t NodePlan::total_batches() const {
  std::size_t n = 0;
  for (const auto& w : workers) n += w.batches.size();
  return n;
}

std::uint64_t NodePlan::total_samples() const {
  std::uint64_t n = 0;
  for (const auto& w : workers) {
    for (const auto& b : w.batches) n += b.count;
  }
  return n;
}

std::size_t EpochPlan::total_batches() const {
  std::size_t n = 0;
  for (const auto& node : nodes) n += node.total_batches();
  return n;
}

std::uint64_t EpochPlan::total_samples() const {
  std::uint64_t n = 0;
  for (const auto& node : nodes) n += node.total_samples();
  return n;
}

Planner::Planner(const std::vector<tfrecord::ShardIndex>& shards, PlannerConfig config)
    : config_(config) {
  for (const auto& s : shards) {
    shards_.push_back(ShardMeta{s.shard_id, s.num_records()});
    dataset_size_ += s.num_records();
  }
  check_config(config_);
}

Planner::Planner(std::vector<ShardMeta> shards, PlannerConfig config)
    : shards_(std::move(shards)), config_(config) {
  for (const auto& s : shards_) dataset_size_ += s.num_records;
  check_config(config_);
}

EpochPlan Planner::plan_epoch(std::uint32_t epoch, std::size_t num_nodes) const {
  if (num_nodes == 0) throw std::invalid_argument("planner: num_nodes must be > 0");

  EpochPlan plan;
  plan.epoch = epoch;
  plan.nodes.resize(num_nodes);
  for (std::size_t n = 0; n < num_nodes; ++n) {
    plan.nodes[n].node_id = static_cast<std::uint32_t>(n);
    plan.nodes[n].workers.resize(config_.threads_per_node);
    for (std::uint32_t w = 0; w < config_.threads_per_node; ++w) {
      plan.nodes[n].workers[w].node_id = static_cast<std::uint32_t>(n);
      plan.nodes[n].workers[w].worker_id = w;
    }
  }

  // Line 4: shuffle the shard list for this epoch (seeded by epoch so every
  // participant derives the identical plan independently).
  std::vector<std::size_t> shard_order(shards_.size());
  std::iota(shard_order.begin(), shard_order.end(), 0);
  Rng rng(config_.seed ^ (0x9E3779B97F4A7C15ull * (epoch + 1)));
  if (config_.shuffle) rng.shuffle(shard_order);

  // Slice every shard into contiguous batch-sized ranges, then shuffle the
  // slice order ("randomly sampling within each shard" while each batch
  // remains one contiguous byte range).
  struct Slice {
    std::uint32_t shard_id;
    std::uint64_t first;
    std::uint32_t count;
  };
  std::vector<Slice> slices;
  for (std::size_t pos : shard_order) {
    const auto& shard = shards_[pos];
    for (std::uint64_t first = 0; first < shard.num_records; first += config_.batch_size) {
      auto count = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(config_.batch_size, shard.num_records - first));
      slices.push_back(Slice{shard.shard_id, first, count});
    }
  }
  if (config_.shuffle) rng.shuffle(slices);

  // Line 5: assign to nodes round-robin (or replicate for scenario 2), then
  // line 7: split each node's list across its T SendWorker threads.
  std::vector<std::uint64_t> next_batch_id(num_nodes, 0);
  auto assign = [&](std::size_t node, const Slice& s) {
    auto& np = plan.nodes[node];
    std::uint64_t id = next_batch_id[node]++;
    BatchAssignment a;
    a.batch_id = id;
    a.epoch = epoch;
    a.node_id = static_cast<std::uint32_t>(node);
    a.worker_id = static_cast<std::uint32_t>(id % config_.threads_per_node);
    a.shard_id = s.shard_id;
    a.first_record = s.first;
    a.count = s.count;
    np.workers[a.worker_id].batches.push_back(a);
  };

  for (std::size_t i = 0; i < slices.size(); ++i) {
    if (config_.full_dataset_per_node) {
      for (std::size_t n = 0; n < num_nodes; ++n) assign(n, slices[i]);
    } else {
      assign(i % num_nodes, slices[i]);
    }
  }
  return plan;
}

void Planner::validate(const EpochPlan& plan, const std::vector<ShardMeta>& shards,
                       const PlannerConfig& config) {
  std::map<std::uint32_t, std::uint64_t> shard_sizes;
  for (const auto& s : shards) shard_sizes[s.shard_id] = s.num_records;

  // coverage[shard][record] counts assignments (per node for replicated).
  std::map<std::uint32_t, std::vector<std::uint32_t>> coverage;
  for (const auto& [id, n] : shard_sizes) coverage[id].assign(n, 0);

  for (const auto& node : plan.nodes) {
    for (const auto& worker : node.workers) {
      for (const auto& b : worker.batches) {
        if (b.count == 0 || b.count > config.batch_size) {
          throw std::logic_error("planner: batch size out of range");
        }
        auto it = shard_sizes.find(b.shard_id);
        if (it == shard_sizes.end()) throw std::logic_error("planner: unknown shard in plan");
        if (b.first_record + b.count > it->second) {
          throw std::logic_error("planner: batch range exceeds shard");
        }
        auto& cov = coverage[b.shard_id];
        for (std::uint64_t r = b.first_record; r < b.first_record + b.count; ++r) ++cov[r];
      }
    }
  }

  std::uint32_t expected = config.full_dataset_per_node
                               ? static_cast<std::uint32_t>(plan.nodes.size())
                               : 1u;
  for (const auto& [id, cov] : coverage) {
    for (std::size_t r = 0; r < cov.size(); ++r) {
      if (cov[r] != expected) {
        throw std::logic_error("planner: record " + std::to_string(r) + " of shard " +
                               std::to_string(id) + " covered " + std::to_string(cov[r]) +
                               " times (expected " + std::to_string(expected) + ")");
      }
    }
  }
}

}  // namespace emlio::core
