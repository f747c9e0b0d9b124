// Tests for the EMLIO Planner (Algorithm 2): coverage, determinism,
// contiguity, worker splitting and scenario-2 replication semantics.
#include <gtest/gtest.h>

#include <set>

#include "core/planner.h"

namespace emlio::core {
namespace {

std::vector<ShardMeta> shards(std::initializer_list<std::uint64_t> sizes) {
  std::vector<ShardMeta> out;
  std::uint32_t id = 0;
  for (auto n : sizes) out.push_back(ShardMeta{id++, n});
  return out;
}

TEST(Planner, EveryRecordExactlyOnceSingleNode) {
  PlannerConfig cfg;
  cfg.batch_size = 8;
  Planner planner(shards({30, 17, 25}), cfg);
  auto plan = planner.plan_epoch(0, 1);
  Planner::validate(plan, shards({30, 17, 25}), cfg);
  EXPECT_EQ(plan.total_samples(), 72u);
}

TEST(Planner, EveryRecordExactlyOnceAcrossNodes) {
  PlannerConfig cfg;
  cfg.batch_size = 16;
  cfg.threads_per_node = 3;
  auto meta = shards({100, 101, 99, 55});
  Planner planner(meta, cfg);
  for (std::size_t nodes : {1u, 2u, 3u, 5u}) {
    auto plan = planner.plan_epoch(0, nodes);
    Planner::validate(plan, meta, cfg);
    EXPECT_EQ(plan.total_samples(), 355u) << nodes << " nodes";
    EXPECT_EQ(plan.nodes.size(), nodes);
  }
}

TEST(Planner, BatchesNeverExceedB) {
  PlannerConfig cfg;
  cfg.batch_size = 10;
  Planner planner(shards({25, 7}), cfg);
  auto plan = planner.plan_epoch(0, 2);
  for (const auto& node : plan.nodes) {
    for (const auto& w : node.workers) {
      for (const auto& b : w.batches) {
        EXPECT_LE(b.count, 10u);
        EXPECT_GT(b.count, 0u);
      }
    }
  }
}

TEST(Planner, DeterministicForSameSeedAndEpoch) {
  PlannerConfig cfg;
  cfg.batch_size = 8;
  cfg.seed = 42;
  Planner a(shards({50, 50}), cfg), b(shards({50, 50}), cfg);
  auto pa = a.plan_epoch(3, 2);
  auto pb = b.plan_epoch(3, 2);
  ASSERT_EQ(pa.nodes.size(), pb.nodes.size());
  for (std::size_t n = 0; n < pa.nodes.size(); ++n) {
    ASSERT_EQ(pa.nodes[n].workers.size(), pb.nodes[n].workers.size());
    for (std::size_t w = 0; w < pa.nodes[n].workers.size(); ++w) {
      EXPECT_EQ(pa.nodes[n].workers[w].batches, pb.nodes[n].workers[w].batches);
    }
  }
}

TEST(Planner, EpochsShuffleDifferently) {
  PlannerConfig cfg;
  cfg.batch_size = 8;
  Planner planner(shards({64, 64, 64, 64}), cfg);
  auto p0 = planner.plan_epoch(0, 1);
  auto p1 = planner.plan_epoch(1, 1);
  // Flatten the batch order per epoch and compare.
  auto flatten = [](const EpochPlan& p) {
    std::vector<std::pair<std::uint32_t, std::uint64_t>> order;
    for (const auto& w : p.nodes[0].workers) {
      for (const auto& b : w.batches) order.emplace_back(b.shard_id, b.first_record);
    }
    return order;
  };
  EXPECT_NE(flatten(p0), flatten(p1));
}

TEST(Planner, NoShuffleIsSequential) {
  PlannerConfig cfg;
  cfg.batch_size = 10;
  cfg.shuffle = false;
  Planner planner(shards({30}), cfg);
  auto plan = planner.plan_epoch(0, 1);
  const auto& batches = plan.nodes[0].workers[0].batches;
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].first_record, 0u);
  EXPECT_EQ(batches[1].first_record, 10u);
  EXPECT_EQ(batches[2].first_record, 20u);
}

TEST(Planner, WorkerSplitRoundRobin) {
  PlannerConfig cfg;
  cfg.batch_size = 10;
  cfg.threads_per_node = 4;
  cfg.shuffle = false;
  Planner planner(shards({120}), cfg);  // 12 batches
  auto plan = planner.plan_epoch(0, 1);
  ASSERT_EQ(plan.nodes[0].workers.size(), 4u);
  for (const auto& w : plan.nodes[0].workers) {
    EXPECT_EQ(w.batches.size(), 3u);  // 12 / 4
    for (const auto& b : w.batches) EXPECT_EQ(b.worker_id, w.worker_id);
  }
}

TEST(Planner, FullDatasetPerNodeReplicates) {
  PlannerConfig cfg;
  cfg.batch_size = 8;
  cfg.full_dataset_per_node = true;
  auto meta = shards({40, 40});
  Planner planner(meta, cfg);
  auto plan = planner.plan_epoch(0, 3);
  Planner::validate(plan, meta, cfg);
  for (const auto& node : plan.nodes) {
    EXPECT_EQ(node.total_samples(), 80u);  // each node sees everything
  }
  EXPECT_EQ(plan.total_samples(), 240u);
}

TEST(Planner, BatchIdsUniquePerNode) {
  PlannerConfig cfg;
  cfg.batch_size = 8;
  cfg.threads_per_node = 2;
  Planner planner(shards({100, 50}), cfg);
  auto plan = planner.plan_epoch(0, 2);
  for (const auto& node : plan.nodes) {
    std::set<std::uint64_t> ids;
    for (const auto& w : node.workers) {
      for (const auto& b : w.batches) {
        EXPECT_TRUE(ids.insert(b.batch_id).second) << "duplicate batch id";
        EXPECT_EQ(b.node_id, node.node_id);
      }
    }
  }
}

TEST(Planner, LabelMapFromShardIndexes) {
  tfrecord::ShardIndex idx;
  idx.shard_id = 0;
  idx.records.push_back({0, 116, 7, 100});
  idx.records.push_back({116, 116, -3, 101});
  PlannerConfig cfg;
  Planner planner(std::vector<tfrecord::ShardIndex>{idx}, cfg);
  EXPECT_EQ(planner.dataset_size(), 2u);
  EXPECT_EQ(planner.label_map().at(100), 7);
  EXPECT_EQ(planner.label_map().at(101), -3);
}

TEST(Planner, RejectsInvalidConfig) {
  PlannerConfig cfg;
  cfg.batch_size = 0;
  EXPECT_THROW(Planner(shards({10}), cfg), std::invalid_argument);
  PlannerConfig no_threads;
  no_threads.threads_per_node = 0;  // plan_epoch would divide by it
  EXPECT_THROW(Planner(shards({10}), no_threads), std::invalid_argument);
  EXPECT_THROW(Planner(std::vector<tfrecord::ShardIndex>{}, no_threads), std::invalid_argument);
  PlannerConfig ok;
  Planner planner(shards({10}), ok);
  EXPECT_THROW(planner.plan_epoch(0, 0), std::invalid_argument);
}

TEST(Planner, ValidateCatchesDoubleCoverage) {
  PlannerConfig cfg;
  cfg.batch_size = 8;
  auto meta = shards({16});
  Planner planner(meta, cfg);
  auto plan = planner.plan_epoch(0, 1);
  // Duplicate a batch → validation must fail.
  plan.nodes[0].workers[0].batches.push_back(plan.nodes[0].workers[0].batches[0]);
  EXPECT_THROW(Planner::validate(plan, meta, cfg), std::logic_error);
}

TEST(Planner, ValidateCatchesOutOfBounds) {
  PlannerConfig cfg;
  cfg.batch_size = 8;
  auto meta = shards({16});
  Planner planner(meta, cfg);
  auto plan = planner.plan_epoch(0, 1);
  plan.nodes[0].workers[0].batches[0].first_record = 12;  // 12+8 > 16
  EXPECT_THROW(Planner::validate(plan, meta, cfg), std::logic_error);
}

class PlannerSweep : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, int>> {};

TEST_P(PlannerSweep, CoverageHoldsAcrossConfigurations) {
  auto [batch, nodes, threads] = GetParam();
  PlannerConfig cfg;
  cfg.batch_size = batch;
  cfg.threads_per_node = static_cast<std::uint32_t>(threads);
  auto meta = shards({97, 41, 128, 3});
  Planner planner(meta, cfg);
  for (std::uint32_t epoch = 0; epoch < 3; ++epoch) {
    auto plan = planner.plan_epoch(epoch, nodes);
    Planner::validate(plan, meta, cfg);
    EXPECT_EQ(plan.total_samples(), 269u);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, PlannerSweep,
                         ::testing::Combine(::testing::Values<std::size_t>(1, 7, 32, 300),
                                            ::testing::Values<std::size_t>(1, 2, 4),
                                            ::testing::Values(1, 3)));

}  // namespace
}  // namespace emlio::core
