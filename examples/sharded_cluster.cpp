// Scenario 2 at miniature scale: a fully sharded "cluster" in one process.
//
// Two storage daemons each own half the TFRecord shards; two compute-node
// receivers each consume the full dataset (the paper's §5.2 semantics:
// "each node stores one shard locally but still processes the full
// dataset"). Every daemon pushes to every receiver over its own channel;
// each receiver aggregates the two senders' sentinels into one epoch marker.
//
// Demonstrates composing Planner / Daemon / Receiver directly (what
// EmlioService hides for the single-node case).
#include <cstdio>
#include <filesystem>
#include <thread>

#include "core/daemon.h"
#include "core/planner.h"
#include "core/receiver.h"
#include "net/sim_channel.h"
#include "train/trainer.h"
#include "workload/materialize.h"

using namespace emlio;

int main() {
  namespace fs = std::filesystem;
  auto dir = fs::temp_directory_path() / "emlio_sharded_example";
  fs::remove_all(dir);

  auto spec = workload::presets::tiny(128, 8 * 1024);
  workload::materialize_tfrecord(spec, dir.string(), /*num_shards=*/4);
  auto indexes = tfrecord::load_all_indexes(dir.string());

  // Planner: every compute node processes the full dataset (scenario 2).
  core::PlannerConfig pc;
  pc.batch_size = 16;
  pc.epochs = 1;
  pc.threads_per_node = 2;
  pc.full_dataset_per_node = true;
  core::Planner planner(indexes, pc);
  auto plan = planner.plan_epoch(0, /*num_nodes=*/2);
  std::printf("plan: %zu batches total (%llu samples per node)\n", plan.total_batches(),
              static_cast<unsigned long long>(plan.nodes[0].total_samples()));

  // Channels: daemon d -> node n, with a 1 ms emulated RTT.
  net::SimLinkConfig link;
  link.rtt_ms = 1.0;
  std::shared_ptr<net::MessageSink> sinks[2][2];
  std::unique_ptr<net::MessageSource> sources[2][2];
  for (int d = 0; d < 2; ++d) {
    for (int n = 0; n < 2; ++n) {
      auto ch = net::make_sim_channel(link);
      sinks[d][n] = std::shared_ptr<net::MessageSink>(std::move(ch.sink));
      sources[d][n] = std::move(ch.source);
    }
  }

  // Receivers: native multi-source fan-in — one ingest thread per daemon
  // channel, each decoding and delivering its own channel's batches (no
  // hand-built mux adapter needed).
  core::ReceiverConfig rc;
  rc.num_senders = 2;
  auto fan_in = [&](int node) {
    std::vector<std::unique_ptr<net::MessageSource>> ins;
    ins.push_back(std::move(sources[0][node]));
    ins.push_back(std::move(sources[1][node]));
    return ins;
  };
  core::Receiver recv0(rc, fan_in(0));
  core::Receiver recv1(rc, fan_in(1));

  // Daemons: daemon 0 owns shards {0,1}, daemon 1 owns shards {2,3}.
  auto make_daemon = [&](int id, std::initializer_list<std::size_t> shard_positions) {
    std::vector<tfrecord::ShardReader> readers;
    for (auto pos : shard_positions) readers.emplace_back(indexes[pos]);
    std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> daemon_sinks{
        {0u, sinks[id][0]}, {1u, sinks[id][1]}};
    core::DaemonConfig cfg;
    cfg.daemon_id = "daemon" + std::to_string(id);
    return std::make_unique<core::Daemon>(cfg, std::move(readers), daemon_sinks);
  };
  auto d0 = make_daemon(0, {0, 1});
  auto d1 = make_daemon(1, {2, 3});

  std::thread t0([&] {
    if (!d0->serve_epoch(plan)) {
      std::fprintf(stderr, "daemon0 FAILED: %s\n", d0->last_error().c_str());
    }
    sinks[0][0]->close();
    sinks[0][1]->close();
  });
  std::thread t1([&] {
    if (!d1->serve_epoch(plan)) {
      std::fprintf(stderr, "daemon1 FAILED: %s\n", d1->last_error().c_str());
    }
    sinks[1][0]->close();
    sinks[1][1]->close();
  });

  // Each "compute node" trains the full dataset.
  auto consume = [&](core::Receiver& receiver, int node) {
    train::TrainerOptions topt;
    topt.expected_samples_per_epoch = spec.num_samples;
    train::Trainer trainer(topt);
    trainer.start_epoch(0);
    while (auto batch = receiver.next()) {
      if (batch->last) break;
      trainer.train_step(*batch);
    }
    auto result = trainer.end_epoch();
    std::printf("node %d: %llu samples, clean=%s\n", node,
                static_cast<unsigned long long>(result.samples),
                result.clean(spec.num_samples) ? "yes" : "NO");
  };
  std::thread c0([&] { consume(recv0, 0); });
  std::thread c1([&] { consume(recv1, 1); });

  t0.join();
  t1.join();
  c0.join();
  c1.join();
  std::printf("daemon0 sent %llu batches, daemon1 sent %llu batches\n",
              static_cast<unsigned long long>(d0->stats().batches_sent),
              static_cast<unsigned long long>(d1->stats().batches_sent));
  fs::remove_all(dir);
  return 0;
}
