// Pool-width sweep for the daemon's storage-side engine (shared read+encode
// pool → per-sink reorder buffers, bounded by the admission window → one
// dedicated sender per sink):
// the same epoch served at encode-pool widths 1, 2 and 4.
//
// Topology: 6 shards, 2 compute nodes (2 sinks per daemon), full dataset per
// node (scenario C2 — every batch is built and shipped twice), CRC
// verification ON so the read side carries real CPU cost, and a
// bandwidth/latency-shaped link so the wire is genuinely busy. One epoch is
// timed end-to-end: daemon serve_epoch + both receivers fully drained.
//
// The widths run in alternating rounds (1, 2, 4, 1, 2, 4, ...) so slow drift
// on the host spreads evenly over them; each width reports the median, min
// and max epoch time over the rounds. Appends one JSON row per width to
// emlio_bench_results.jsonl. No throughput gate: at this link speed the
// epoch is mostly wire-bound, so the sweep shows where width stops helping.
// Exit 1 only on a wrong sample count.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <thread>

#include "bench_common.h"
#include "core/daemon.h"
#include "core/planner.h"
#include "core/receiver.h"
#include "net/sim_channel.h"
#include "workload/materialize.h"

using namespace emlio;

namespace {

constexpr std::size_t kWidths[] = {1, 2, 4};
constexpr int kRounds = 5;

struct RunResult {
  double seconds = 0.0;
  core::DaemonStats stats;
};

RunResult run_epoch(const std::vector<tfrecord::ShardIndex>& indexes,
                    const core::Planner& planner, const workload::DatasetSpec& spec,
                    std::size_t pool_threads) {
  // Fresh channels per run: daemon → node n, n ∈ {0, 1}.
  net::SimLinkConfig link;
  link.rtt_ms = 2.0;
  link.bandwidth_bytes_per_sec = 400e6;  // per-sink wire: fast but finite
  std::shared_ptr<net::MessageSink> sinks[2];
  std::unique_ptr<net::MessageSource> sources[2];
  for (int n = 0; n < 2; ++n) {
    auto ch = net::make_sim_channel(link);
    sinks[n] = std::shared_ptr<net::MessageSink>(std::move(ch.sink));
    sources[n] = std::move(ch.source);
  }

  core::ReceiverConfig rc;
  rc.num_senders = 1;
  rc.queue_capacity = 16;
  core::Receiver recv0(rc, std::move(sources[0]));
  core::Receiver recv1(rc, std::move(sources[1]));

  std::vector<tfrecord::ShardReader> readers;
  for (const auto& idx : indexes) readers.emplace_back(idx);
  core::DaemonConfig dc;
  dc.daemon_id = "pool" + std::to_string(pool_threads);
  dc.verify_crc = true;  // real read-side CPU cost per record
  dc.pool_threads = pool_threads;
  dc.prefetch_depth = 16;
  std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> dsinks{{0u, sinks[0]},
                                                                    {1u, sinks[1]}};
  core::Daemon daemon(dc, std::move(readers), dsinks);

  auto plan = planner.plan_epoch(0, /*num_nodes=*/2);
  auto t0 = std::chrono::steady_clock::now();
  std::thread serve([&] {
    daemon.serve_epoch(plan);
    sinks[0]->close();
    sinks[1]->close();
  });
  auto drain = [&](core::Receiver& r) {
    std::uint64_t samples = 0;
    while (auto b = r.next()) {
      if (b->last) break;
      samples += b->samples.size();
    }
    return samples;
  };
  std::atomic<std::uint64_t> got0{0}, got1{0};
  std::thread c0([&] { got0 = drain(recv0); });
  std::thread c1([&] { got1 = drain(recv1); });
  serve.join();
  c0.join();
  c1.join();
  auto t1 = std::chrono::steady_clock::now();

  if (got0.load() != spec.num_samples || got1.load() != spec.num_samples) {
    std::fprintf(stderr, "micro_daemon_pipeline: WRONG SAMPLE COUNT (%llu / %llu, want %llu)\n",
                 static_cast<unsigned long long>(got0.load()),
                 static_cast<unsigned long long>(got1.load()),
                 static_cast<unsigned long long>(spec.num_samples));
    std::exit(1);
  }
  RunResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.stats = daemon.stats();
  return r;
}

}  // namespace

int main() {
  namespace fs = std::filesystem;
  auto dir = fs::temp_directory_path() / "emlio_micro_daemon_pipeline";
  fs::remove_all(dir);

  // ≥4 shards, ≥2 sinks: 6 shards, ~96 MB, served twice (once per node).
  auto spec = workload::presets::tiny(1536, 64 * 1024);
  workload::materialize_tfrecord(spec, dir.string(), /*num_shards=*/6);
  auto indexes = tfrecord::load_all_indexes(dir.string());

  core::PlannerConfig pc;
  pc.batch_size = 32;
  pc.epochs = 1;
  pc.full_dataset_per_node = true;
  core::Planner planner(indexes, pc);

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("micro_daemon_pipeline: %zu shards, %llu samples x 2 nodes, B=%zu, CRC on, "
              "%u cores, widths 1/2/4 x %d alternating rounds\n",
              indexes.size(), static_cast<unsigned long long>(planner.dataset_size()),
              pc.batch_size, cores, kRounds);

  // Warm the page cache so every width reads from memory (this measures the
  // engine, not cold-file I/O luck).
  for (const auto& idx : indexes) tfrecord::ShardReader(idx).verify_all();

  constexpr std::size_t kN = std::size(kWidths);
  std::vector<double> seconds[kN];
  RunResult last[kN];
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t w = 0; w < kN; ++w) {
      last[w] = run_epoch(indexes, planner, spec, kWidths[w]);
      seconds[w].push_back(last[w].seconds);
    }
  }

  const double base = bench::spread(seconds[0]).median;
  for (std::size_t w = 0; w < kN; ++w) {
    const auto s = bench::spread(seconds[w]);
    const double speedup = base / s.median;
    std::printf("  pool=%zu : median %.3f s (min %.3f, max %.3f)  %.2fx width 1; "
                "%llu enqueue / %llu sender stalls, peak depth %llu (last round)\n",
                kWidths[w], s.median, s.min, s.max, speedup,
                static_cast<unsigned long long>(last[w].stats.enqueue_stalls),
                static_cast<unsigned long long>(last[w].stats.sender_stalls),
                static_cast<unsigned long long>(last[w].stats.queue_peak_depth));
    json::Object row;
    row["bench"] = "micro_daemon_pipeline";
    row["pool_threads"] = static_cast<std::int64_t>(kWidths[w]);
    row["cores"] = static_cast<std::int64_t>(cores);
    row["rounds"] = static_cast<std::int64_t>(kRounds);
    row["epoch_seconds"] = bench::to_json(s);
    row["speedup_vs_width1"] = speedup;
    row["stats"] = core::to_json(last[w].stats);
    bench::append_json_line(json::Value(std::move(row)));
  }

  fs::remove_all(dir);
  return 0;
}
