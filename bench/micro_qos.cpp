// Lane isolation microbench for the shared lane layer: each daemon sink
// lane's sender admits its own encode jobs, at most its admission window
// ahead of its pops, and that window alone must keep a destination fast
// while its sibling is deliberately stalled.
//
// Two phases:
//
//   1. Delivery contract (always runs): the same 2-node plan is served
//      uncapped and under a daemon-wide lane_rate that really paces (100
//      batches/s, a burst of 5, against 24 batches per lane per epoch).
//      Each node's delivered stream must be byte-identical and identically
//      ordered across both: a cap moves WHEN a lane is served, never WHAT it
//      carries. Exit 1 on any divergence, or if the capped run finished
//      faster than its cap allows.
//
//   2. Isolation (needs ≥4 cores): node A runs ISOLATED (baseline: the
//      encode pool works for it alone) and CONTENDED with a sibling B whose
//      consumer is deliberately parked until A finishes, over 7 alternating
//      rounds. B's stream is as long as A's, but its admission window
//      saturates within A's first pass over the dataset: B's receiver,
//      link and daemon lane then hold all they can, and the pool works for
//      A alone. So A's clock starts at the end of that first pass, and runs
//      over the rest of A's stream (11 more passes, ~0.3 s on a 4-vCPU
//      host). Node A's throughput over that stretch must be at a median
//      ≥80 % of its isolated throughput over the same stretch (per-round
//      ratios), and A's delivered stream must not change when B appears.
//      FAILS (exit 1) below the 80 % floor. An engine whose admission
//      ignores the window fails it: B keeps encoding into its stalled
//      lane, half the pool stays B's, and A ran at a median of 62–75 % of
//      isolated on a 4-vCPU host.
//
// Both phases compare a delivered stream by its digest (fold): every batch
// field, and each sample's index, label, size and CRC32-C of its bytes, in
// delivery order. Each node's consumer folds its own stream as it drains,
// in every run, so the timed arms pay the same per-byte cost.
//
// Below 4 cores phase 2 is meaningless (the pool, both senders and both
// consumers share a core or two), so the bench prints an explicit SKIP,
// records a skipped JSON row and exits 0 (bench::core_gate, the micro
// benches' one SKIP policy). EMLIO_MICRO_QOS_FORCE=1 runs it anyway
// (plumbing smoke on small hosts); the ratio assertion still only applies
// on ≥4 cores.
//
// Appends one JSON row per phase/engine (or the skip row) to
// emlio_bench_results.jsonl.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/crc32c.h"
#include "core/daemon.h"
#include "core/planner.h"
#include "core/receiver.h"
#include "msgpack/batch_codec.h"
#include "net/sim_channel.h"
#include "workload/materialize.h"

using namespace emlio;

namespace {

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

struct QosRun {
  double a_seconds = 0.0;  ///< node A's clock → its last data sample delivered
  core::DaemonStats stats;
  /// Each node's delivered stream: its batches (epoch markers included) and
  /// their digest, in delivery order.
  std::uint64_t batches[2] = {0, 0};
  std::uint64_t digest[2] = {kFnvBasis, kFnvBasis};
};

/// FNV-1a over a delivered batch: every WireBatch field, then each sample's
/// index, label, size and the CRC32-C of its bytes.
void fold(std::uint64_t& h, const msgpack::WireBatch& b) {
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  mix(b.epoch);
  mix(b.batch_id);
  mix(b.node_id);
  mix(b.shard_id);
  mix(b.last ? 1 : 0);
  mix(b.sent_count);
  mix(b.trace_origin_ns);
  for (const auto& s : b.samples) {
    mix(s.index);
    mix(static_cast<std::uint64_t>(s.label));
    mix(s.bytes.size());
    mix(crc32c::compute(s.bytes));
  }
}

/// Serve `plans` in order through the pipelined engine with CRC on (real
/// encode cost per record over a fast wire), every sink lane capped at
/// `lane_rate` batches/s (0 = none). Node A (id 0) always drains at full
/// speed; its clock starts at t0, or once it has received `clock_batch`
/// data batches, and stops at its last data sample. Node B (id 1) exists
/// when the plans have a second node; with `stall_b` its consumer is parked
/// until A finishes — receiver buffers, wire HWM and B's sink lane all fill
/// and B's admission window saturates, the deliberately stalled tenant —
/// then it drains fast so the run can finish.
QosRun run_qos(const std::vector<tfrecord::ShardIndex>& indexes,
               const std::vector<core::EpochPlan>& plans, std::uint64_t lane_rate, bool stall_b,
               std::uint64_t clock_batch) {
  net::SimLinkConfig link;
  link.rtt_ms = 0.0;
  link.bandwidth_bytes_per_sec = 5e9;  // fast wire: encode has little headroom over it
  const std::size_t nodes = plans.front().nodes.size();
  const bool with_b = nodes == 2;
  std::shared_ptr<net::MessageSink> sinks[2];
  std::unique_ptr<core::Receiver> recv[2];
  core::ReceiverConfig rc;
  rc.num_senders = 1;
  rc.queue_capacity = 16;
  for (std::size_t n = 0; n < nodes; ++n) {
    auto ch = net::make_sim_channel(link);
    sinks[n] = std::shared_ptr<net::MessageSink>(std::move(ch.sink));
    recv[n] = std::make_unique<core::Receiver>(rc, std::move(ch.source));
  }

  std::vector<tfrecord::ShardReader> readers;
  for (const auto& idx : indexes) readers.emplace_back(idx);
  core::DaemonConfig dc;
  dc.daemon_id = with_b ? "contended" : "isolated";
  dc.verify_crc = true;  // real encode-side CPU cost per record
  dc.pool_threads = 4;
  dc.prefetch_depth = 8;
  dc.lane_rate = lane_rate;
  std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> dsinks{{0u, sinks[0]}};
  if (with_b) dsinks[1] = sinks[1];
  core::Daemon daemon(dc, std::move(readers), dsinks);

  QosRun r;
  std::uint64_t a_expected = 0;
  for (const auto& plan : plans) a_expected += plan.nodes.front().total_samples();
  std::atomic<bool> a_done{false};
  auto t0 = std::chrono::steady_clock::now();
  std::thread serve([&] {
    for (const auto& plan : plans) {
      if (!daemon.serve_epoch(plan)) break;
    }
    for (std::size_t n = 0; n < nodes; ++n) sinks[n]->close();
  });
  std::thread a_drain([&] {
    std::uint64_t got = 0, batches = 0;
    auto start = t0;
    while (auto b = recv[0]->next()) {
      if (!b->last) {
        got += b->samples.size();
        if (++batches == clock_batch) start = std::chrono::steady_clock::now();
      }
      if (got >= a_expected && !a_done.load(std::memory_order_relaxed)) {
        r.a_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        a_done.store(true, std::memory_order_relaxed);
      }
      fold(r.digest[0], *b);
      ++r.batches[0];
    }
  });
  std::thread b_drain([&] {
    if (!with_b) return;
    if (stall_b) {
      // Full park: consume nothing until A finishes. B's receiver queue,
      // the wire HWM and B's sink lane all fill; its admission window
      // saturates and the encode pool works for A alone.
      while (!a_done.load(std::memory_order_relaxed))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    while (auto b = recv[1]->next()) {
      fold(r.digest[1], *b);
      ++r.batches[1];
    }
  });
  serve.join();
  a_drain.join();
  b_drain.join();
  r.stats = daemon.stats();
  return r;
}

/// Epoch 0 of `planner` over `nodes` nodes, with each node's batches
/// repeated `passes` times over: the same records under fresh batch ids,
/// so a stream runs long enough to time while the dataset stays small.
core::EpochPlan repeated_plan(const core::Planner& planner, std::size_t nodes,
                              std::uint32_t passes) {
  core::EpochPlan plan = planner.plan_epoch(0, nodes);
  for (auto& node : plan.nodes) {
    for (auto& worker : node.workers) {
      const std::vector<core::BatchAssignment> pass = worker.batches;
      std::uint64_t stride = 0;
      for (const auto& b : pass) stride = std::max(stride, b.batch_id + 1);
      for (std::uint32_t p = 1; p < passes; ++p) {
        for (auto b : pass) {
          b.batch_id += p * stride;
          worker.batches.push_back(b);
        }
      }
    }
  }
  return plan;
}

// ------------------------------------------------- phase 1: delivery contract

bool run_contract_phase() {
  namespace fs = std::filesystem;
  auto dir = fs::temp_directory_path() / "emlio_micro_qos_contract";
  fs::remove_all(dir);
  auto spec = workload::presets::tiny(192, 8 * 1024);
  workload::materialize_tfrecord(spec, dir.string(), /*num_shards=*/3);
  auto indexes = tfrecord::load_all_indexes(dir.string());
  core::PlannerConfig pc;
  pc.batch_size = 8;
  pc.epochs = 2;
  pc.threads_per_node = 1;
  pc.full_dataset_per_node = true;
  core::Planner planner(indexes, pc);

  // 100 batches/s with a burst of 5 (RatePacer: rate/20) against 24
  // batches per lane per epoch: all but the burst wait for a token.
  constexpr std::uint64_t kRate = 100;
  const std::uint64_t lane_batches = (spec.num_samples + pc.batch_size - 1) / pc.batch_size;
  const double min_paced_s = pc.epochs * (lane_batches - kRate / 20.0) / kRate;
  const std::vector<core::EpochPlan> plans{planner.plan_epoch(0, 2), planner.plan_epoch(1, 2)};
  auto run = [&](std::uint64_t lane_rate) {
    return run_qos(indexes, plans, lane_rate, /*stall_b=*/false, /*clock_batch=*/0);
  };
  auto uncapped = run(0);
  auto capped = run(kRate);
  fs::remove_all(dir);
  for (int n = 0; n < 2; ++n) {
    if (uncapped.batches[n] != capped.batches[n] || uncapped.digest[n] != capped.digest[n]) {
      std::fprintf(stderr,
                   "micro_qos: DELIVERY CONTRACT VIOLATED — node %d stream differs between the "
                   "uncapped and the capped run (%llu vs %llu batches)\n",
                   n, static_cast<unsigned long long>(uncapped.batches[n]),
                   static_cast<unsigned long long>(capped.batches[n]));
      return false;
    }
  }
  if (capped.a_seconds < 0.8 * min_paced_s) {
    std::fprintf(stderr,
                 "micro_qos: FAIL — the %llu batches/s run took %.3f s, under the %.3f s its "
                 "cap allows: it did not pace\n",
                 static_cast<unsigned long long>(kRate), capped.a_seconds, min_paced_s);
    return false;
  }
  std::printf("micro_qos: contract — per-lane streams byte-identical and ordered uncapped "
              "(%.3f s) and at lane_rate %llu (%.3f s, paced minimum %.3f s) (%llu + %llu "
              "batches incl. epoch markers)\n",
              uncapped.a_seconds, static_cast<unsigned long long>(kRate), capped.a_seconds,
              min_paced_s, static_cast<unsigned long long>(uncapped.batches[0]),
              static_cast<unsigned long long>(uncapped.batches[1]));
  return true;
}

// --------------------------------------------------------------- JSONL rows

/// One engine's row: its time to node A's last sample over the rounds, the
/// median throughput ratio, and the last round's stats.
json::Value qos_row(const char* engine, const QosRun& last, const bench::Spread& seconds,
                    double ratio) {
  json::Object row;
  row["bench"] = "micro_qos";
  row["phase"] = std::string("isolation");
  row["engine"] = std::string(engine);
  row["cores"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  row["a_seconds"] = bench::to_json(seconds);
  row["throughput_vs_isolated"] = ratio;
  row["stats"] = core::to_json(last.stats);
  return json::Value(std::move(row));
}

}  // namespace

int main() {
  namespace fs = std::filesystem;

  // Phase 1 needs no parallelism to be meaningful — it always runs.
  if (!run_contract_phase()) return 1;

  const auto gate = bench::core_gate(
      "micro_qos", 4, "EMLIO_MICRO_QOS_FORCE",
      "core sharing (the encode pool, both senders and both consumers share cores)");
  if (gate.skip) return 0;
  const unsigned cores = gate.cores;
  const bool assert_ratio = gate.assert_timing;

  // ------------------------------------------------------ phase 2: isolation
  // CRC-on encode of 64 KB samples over a fast wire: the encode pool has
  // little headroom over the wire, so admission share decides each node's
  // throughput (a B that kept half the pool would cost A a third or more).
  // One epoch only: serve_epoch is a barrier, so with multiple epochs the
  // fast node would idle at every boundary waiting for the stalled node's
  // tail — serialization the isolation claim is not about.
  auto dir = fs::temp_directory_path() / "emlio_micro_qos";
  fs::remove_all(dir);
  auto spec = workload::presets::tiny(2048, 64 * 1024);
  workload::materialize_tfrecord(spec, dir.string(), /*num_shards=*/4);
  auto indexes = tfrecord::load_all_indexes(dir.string());
  core::PlannerConfig pc;
  pc.batch_size = 16;
  pc.epochs = 1;
  pc.threads_per_node = 1;
  pc.full_dataset_per_node = true;  // node A's stream is identical in both runs
  core::Planner planner(indexes, pc);
  // Warm the page cache so both runs read from memory.
  for (const auto& idx : indexes) tfrecord::ShardReader(idx).verify_all();
  // Each stream is 12 passes over the dataset; node A's clock starts after
  // the first, once a stalled B has saturated its window.
  constexpr std::uint32_t kPasses = 12;
  const std::uint64_t pass_batches = (spec.num_samples + pc.batch_size - 1) / pc.batch_size;
  const std::vector<core::EpochPlan> isolated_plan{repeated_plan(planner, 1, kPasses)};
  const std::vector<core::EpochPlan> contended_plan{repeated_plan(planner, 2, kPasses)};

  std::printf("micro_qos: isolation phase — %zu shards, %llu samples x %u passes, B=%zu, "
              "A timed from batch %llu, CRC on, pool=4, %u cores\n",
              indexes.size(), static_cast<unsigned long long>(planner.dataset_size()), kPasses,
              pc.batch_size, static_cast<unsigned long long>(pass_batches), cores);

  // Alternating rounds (bench::run_pair), gated on the median per-round
  // ratio: single rounds still swing on a host whose speed drifts.
  constexpr int kRounds = 7;
  std::vector<double> isolated_s, contended_s, ratios;
  QosRun isolated, contended;
  for (int round = 0; round < kRounds; ++round) {
    auto run_isolated = [&] {
      isolated = run_qos(indexes, isolated_plan, /*lane_rate=*/0, /*stall_b=*/false,
                         pass_batches);
    };
    auto run_contended = [&] {
      contended = run_qos(indexes, contended_plan, /*lane_rate=*/0, /*stall_b=*/true,
                          pass_batches);
    };
    bench::run_pair(round, run_isolated, run_contended);
    // Contract inside the measured phase too: A's stream must not change
    // when a stalled sibling appears.
    if (isolated.batches[0] != contended.batches[0] ||
        isolated.digest[0] != contended.digest[0]) {
      std::fprintf(stderr, "micro_qos: FAIL — node A's stream changed between isolated and "
                           "contended runs\n");
      fs::remove_all(dir);
      return 1;
    }
    isolated_s.push_back(isolated.a_seconds);
    contended_s.push_back(contended.a_seconds);
    ratios.push_back(contended.a_seconds > 0.0 ? isolated.a_seconds / contended.a_seconds : 0.0);
  }
  fs::remove_all(dir);

  const auto iso = bench::spread(isolated_s);
  const auto con = bench::spread(contended_s);
  const auto ratio = bench::spread(ratios);
  std::printf("  isolated  : median %.3f s (min %.3f, max %.3f) from node A's clock batch to "
              "its last sample\n",
              iso.median, iso.min, iso.max);
  std::printf("  contended : median %.3f s (min %.3f, max %.3f) with a stalled sibling\n",
              con.median, con.min, con.max);
  std::printf("  throughput vs isolated over %d alternating rounds: median %.0f%% (min %.0f%%, "
              "max %.0f%%)\n",
              kRounds, ratio.median * 100.0, ratio.min * 100.0, ratio.max * 100.0);
  for (const auto& lane : contended.stats.lanes) {
    std::printf("    lane %s: %llu delivered, %llu enqueue stalls (last round)\n",
                lane.name.c_str(), static_cast<unsigned long long>(lane.delivered_items),
                static_cast<unsigned long long>(lane.enqueue_stalls));
  }
  bench::append_json_line(qos_row("isolated", isolated, iso, 1.0));
  bench::append_json_line(qos_row("contended", contended, con, ratio.median));
  if (assert_ratio && ratio.median < 0.8) {
    std::fprintf(stderr,
                 "micro_qos: FAIL — a stalled sibling lane dragged node A to a median %.0f%% of "
                 "isolated throughput (< 80%%) on a %u-core host\n",
                 ratio.median * 100.0, cores);
    return 1;
  }
  return 0;
}
