// A/B microbench for the shared adaptive pool governor: each staged engine,
// starting from a deliberately undersized pool (1 thread), must be grown by
// the stall-ratio governor until it keeps up with a statically well-tuned
// configuration — without changing a single delivered byte.
//
// Three phases:
//
//   1. Delivery contract (always runs): governed-vs-static A/Bs of BOTH
//      engines on deterministic traffic. The daemon pair streams the same
//      plan through a static pool=4 and a governed pool starting at 1; the
//      receiver pair replays one fixed payload script through a static
//      decode=4 and a governed decode starting at 1. Delivered streams must
//      be byte-identical and identically ordered at every width the governor
//      passes through. Exit 1 on any divergence.
//
//   2. Daemon convergence (needs ≥4 cores): CRC-on encode traffic over a
//      fast wire makes the encode pool the bottleneck; sender stalls must
//      drive the governed pool up from 1 thread until the epoch rate reaches
//      ≥80 % of the static pool=4 engine, with ≥1 resize observed in stats.
//
//   3. Receiver convergence (needs ≥4 cores): 4-daemon decode-heavy fan-in;
//      decode stalls must grow the governed decode pool from 1 thread to
//      ≥80 % of the static decode=4 throughput, ≥1 resize observed.
//
// Phases 2 and 3 each time both engines over 7 alternating rounds
// (bench::run_pair) and gate on the median per-round throughput ratio.
//
// Below 4 cores phases 2–3 are meaningless (every pool shares one or two
// cores with the senders), so the bench prints an explicit SKIP, records a
// skipped JSON row and exits 0 (bench::core_gate, the micro benches' one
// SKIP policy).
// EMLIO_MICRO_GOVERNOR_FORCE=1 runs them anyway (plumbing smoke on small
// hosts); the ratio assertions still only apply on ≥4 cores.
//
// Appends one JSON row per engine per phase (or the skip row) to
// emlio_bench_results.jsonl.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <random>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/daemon.h"
#include "core/planner.h"
#include "core/receiver.h"
#include "msgpack/batch_codec.h"
#include "net/sim_channel.h"
#include "workload/materialize.h"

using namespace emlio;

namespace {

// ----------------------------------------------------------- shared helpers

/// Alternating rounds per A/B phase (bench::run_pair); the gates take the
/// median per-round ratio.
constexpr int kRounds = 7;

msgpack::WireBatch make_data_batch(std::uint32_t epoch, std::uint64_t batch_id,
                                   std::size_t samples, std::size_t sample_bytes,
                                   std::uint64_t salt) {
  msgpack::WireBatch b;
  b.epoch = epoch;
  b.batch_id = batch_id;
  for (std::size_t s = 0; s < samples; ++s) {
    msgpack::WireSample w;
    w.index = batch_id * samples + s;
    w.label = static_cast<std::int64_t>(s % 17);
    std::vector<std::uint8_t> bytes(sample_bytes);
    for (std::size_t i = 0; i < sample_bytes; ++i) {
      bytes[i] = static_cast<std::uint8_t>((salt * 131 + w.index * 31 + i) & 0xFF);
    }
    w.bytes = PayloadView(std::move(bytes));
    b.samples.push_back(std::move(w));
  }
  return b;
}

/// Single source replaying a fixed payload sequence — deterministic arrival
/// order, so static and governed delivery can be compared batch for batch.
struct ReplaySource final : net::MessageSource {
  explicit ReplaySource(std::vector<Payload> payloads) : script(std::move(payloads)) {}
  std::optional<Payload> recv() override {
    std::size_t i = pos.fetch_add(1, std::memory_order_relaxed);
    if (i >= script.size()) return std::nullopt;
    return script[i];  // refcount bump, not a byte copy
  }
  void close() override { pos.store(script.size(), std::memory_order_relaxed); }
  std::vector<Payload> script;
  std::atomic<std::size_t> pos{0};
};

std::vector<msgpack::WireBatch> drain(core::Receiver& receiver) {
  std::vector<msgpack::WireBatch> out;
  while (auto b = receiver.next()) out.push_back(std::move(*b));
  return out;
}

// ------------------------------------------------------- daemon-side runner

struct DaemonRun {
  double seconds = 0.0;
  core::DaemonStats stats;
  std::vector<msgpack::WireBatch> streams[2];  ///< full delivery per node
};

/// Serve `epochs` epochs of a 2-node full-dataset plan through the pipelined
/// engine; static_width > 0 pins the pool, adaptive=true starts it at 1 and
/// hands sizing to the governor.
DaemonRun run_daemon(const std::vector<tfrecord::ShardIndex>& indexes,
                     const core::Planner& planner, std::uint32_t epochs, bool adaptive,
                     std::size_t pool_threads, std::size_t adaptive_max,
                     std::uint64_t interval_ms) {
  net::SimLinkConfig link;
  link.rtt_ms = 0.0;
  link.bandwidth_bytes_per_sec = 5e9;  // fast wire: encode is the narrow stage
  std::shared_ptr<net::MessageSink> sinks[2];
  std::unique_ptr<net::MessageSource> sources[2];
  for (int n = 0; n < 2; ++n) {
    auto ch = net::make_sim_channel(link);
    sinks[n] = std::shared_ptr<net::MessageSink>(std::move(ch.sink));
    sources[n] = std::move(ch.source);
  }

  core::ReceiverConfig rc;
  rc.num_senders = 1;
  rc.queue_capacity = 32;
  core::Receiver recv0(rc, std::move(sources[0]));
  core::Receiver recv1(rc, std::move(sources[1]));

  std::vector<tfrecord::ShardReader> readers;
  for (const auto& idx : indexes) readers.emplace_back(idx);
  core::DaemonConfig dc;
  dc.daemon_id = adaptive ? "governed" : "static";
  dc.verify_crc = true;  // real read-side CPU cost per record
  dc.pool_threads = pool_threads;
  dc.prefetch_depth = 16;
  dc.adaptive_pool = adaptive;
  dc.adaptive_min_threads = 1;
  dc.adaptive_max_threads = adaptive_max;
  dc.adaptive_interval_ms = interval_ms;
  std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> dsinks{{0u, sinks[0]},
                                                                    {1u, sinks[1]}};
  core::Daemon daemon(dc, std::move(readers), dsinks);

  DaemonRun r;
  auto t0 = std::chrono::steady_clock::now();
  std::thread serve([&] {
    for (std::uint32_t e = 0; e < epochs; ++e) {
      if (!daemon.serve_epoch(planner.plan_epoch(e, /*num_nodes=*/2))) break;
    }
    sinks[0]->close();
    sinks[1]->close();
  });
  std::thread c0([&] { r.streams[0] = drain(recv0); });
  std::thread c1([&] { r.streams[1] = drain(recv1); });
  serve.join();
  c0.join();
  c1.join();
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  r.stats = daemon.stats();
  return r;
}

// ----------------------------------------------------- receiver-side runner

struct ReceiverRun {
  double seconds = 0.0;
  std::uint64_t batches = 0;
  core::ReceiverStats stats;
};

ReceiverRun run_fan_in(const std::vector<std::vector<Payload>>& per_daemon_payloads,
                       bool adaptive, std::size_t decode_threads, std::size_t adaptive_max,
                       std::uint64_t interval_ms) {
  const std::size_t daemons = per_daemon_payloads.size();
  net::SimLinkConfig link;
  link.rtt_ms = 0.0;
  link.bandwidth_bytes_per_sec = 5e9;  // fast wire: decode is the narrow stage

  std::vector<std::shared_ptr<net::MessageSink>> sinks;
  std::vector<std::unique_ptr<net::MessageSource>> sources;
  for (std::size_t d = 0; d < daemons; ++d) {
    auto ch = net::make_sim_channel(link);
    sinks.push_back(std::shared_ptr<net::MessageSink>(std::move(ch.sink)));
    sources.push_back(std::move(ch.source));
  }

  core::ReceiverConfig rc;
  rc.num_senders = daemons;
  rc.queue_capacity = 64;
  rc.decode_threads = decode_threads;
  rc.adaptive_pool = adaptive;
  rc.adaptive_min_threads = 1;
  rc.adaptive_max_threads = adaptive_max;
  rc.adaptive_interval_ms = interval_ms;

  auto t0 = std::chrono::steady_clock::now();
  core::Receiver receiver(rc, std::move(sources));

  std::vector<std::thread> senders;
  for (std::size_t d = 0; d < daemons; ++d) {
    senders.emplace_back([&, d] {
      for (const auto& p : per_daemon_payloads[d]) {
        if (!sinks[d]->send(Payload(p))) return;  // handle copy: refcount bump
      }
      sinks[d]->close();
    });
  }

  ReceiverRun r;
  while (auto b = receiver.next()) {
    if (b->last) break;  // one aggregated marker ends the epoch
    ++r.batches;
  }
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  for (auto& t : senders) t.join();
  receiver.close();
  r.stats = receiver.stats();
  return r;
}

// ------------------------------------------------- phase 1: delivery contract

bool run_contract_phase() {
  namespace fs = std::filesystem;
  // Daemon pair: a small C2 plan (every node gets the full dataset) served
  // by a static pool=4 and by a governed pool ramping from 1 thread. A fast
  // governor interval makes sure resizes actually happen mid-stream.
  auto dir = fs::temp_directory_path() / "emlio_micro_governor_contract";
  fs::remove_all(dir);
  auto spec = workload::presets::tiny(192, 8 * 1024);
  workload::materialize_tfrecord(spec, dir.string(), /*num_shards=*/3);
  auto indexes = tfrecord::load_all_indexes(dir.string());
  core::PlannerConfig pc;
  pc.batch_size = 8;
  pc.epochs = 3;
  pc.threads_per_node = 1;
  pc.full_dataset_per_node = true;
  core::Planner planner(indexes, pc);

  auto stat = run_daemon(indexes, planner, pc.epochs, /*adaptive=*/false,
                         /*pool_threads=*/4, /*adaptive_max=*/0, /*interval_ms=*/2);
  auto gov = run_daemon(indexes, planner, pc.epochs, /*adaptive=*/true,
                        /*pool_threads=*/1, /*adaptive_max=*/4, /*interval_ms=*/2);
  fs::remove_all(dir);
  for (int n = 0; n < 2; ++n) {
    if (stat.streams[n] != gov.streams[n]) {
      std::fprintf(stderr,
                   "micro_governor: DAEMON DELIVERY CONTRACT VIOLATED — node %d: static "
                   "delivered %zu batches, governed %zu, streams differ\n",
                   n, stat.streams[n].size(), gov.streams[n].size());
      return false;
    }
  }
  std::printf("micro_governor: contract — static and governed daemon delivered byte-identical "
              "streams (%zu + %zu batches incl. epoch markers; governed resizes: %llu)\n",
              gov.streams[0].size(), gov.streams[1].size(),
              static_cast<unsigned long long>(gov.stats.pool_resizes));

  // Receiver pair: one fixed multi-sender script (sentinel overtakes, epoch
  // reordering) replayed through static decode=4 and governed decode=1.
  constexpr std::size_t kSenders = 2, kEpochs = 3, kBatchesPerEpoch = 8;
  std::vector<std::vector<msgpack::WireBatch>> per_sender(kSenders);
  std::uint64_t next_id = 0;
  for (std::uint32_t e = 0; e < kEpochs; ++e) {
    for (std::size_t s = 0; s < kSenders; ++s) {
      for (std::size_t i = 0; i < kBatchesPerEpoch; ++i) {
        per_sender[s].push_back(make_data_batch(e, next_id++, /*samples=*/64,
                                                /*sample_bytes=*/64, /*salt=*/s));
      }
      per_sender[s].push_back(msgpack::BatchCodec::make_sentinel(0, e, kBatchesPerEpoch));
    }
  }
  std::mt19937 rng(20260728);
  std::vector<std::size_t> cursor(kSenders, 0);
  std::vector<Payload> script;
  for (;;) {
    std::vector<std::size_t> open;
    for (std::size_t s = 0; s < kSenders; ++s) {
      if (cursor[s] < per_sender[s].size()) open.push_back(s);
    }
    if (open.empty()) break;
    std::size_t s = open[rng() % open.size()];
    script.push_back(msgpack::BatchCodec::encode(per_sender[s][cursor[s]++]));
  }

  std::vector<msgpack::WireBatch> streams[2];
  for (int governed = 0; governed < 2; ++governed) {
    core::ReceiverConfig rc;
    rc.num_senders = kSenders;
    rc.queue_capacity = 8;
    rc.decode_threads = governed ? 1 : 4;
    rc.adaptive_pool = governed != 0;
    rc.adaptive_min_threads = 1;
    rc.adaptive_max_threads = 4;
    rc.adaptive_interval_ms = 2;
    core::Receiver receiver(rc, std::make_unique<ReplaySource>(script));
    streams[governed] = drain(receiver);
  }
  if (streams[0] != streams[1]) {
    std::fprintf(stderr,
                 "micro_governor: RECEIVER DELIVERY CONTRACT VIOLATED — static delivered %zu "
                 "batches, governed %zu, streams differ\n",
                 streams[0].size(), streams[1].size());
    return false;
  }
  std::printf("micro_governor: contract — static and governed receiver delivered byte-identical "
              "streams (%zu batches incl. epoch markers)\n",
              streams[0].size());
  return true;
}

// --------------------------------------------------------------- JSONL rows

/// One engine's row: its run time over the rounds, the median throughput
/// ratio, and the last round's stats.
json::Value daemon_row(const char* engine, const DaemonRun& last, const bench::Spread& seconds,
                       double ratio) {
  json::Object row;
  row["bench"] = "micro_governor";
  row["phase"] = std::string("daemon");
  row["engine"] = std::string(engine);
  row["cores"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  row["rounds"] = static_cast<std::int64_t>(kRounds);
  row["seconds"] = bench::to_json(seconds);
  row["throughput_vs_static"] = ratio;
  row["stats"] = core::to_json(last.stats);
  return json::Value(std::move(row));
}

json::Value receiver_row(const char* engine, const ReceiverRun& last,
                         const bench::Spread& seconds, double ratio) {
  json::Object row;
  row["bench"] = "micro_governor";
  row["phase"] = std::string("receiver");
  row["engine"] = std::string(engine);
  row["cores"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  row["rounds"] = static_cast<std::int64_t>(kRounds);
  row["seconds"] = bench::to_json(seconds);
  row["throughput_vs_static"] = ratio;
  row["batches"] = static_cast<std::int64_t>(last.batches);
  row["stats"] = core::to_json(last.stats);
  return json::Value(std::move(row));
}

/// Print one phase's static and governed run times and the ratio spread.
void print_pair(const std::string& static_width, const bench::Spread& stat,
                const bench::Spread& gov, const bench::Spread& ratio) {
  std::printf("  static   : median %.3f s (min %.3f, max %.3f), %s\n", stat.median, stat.min,
              stat.max, static_width.c_str());
  std::printf("  governed : median %.3f s (min %.3f, max %.3f), start=1\n", gov.median, gov.min,
              gov.max);
  std::printf("  throughput vs static over %d alternating rounds: median %.0f%% (min %.0f%%, "
              "max %.0f%%)\n",
              kRounds, ratio.median * 100.0, ratio.min * 100.0, ratio.max * 100.0);
}

}  // namespace

int main() {
  namespace fs = std::filesystem;

  // Phase 1 needs no parallelism to be meaningful — it always runs.
  if (!run_contract_phase()) return 1;

  const auto gate = bench::core_gate(
      "micro_governor", 4, "EMLIO_MICRO_GOVERNOR_FORCE",
      "core sharing (a governed pool, its senders and the wire threads share cores)");
  if (gate.skip) return 0;
  const unsigned cores = gate.cores;
  const bool assert_ratios = gate.assert_timing;

  // ---------------------------------------------- phase 2: daemon convergence
  // CRC-on encode over a fast wire: the encode pool is the bottleneck, so
  // sender stalls accumulate fast (roughly one per batch while undersized)
  // and the 10 ms control window sees plenty of evidence per decision.
  auto dir = fs::temp_directory_path() / "emlio_micro_governor";
  fs::remove_all(dir);
  auto spec = workload::presets::tiny(1536, 64 * 1024);
  workload::materialize_tfrecord(spec, dir.string(), /*num_shards=*/6);
  auto indexes = tfrecord::load_all_indexes(dir.string());
  core::PlannerConfig pc;
  pc.batch_size = 16;
  pc.epochs = 8;
  pc.threads_per_node = 1;
  pc.full_dataset_per_node = true;
  core::Planner planner(indexes, pc);
  // Warm the page cache so both engines read from memory.
  for (const auto& idx : indexes) tfrecord::ShardReader(idx).verify_all();

  const std::size_t tuned = std::clamp<std::size_t>(cores ? cores : 4, 2, 8);
  std::printf("micro_governor: daemon phase — %zu shards, %llu samples x 2 nodes x %u epochs, "
              "B=%zu, CRC on, %u cores, tuned width %zu\n",
              indexes.size(), static_cast<unsigned long long>(planner.dataset_size()), pc.epochs,
              pc.batch_size, cores, tuned);

  // Alternating rounds (bench::run_pair), gated on the median per-round
  // ratio: one run per side swings by up to 2× on a host whose speed drifts.
  std::vector<double> d_static_s, d_gov_s, d_ratios;
  DaemonRun d_static, d_gov;
  for (int round = 0; round < kRounds; ++round) {
    bench::run_pair(
        round,
        [&] {
          d_static = run_daemon(indexes, planner, pc.epochs, /*adaptive=*/false, tuned,
                                /*adaptive_max=*/0, /*interval_ms=*/10);
        },
        [&] {
          d_gov = run_daemon(indexes, planner, pc.epochs, /*adaptive=*/true, /*pool_threads=*/1,
                             tuned, /*interval_ms=*/10);
        });
    if (d_static.streams[0] != d_gov.streams[0] || d_static.streams[1] != d_gov.streams[1]) {
      std::fprintf(stderr,
                   "micro_governor: FAIL — governed daemon stream diverged from static\n");
      fs::remove_all(dir);
      return 1;
    }
    if (assert_ratios && d_gov.stats.pool_resizes == 0) {
      std::fprintf(stderr,
                   "micro_governor: FAIL — governed daemon never resized from 1 thread\n");
      fs::remove_all(dir);
      return 1;
    }
    d_static_s.push_back(d_static.seconds);
    d_gov_s.push_back(d_gov.seconds);
    d_ratios.push_back(d_gov.seconds > 0.0 ? d_static.seconds / d_gov.seconds : 0.0);
  }
  fs::remove_all(dir);

  const auto d_ratio = bench::spread(d_ratios);
  print_pair("pool=" + std::to_string(tuned), bench::spread(d_static_s), bench::spread(d_gov_s),
             d_ratio);
  std::printf("  governed, last round: %llu resizes, peak %llu threads\n",
              static_cast<unsigned long long>(d_gov.stats.pool_resizes),
              static_cast<unsigned long long>(d_gov.stats.pool_threads_peak));
  bench::append_json_line(daemon_row("static", d_static, bench::spread(d_static_s), 1.0));
  bench::append_json_line(daemon_row("governed", d_gov, bench::spread(d_gov_s), d_ratio.median));
  if (assert_ratios && d_ratio.median < 0.8) {
    std::fprintf(stderr,
                 "micro_governor: FAIL — governed daemon reached a median %.0f%% of static "
                 "throughput (< 80%%) on a %u-core host\n",
                 d_ratio.median * 100.0, cores);
    return 1;
  }

  // -------------------------------------------- phase 3: receiver convergence
  // Decode-heavy traffic (many small samples): per-sample header parsing
  // dominates, so an undersized decode pool stalls ingest on every batch.
  // Enough batches that the run spans dozens of 5 ms control windows — the
  // ramp from 1 thread must be a small fraction of the measured run.
  constexpr std::size_t kDaemons = 4, kBatchesPerDaemon = 960;
  constexpr std::size_t kSamplesPerBatch = 512, kSampleBytes = 96;
  std::vector<std::vector<Payload>> per_daemon(kDaemons);
  std::uint64_t next_id = 0;
  for (std::size_t d = 0; d < kDaemons; ++d) {
    for (std::size_t i = 0; i < kBatchesPerDaemon; ++i) {
      per_daemon[d].push_back(msgpack::BatchCodec::encode(
          make_data_batch(0, next_id++, kSamplesPerBatch, kSampleBytes, d)));
    }
    per_daemon[d].push_back(
        msgpack::BatchCodec::encode(msgpack::BatchCodec::make_sentinel(0, 0, kBatchesPerDaemon)));
  }
  std::printf("micro_governor: receiver phase — %zu daemons x %zu batches (%zu x %zu B "
              "samples)\n",
              kDaemons, kBatchesPerDaemon, kSamplesPerBatch, kSampleBytes);

  const std::uint64_t want = kDaemons * kBatchesPerDaemon;
  std::vector<double> r_static_s, r_gov_s, r_ratios;
  ReceiverRun r_static, r_gov;
  for (int round = 0; round < kRounds; ++round) {
    bench::run_pair(
        round,
        [&] {
          r_static = run_fan_in(per_daemon, /*adaptive=*/false, /*decode_threads=*/4,
                                /*adaptive_max=*/0, /*interval_ms=*/5);
        },
        [&] {
          r_gov = run_fan_in(per_daemon, /*adaptive=*/true, /*decode_threads=*/1,
                             /*adaptive_max=*/4, /*interval_ms=*/5);
        });
    if (r_static.batches != want || r_gov.batches != want) {
      std::fprintf(stderr,
                   "micro_governor: FAIL — wrong batch count (static %llu, governed %llu, "
                   "want %llu)\n",
                   static_cast<unsigned long long>(r_static.batches),
                   static_cast<unsigned long long>(r_gov.batches),
                   static_cast<unsigned long long>(want));
      return 1;
    }
    if (assert_ratios && r_gov.stats.pool_resizes == 0) {
      std::fprintf(stderr,
                   "micro_governor: FAIL — governed receiver never resized from 1 thread\n");
      return 1;
    }
    r_static_s.push_back(r_static.seconds);
    r_gov_s.push_back(r_gov.seconds);
    r_ratios.push_back(r_gov.seconds > 0.0 ? r_static.seconds / r_gov.seconds : 0.0);
  }

  const auto r_ratio = bench::spread(r_ratios);
  print_pair("decode=4", bench::spread(r_static_s), bench::spread(r_gov_s), r_ratio);
  std::printf("  governed, last round: %llu resizes, peak %llu threads\n",
              static_cast<unsigned long long>(r_gov.stats.pool_resizes),
              static_cast<unsigned long long>(r_gov.stats.pool_threads_peak));
  bench::append_json_line(receiver_row("static", r_static, bench::spread(r_static_s), 1.0));
  bench::append_json_line(
      receiver_row("governed", r_gov, bench::spread(r_gov_s), r_ratio.median));
  if (assert_ratios && r_ratio.median < 0.8) {
    std::fprintf(stderr,
                 "micro_governor: FAIL — governed receiver reached a median %.0f%% of static "
                 "throughput (< 80%%) on a %u-core host\n",
                 r_ratio.median * 100.0, cores);
    return 1;
  }
  return 0;
}
