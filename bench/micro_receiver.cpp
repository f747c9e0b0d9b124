// Microbench for the compute-side receiver (per-source ingest threads →
// round-robin inline admission → shared decode ThreadPool →
// Sequencer-ordered delivery). Two phases:
//
//   1. Ordered-delivery contract (hard failure): a deterministic
//      multi-sender script — sentinel overtakes, epoch reordering,
//      interleaved senders — is replayed from ONE source (so arrival order
//      is fixed) through the receiver at decode widths 1 and 4. Both
//      delivered streams must be byte-identical and identically ordered to
//      an engine-free oracle: the same arrivals replayed on one thread
//      through EpochSequencer<WireBatch>. Exit 1 on any divergence.
//
//   2. Decode-width sweep: 4 daemons push decode-heavy batches over 4
//      sim-transport channels into one receiver (true multi-source fan-in)
//      at decode widths 1, 2 and 4, in alternating rounds (1, 2, 4, 1, ...)
//      so host drift spreads evenly. Each width reports the median, min and
//      max run time over the rounds; one round takes over half a second on
//      a 4-core host. On hosts with ≥4 cores, width 4's median throughput
//      must reach kMinSpeedupWidth4 × width 1's (a 4-vCPU Xeon measures
//      2.0–2.2×; the floor leaves room for noisy shared runners). Fewer
//      cores run the sweep without the gate.
//
// Appends one JSON row per width to emlio_bench_results.jsonl.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <random>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/sequencer.h"
#include "core/receiver.h"
#include "msgpack/batch_codec.h"
#include "net/sim_channel.h"

using namespace emlio;

namespace {

constexpr std::size_t kWidths[] = {1, 2, 4};
constexpr int kRounds = 5;
constexpr double kMinSpeedupWidth4 = 1.3;

// ----------------------------------------------------------- script helpers

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
/// order, so every width's delivery can be compared batch for batch.
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

// ------------------------------------------ phase 1: ordered-delivery oracle

/// Deterministic nasty script: 2 senders × 3 epochs, random (seeded) merge
/// preserving each sender's order — sentinels overtake data, epoch e+1 data
/// overtakes epoch e's tail.
std::vector<Payload> build_contract_script() {
  constexpr std::size_t kSenders = 2, kEpochs = 3, kBatchesPerEpoch = 8;
  std::vector<std::vector<msgpack::WireBatch>> per_sender(kSenders);
  std::uint64_t next_id = 0;
  for (std::uint32_t e = 0; e < kEpochs; ++e) {
    for (std::size_t s = 0; s < kSenders; ++s) {
      for (std::size_t i = 0; i < kBatchesPerEpoch; ++i) {
        per_sender[s].push_back(make_data_batch(e, next_id++, /*samples=*/4,
                                                /*sample_bytes=*/48, /*salt=*/s));
      }
      per_sender[s].push_back(msgpack::BatchCodec::make_sentinel(0, e, kBatchesPerEpoch));
    }
  }
  // Random merge, per-sender order preserved — exactly what parallel
  // transports can produce.
  std::mt19937 rng(20250728);
  std::vector<std::size_t> cursor(kSenders, 0);
  std::vector<Payload> merged;
  for (;;) {
    std::vector<std::size_t> open;
    for (std::size_t s = 0; s < kSenders; ++s) {
      if (cursor[s] < per_sender[s].size()) open.push_back(s);
    }
    if (open.empty()) break;
    std::size_t s = open[rng() % open.size()];
    merged.push_back(msgpack::BatchCodec::encode(per_sender[s][cursor[s]++]));
  }
  return merged;
}

/// Engine-free reference delivery: the arrivals replayed in order on this
/// thread through the receiver's epoch algebra.
std::vector<msgpack::WireBatch> oracle_delivery(const std::vector<Payload>& arrivals,
                                                std::size_t num_senders) {
  std::vector<msgpack::WireBatch> out;
  EpochSequencer<msgpack::WireBatch> epochs(num_senders);
  auto on_data = [&](msgpack::WireBatch&& b) { out.push_back(std::move(b)); };
  auto on_marker = [&](std::uint32_t epoch, std::uint64_t expected) {
    out.push_back(msgpack::BatchCodec::make_sentinel(0, epoch, expected));
  };
  constexpr auto kUnattributed = EpochSequencer<msgpack::WireBatch>::kUnattributed;
  for (const auto& payload : arrivals) {
    auto batch = msgpack::BatchCodec::decode(payload);
    if (batch.last) {
      epochs.sentinel(batch.epoch, kUnattributed, batch.sent_count, on_data, on_marker);
    } else {
      epochs.data(batch.epoch, kUnattributed, std::move(batch), on_data, on_marker);
    }
  }
  epochs.finish(on_data, on_marker);
  return out;
}

bool run_contract_phase() {
  auto script = build_contract_script();
  const auto want = oracle_delivery(script, /*num_senders=*/2);
  for (std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    core::ReceiverConfig rc;
    rc.num_senders = 2;
    rc.queue_capacity = 8;
    rc.decode_threads = width;
    core::Receiver receiver(rc, std::make_unique<ReplaySource>(script));
    const auto got = drain(receiver);
    if (got != want) {
      std::fprintf(stderr,
                   "micro_receiver: ORDERED-DELIVERY CONTRACT VIOLATED — width %zu delivered "
                   "%zu batches, the EpochSequencer oracle %zu, streams differ\n",
                   width, got.size(), want.size());
      return false;
    }
  }
  std::printf("micro_receiver: contract — widths 1 and 4 delivered the oracle's byte-identical, "
              "identically-ordered stream (%zu batches incl. epoch markers)\n",
              want.size());
  return true;
}

// ---------------------------------------------- phase 2: decode-width sweep

struct RunResult {
  double seconds = 0.0;
  std::uint64_t batches = 0;
  core::ReceiverStats stats;
};

/// Each daemon sends its `payloads` `passes` times over (refcount bumps —
/// memory stays at one pass) and then one sentinel announcing the total.
RunResult run_fan_in(const std::vector<std::vector<Payload>>& per_daemon_payloads,
                     std::size_t passes, std::size_t decode_threads) {
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

  auto t0 = std::chrono::steady_clock::now();
  core::Receiver receiver(rc, std::move(sources));

  std::vector<std::thread> senders;
  for (std::size_t d = 0; d < daemons; ++d) {
    senders.emplace_back([&, d] {
      const auto& payloads = per_daemon_payloads[d];
      for (std::size_t pass = 0; pass < passes; ++pass) {
        for (const auto& p : payloads) {
          if (!sinks[d]->send(Payload(p))) return;  // handle copy: refcount bump
        }
      }
      const std::uint64_t sent = payloads.size() * passes;
      sinks[d]->send(msgpack::BatchCodec::encode(msgpack::BatchCodec::make_sentinel(0, 0, sent)));
      sinks[d]->close();
    });
  }

  RunResult r;
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

}  // namespace

int main() {
  if (!run_contract_phase()) return 1;

  // Decode-heavy traffic: many small samples per batch makes per-sample
  // header parsing (the decode stage's real cost) dominate the byte moves.
  constexpr std::size_t kDaemons = 4, kBatchesPerDaemon = 160, kPasses = 12;
  constexpr std::size_t kSamplesPerBatch = 512, kSampleBytes = 96;
  std::vector<std::vector<Payload>> per_daemon(kDaemons);
  std::uint64_t next_id = 0;
  for (std::size_t d = 0; d < kDaemons; ++d) {
    for (std::size_t i = 0; i < kBatchesPerDaemon; ++i) {
      per_daemon[d].push_back(msgpack::BatchCodec::encode(
          make_data_batch(0, next_id++, kSamplesPerBatch, kSampleBytes, d)));
    }
  }
  const std::uint64_t want = kDaemons * kBatchesPerDaemon * kPasses;

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("micro_receiver: %zu daemons x %llu batches (%zu x %zu B samples), %u cores, "
              "widths 1/2/4 x %d alternating rounds\n",
              kDaemons, static_cast<unsigned long long>(want / kDaemons), kSamplesPerBatch,
              kSampleBytes, cores, kRounds);

  constexpr std::size_t kN = std::size(kWidths);
  std::vector<double> seconds[kN];
  RunResult last[kN];
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t w = 0; w < kN; ++w) {
      last[w] = run_fan_in(per_daemon, kPasses, kWidths[w]);
      if (last[w].batches != want) {
        std::fprintf(stderr, "micro_receiver: WRONG BATCH COUNT (width %zu: %llu, want %llu)\n",
                     kWidths[w], static_cast<unsigned long long>(last[w].batches),
                     static_cast<unsigned long long>(want));
        return 1;
      }
      seconds[w].push_back(last[w].seconds);
    }
  }

  const double base = bench::spread(seconds[0]).median;
  for (std::size_t w = 0; w < kN; ++w) {
    const auto s = bench::spread(seconds[w]);
    const double ratio = base / s.median;  // throughput relative to width 1
    std::printf("  decode=%zu : median %.3f s (min %.3f, max %.3f)  %.0f batches/s, %.2fx width 1; "
                "%llu resequence / %llu decode stalls (last round)\n",
                kWidths[w], s.median, s.min, s.max, static_cast<double>(want) / s.median, ratio,
                static_cast<unsigned long long>(last[w].stats.resequence_stalls),
                static_cast<unsigned long long>(last[w].stats.decode_stalls));
    json::Object row;
    row["bench"] = "micro_receiver";
    row["decode_threads"] = static_cast<std::int64_t>(kWidths[w]);
    row["cores"] = static_cast<std::int64_t>(cores);
    row["rounds"] = static_cast<std::int64_t>(kRounds);
    row["batches"] = static_cast<std::int64_t>(want);
    row["run_seconds"] = bench::to_json(s);
    row["speedup_vs_width1"] = ratio;
    row["stats"] = core::to_json(last[w].stats);
    bench::append_json_line(json::Value(std::move(row)));
  }

  const double speedup4 = base / bench::spread(seconds[kN - 1]).median;
  if (cores >= 4 && speedup4 < kMinSpeedupWidth4) {
    std::fprintf(stderr,
                 "micro_receiver: FAIL — width 4 median throughput is %.2fx width 1's on a "
                 "%u-core host, below the %.2fx floor\n",
                 speedup4, cores, kMinSpeedupWidth4);
    return 1;
  }
  return 0;
}
