// Tracing-overhead microbench for the per-batch stage tracer (src/obs).
//
// Two contracts:
//
//   1. Byte identity (always runs): the same plan is served through the
//      pipelined daemon → sim wire → receiver with tracing OFF and
//      with tracing ON (trace_wire off). Every payload that crosses the
//      wire — captured at the sink — and every delivered batch must be
//      byte-identical between the two runs: tracing observes the data path,
//      it must never perturb it. (trace_wire deliberately adds the "t0" key
//      and is exercised for delivery-equivalence, not byte-identity.)
//      Exit 1 on any divergence.
//
//   2. Overhead (needs ≥2 cores): the traced run must sustain ≥95 % of the
//      untraced run's throughput. Per batch the tracer costs a handful of
//      steady-clock reads and wait-free histogram increments, so the floor
//      is generous; failing it means a lock or allocation crept onto the
//      hot path. Each run serves 160 epochs over the same dataset (~0.27 s on
//      a 4-vCPU Xeon), the two sides alternate over 7 rounds
//      (bench::run_pair), and the gate is the median of the per-round
//      ratios: a single run of a few milliseconds swings by ±10 % on a
//      drifting host. FAILS (exit 1) below the 95 % floor.
//
// Below 2 cores the daemon thread, receiver threads and the drain loop
// share one core and the timing is dominated by context switching, so the
// bench prints an explicit SKIP, records a skipped JSON row and exits 0
// (bench::core_gate, the micro benches' one SKIP policy).
// EMLIO_MICRO_TRACE_FORCE=1 runs it anyway (plumbing smoke on small hosts);
// the ratio assertion still only applies on ≥2 cores.
//
// Appends one JSON row per configuration (or the skip row) to
// emlio_bench_results.jsonl.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
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

/// Sink wrapper that records a copy of every payload before forwarding —
/// the byte-identity contract is checked on the actual wire bytes, not on
/// decoded (and re-encodable) batches.
class TeeSink final : public net::MessageSink {
 public:
  TeeSink(std::shared_ptr<net::MessageSink> inner, std::vector<std::vector<std::uint8_t>>* log)
      : inner_(std::move(inner)), log_(log) {}

  bool send(Payload message) override {
    if (log_) log_->push_back(message.to_vector());
    return inner_->send(std::move(message));
  }
  void close() override { inner_->close(); }

 private:
  std::shared_ptr<net::MessageSink> inner_;
  std::vector<std::vector<std::uint8_t>>* log_;
};

struct TraceRun {
  double seconds = 0.0;
  std::uint64_t delivered_batches = 0;          ///< epoch markers included
  std::vector<msgpack::WireBatch> delivered;    ///< only when capturing
  std::vector<std::vector<std::uint8_t>> wire;  ///< only when capturing
  std::uint64_t traced_batches = 0;             ///< daemon e2e count
};

/// `capture`: keep every wire payload and delivered batch (phase 1); the
/// timed runs only count them.
TraceRun run_once(const std::vector<tfrecord::ShardIndex>& indexes, const core::Planner& planner,
                  std::uint32_t epochs, bool trace, bool trace_wire, bool capture) {
  net::SimLinkConfig link;
  link.rtt_ms = 0.0;
  link.bandwidth_bytes_per_sec = 5e9;
  auto ch = net::make_sim_channel(link);

  TraceRun r;
  std::shared_ptr<net::MessageSink> sink(std::move(ch.sink));
  sink = std::make_shared<TeeSink>(std::move(sink), capture ? &r.wire : nullptr);

  core::ReceiverConfig rc;
  rc.num_senders = 1;
  rc.queue_capacity = 16;
  rc.trace = trace;
  core::Receiver receiver(rc, std::move(ch.source));

  std::vector<tfrecord::ShardReader> readers;
  for (const auto& idx : indexes) readers.emplace_back(idx);
  core::DaemonConfig dc;
  dc.daemon_id = trace ? "traced" : "untraced";
  dc.verify_crc = true;  // real per-record CPU so the clock calls have work to hide in
  dc.pool_threads = 2;
  dc.prefetch_depth = 8;
  dc.trace = trace;
  dc.trace_wire = trace_wire;
  std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> sinks{{0u, sink}};
  core::Daemon daemon(dc, std::move(readers), sinks);

  auto t0 = std::chrono::steady_clock::now();
  std::thread serve([&] {
    for (std::uint32_t e = 0; e < epochs; ++e) {
      if (!daemon.serve_epoch(planner.plan_epoch(e, /*num_nodes=*/1))) break;
    }
    sink->close();
  });
  while (auto b = receiver.next()) {
    ++r.delivered_batches;
    if (capture) r.delivered.push_back(std::move(*b));
  }
  serve.join();
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  r.traced_batches = daemon.stats().latency.empty() ? 0 : daemon.stats().latency.back().count;
  return r;
}

/// One configuration's row: its run times over the rounds, the median
/// per-round throughput ratio, and the last round's counts.
json::Value trace_row(const char* config, const TraceRun& r, const bench::Spread& seconds,
                      double ratio) {
  json::Object row;
  row["bench"] = "micro_trace";
  row["config"] = std::string(config);
  row["cores"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  row["seconds"] = bench::to_json(seconds);
  row["throughput_vs_untraced"] = ratio;
  row["delivered_batches"] = static_cast<std::int64_t>(r.delivered_batches);
  row["traced_batches"] = static_cast<std::int64_t>(r.traced_batches);
  return json::Value(std::move(row));
}

}  // namespace

int main() {
  namespace fs = std::filesystem;

  const auto gate = bench::core_gate(
      "micro_trace", 2, "EMLIO_MICRO_TRACE_FORCE",
      "the scheduler (daemon, receiver and drain share one core)");
  if (gate.skip) return 0;
  const unsigned cores = gate.cores;
  const bool assert_ratio = gate.assert_timing;

  // --------------------------------------------------- phase 1: byte identity
  auto dir = fs::temp_directory_path() / "emlio_micro_trace";
  fs::remove_all(dir);
  auto spec = workload::presets::tiny(512, 16 * 1024);
  workload::materialize_tfrecord(spec, dir.string(), /*num_shards=*/4);
  auto indexes = tfrecord::load_all_indexes(dir.string());
  core::PlannerConfig pc;
  pc.batch_size = 16;
  pc.epochs = 2;
  pc.threads_per_node = 1;
  core::Planner planner(indexes, pc);
  // Warm the page cache so phase 2 measures CPU, not first-touch I/O.
  for (const auto& idx : indexes) tfrecord::ShardReader(idx).verify_all();

  std::printf("micro_trace: %zu shards, %llu samples x %u epochs, B=%zu, CRC on, pool=2, "
              "%u cores\n",
              indexes.size(), static_cast<unsigned long long>(planner.dataset_size()), pc.epochs,
              pc.batch_size, cores);

  auto off = run_once(indexes, planner, pc.epochs, /*trace=*/false, /*trace_wire=*/false,
                      /*capture=*/true);
  auto on = run_once(indexes, planner, pc.epochs, /*trace=*/true, /*trace_wire=*/false,
                     /*capture=*/true);
  if (off.wire != on.wire) {
    std::fprintf(stderr,
                 "micro_trace: BYTE IDENTITY VIOLATED — tracing changed the wire "
                 "(%zu vs %zu payloads)\n",
                 off.wire.size(), on.wire.size());
    return 1;
  }
  if (off.delivered != on.delivered) {
    std::fprintf(stderr, "micro_trace: FAIL — tracing changed the delivered stream\n");
    return 1;
  }
  // trace_wire intentionally adds the "t0" key; delivery content must still
  // match modulo that stamp.
  auto wired = run_once(indexes, planner, pc.epochs, /*trace=*/true, /*trace_wire=*/true,
                        /*capture=*/true);
  if (wired.delivered.size() != off.delivered.size()) {
    std::fprintf(stderr, "micro_trace: FAIL — trace_wire changed the delivered batch count\n");
    return 1;
  }
  for (std::size_t i = 0; i < wired.delivered.size(); ++i) {
    auto stripped = wired.delivered[i];
    stripped.trace_origin_ns = 0;
    if (!(stripped == off.delivered[i])) {
      std::fprintf(stderr, "micro_trace: FAIL — trace_wire perturbed batch %zu\n", i);
      return 1;
    }
  }
  std::printf("micro_trace: contract — wire and delivery byte-identical with tracing on "
              "(%zu payloads, %zu batches incl. epoch markers); trace_wire delivery "
              "equivalent modulo t0\n",
              off.wire.size(), off.delivered.size());

  // ------------------------------------------------------- phase 2: overhead
  // Alternating rounds (bench::run_pair), gated on the median per-round
  // ratio. Each run serves kTimedEpochs epochs of the same plan, so a timed
  // run lasts long enough for a host's drift to fall on both sides alike.
  constexpr int kRounds = 7;
  constexpr std::uint32_t kTimedEpochs = 160;
  std::vector<double> off_s, on_s, ratios;
  TraceRun last_off, last_on;
  for (int round = 0; round < kRounds; ++round) {
    bench::run_pair(
        round,
        [&] { last_off = run_once(indexes, planner, kTimedEpochs, false, false, false); },
        [&] { last_on = run_once(indexes, planner, kTimedEpochs, true, false, false); });
    off_s.push_back(last_off.seconds);
    on_s.push_back(last_on.seconds);
    ratios.push_back(last_on.seconds > 0.0 ? last_off.seconds / last_on.seconds : 0.0);
  }
  fs::remove_all(dir);

  const auto off_spread = bench::spread(off_s);
  const auto on_spread = bench::spread(on_s);
  const auto ratio = bench::spread(ratios);
  std::printf("  untraced : median %.3f s (min %.3f, max %.3f) for %u epochs\n",
              off_spread.median, off_spread.min, off_spread.max, kTimedEpochs);
  std::printf("  traced   : median %.3f s (min %.3f, max %.3f), %llu batches traced\n",
              on_spread.median, on_spread.min, on_spread.max,
              static_cast<unsigned long long>(last_on.traced_batches));
  std::printf("  traced throughput vs untraced over %d alternating rounds: median %.1f%% "
              "(min %.1f%%, max %.1f%%)\n",
              kRounds, ratio.median * 100.0, ratio.min * 100.0, ratio.max * 100.0);
  bench::append_json_line(trace_row("untraced", last_off, off_spread, 1.0));
  bench::append_json_line(trace_row("traced", last_on, on_spread, ratio.median));
  if (assert_ratio && ratio.median < 0.95) {
    std::fprintf(stderr,
                 "micro_trace: FAIL — tracing dragged throughput to a median %.1f%% of "
                 "untraced (< 95%%) on a %u-core host\n",
                 ratio.median * 100.0, cores);
    return 1;
  }
  return 0;
}
