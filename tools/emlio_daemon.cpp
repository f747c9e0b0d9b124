// emlio_daemon — standalone EMLIO storage daemon: serves the TFRecord
// shards in a directory to one compute node over TCP or, for same-host
// deployments, over the shared-memory transport. Pair with emlio_receive in
// another process/terminal for a real two-process deployment of the paper's
// architecture.
//
//   emlio_receive --port 5555 &            # start the compute side first
//   emlio_daemon --data DIR --connect localhost:5555
//       [--transport tcp|shm] [--shm-name emlio0] [--shm-slab-mb 4]
//       [--batch 128] [--epochs 1] [--streams 2] [--hwm 16]
//       [--pool 0] [--prefetch 16] [--seed 1234]
//       [--lane-rate 0]
//       [--cache-mb 0] [--cache-policy clock|lru]
//       [--retry-max 1 (tcp only)] [--retry-deadline 0 (tcp only)]
//       [--stats-json PATH] [--stats-interval SECS]
//       [--trace] [--trace-ring 16] [--trace-wire] [--trace-dump PATH]
//
// --retry-max / --retry-deadline give the TCP connect path a bounded
// exponential-backoff window (net::RetryPolicy) so the daemon may start
// before its receiver is listening. --retry-max counts TOTAL attempts
// including the first (1 = historical fail-fast, 0 = unlimited until the
// deadline); --retry-deadline bounds the whole window in ms (0 = none).
// shm needs no connect retry — the daemon side creates the segment — so
// under --transport shm any --retry-max but 1 or --retry-deadline but 0
// exits 2.
//
// --transport shm replaces the TCP connection with a shared-memory segment
// (created by this daemon, unlinked at exit; --connect is then unused).
// Start order flips versus TCP: the daemon creates the segment, and
// emlio_receive --transport shm attach-waits for it — so either side may be
// started first. --shm-name must match on both sides; --shm-slab-mb caps
// the encoded batch size and --hwm is the slab count (the in-flight
// budget). --hwm sizes nothing else: a TCP send blocks in the kernel behind
// the --prefetch window, so under --transport tcp any --hwm but 16 exits 2.
//
// --pool sets the width of the shared read+encode thread pool, fixed for the
// run (0 = auto), --prefetch the per-sink admission window (the HWM of the
// storage-side pipeline: how many of a sink's batches may be encoding or
// waiting in its reorder buffer). The planner's T (PlannerConfig::
// threads_per_node) keeps its default: T only splits a plan that the daemon
// merges back into one batch-id-ordered stream per sink, so no value of it
// changes a byte on the wire.
// --cache-mb gives the sample cache a byte budget (0 = off): record payloads
// stay resident across epochs so warm epochs skip shard reads entirely;
// --cache-policy picks its eviction policy. --seed sets the planner's
// shuffle seed. --lane-rate caps every sink lane at N batches/sec, paced on
// its sender thread before each send (0 = none). --stats-json dumps the final
// DaemonStats (throughput + pipeline + cache + per-lane counters) as a JSON
// file at exit, so harnesses read structured results instead of scraping
// stdout; --stats-interval streams per-window DaemonStats deltas to stdout
// as tsdb line protocol while the run is live.
// --trace stamps every batch through read → encode → lane-wait → wire and
// folds the stamps into per-stage latency histograms: quantiles land in the
// stats JSON (latency.<stage>.{p50,p95,p99,max}), stream as gauges under
// --stats-interval, and the --trace-ring slowest batches dump as JSON via
// --trace-dump PATH at exit (--trace-dump implies --trace). --trace-wire
// additionally stamps the send origin into each batch's wire bytes
// (optional "t0" codec key) so a same-host emlio_receive --trace can
// attribute sender-queue + transit time; it changes the wire bytes, so
// leave it off when byte-identical runs matter.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "core/daemon.h"
#include "core/planner.h"
#include "core/stats_stream.h"
#include "json/json.h"
#include "net/push_pull.h"
#include "net/shm_channel.h"

using namespace emlio;

int main(int argc, char** argv) {
  std::string data, connect_to = "127.0.0.1:5555";
  std::string transport = "tcp", shm_name = "emlio0";
  std::size_t shm_slab_mb = 4;
  std::string cache_policy = "clock", stats_json;
  std::size_t batch = 128, streams = 2, hwm = 16;
  std::size_t pool = 0, prefetch = 16, cache_mb = 0;
  std::size_t retry_max = 1;
  std::uint64_t retry_deadline_ms = 0;
  std::uint32_t epochs = 1;
  std::uint64_t seed = 1234;
  std::uint64_t lane_rate = 0;
  double stats_interval = 0.0;
  bool trace = false, trace_wire = false;
  std::size_t trace_ring = 16;
  std::string trace_dump;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(2);
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--data")) data = next();
    else if (!std::strcmp(argv[i], "--connect")) connect_to = next();
    else if (!std::strcmp(argv[i], "--transport")) transport = next();
    else if (!std::strcmp(argv[i], "--shm-name")) shm_name = next();
    else if (!std::strcmp(argv[i], "--shm-slab-mb")) shm_slab_mb = std::strtoul(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--batch")) batch = std::strtoul(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--epochs")) epochs = std::strtoul(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--streams")) streams = std::strtoul(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--hwm")) hwm = std::strtoul(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--pool")) pool = std::strtoul(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--prefetch")) prefetch = std::strtoul(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--seed")) seed = std::strtoull(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--lane-rate")) lane_rate = std::strtoull(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--cache-mb")) cache_mb = std::strtoul(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--cache-policy")) cache_policy = next();
    else if (!std::strcmp(argv[i], "--retry-max")) retry_max = std::strtoul(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--retry-deadline")) retry_deadline_ms = std::strtoull(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--stats-json")) stats_json = next();
    else if (!std::strcmp(argv[i], "--stats-interval")) stats_interval = std::strtod(next(), nullptr);
    else if (!std::strcmp(argv[i], "--trace")) trace = true;
    else if (!std::strcmp(argv[i], "--trace-ring")) trace_ring = std::strtoul(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--trace-wire")) trace_wire = true;
    else if (!std::strcmp(argv[i], "--trace-dump")) trace_dump = next();
    else {
      std::fprintf(stderr, "usage: emlio_daemon --data DIR --connect HOST:PORT "
                           "[--transport tcp|shm] [--shm-name NAME] [--shm-slab-mb MB] "
                           "[--batch B] [--epochs E] [--streams S] "
                           "[--hwm SLABS (shm only)] "
                           "[--pool WIDTH] [--prefetch D] [--seed N] "
                           "[--lane-rate N] "
                           "[--cache-mb MB] [--cache-policy clock|lru] "
                           "[--retry-max N (tcp only)] [--retry-deadline MS (tcp only)] "
                           "[--stats-json PATH] [--stats-interval SECS] "
                           "[--trace] [--trace-ring K] [--trace-wire] [--trace-dump PATH]\n");
      return 2;
    }
  }
  auto policy = cache::parse_policy(cache_policy);
  if (!policy) {
    std::fprintf(stderr, "emlio_daemon: unknown --cache-policy '%s' (expected clock or lru)\n",
                 cache_policy.c_str());
    return 2;
  }
  if (data.empty()) {
    std::fprintf(stderr, "emlio_daemon: --data is required\n");
    return 2;
  }
  const bool use_shm = transport == "shm";
  if (!use_shm && transport != "tcp") {
    std::fprintf(stderr, "emlio_daemon: unknown --transport '%s' (expected tcp or shm)\n",
                 transport.c_str());
    return 2;
  }
  if (!use_shm && hwm != 16) {
    std::fprintf(stderr, "emlio_daemon: --hwm sets the shm slab count; a tcp send blocks in the "
                         "kernel behind --prefetch, so --hwm must stay 16\n");
    return 2;
  }
  if (use_shm && retry_max != 1) {
    std::fprintf(stderr, "emlio_daemon: --retry-max sets the tcp connect window; the shm "
                         "daemon creates its segment, so --retry-max must stay 1\n");
    return 2;
  }
  if (use_shm && retry_deadline_ms != 0) {
    std::fprintf(stderr, "emlio_daemon: --retry-deadline sets the tcp connect window; the shm "
                         "daemon creates its segment, so --retry-deadline must stay 0\n");
    return 2;
  }
  std::string host;
  std::uint16_t port = 0;
  if (!use_shm) {
    auto colon = connect_to.find(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "emlio_daemon: --connect must be HOST:PORT\n");
      return 2;
    }
    host = connect_to.substr(0, colon);
    port = static_cast<std::uint16_t>(std::strtoul(connect_to.c_str() + colon + 1, nullptr, 10));
  }

  try {
    auto indexes = tfrecord::load_all_indexes(data);
    if (indexes.empty()) {
      std::fprintf(stderr, "emlio_daemon: no shards in %s\n", data.c_str());
      return 1;
    }
    core::PlannerConfig pc;
    pc.batch_size = batch;
    pc.epochs = epochs;
    pc.seed = seed;
    core::Planner planner(indexes, pc);
    std::printf("emlio_daemon: %zu shards, %llu samples, B=%zu E=%u -> %s\n",
                indexes.size(), static_cast<unsigned long long>(planner.dataset_size()), batch,
                epochs, use_shm ? ("shm:" + shm_name).c_str() : connect_to.c_str());

    std::shared_ptr<net::MessageSink> sink;
    if (use_shm) {
      net::ShmOptions so;
      so.slab_bytes = shm_slab_mb << 20;
      so.slab_count = hwm;  // the slab pool IS the in-flight budget
      sink = std::make_shared<net::ShmMessageSink>(shm_name, so);
      std::printf("emlio_daemon: created shm segment %s (%zu slabs x %zu MB)\n",
                  shm_name.c_str(), hwm, shm_slab_mb);
    } else {
      net::PushPullOptions opts;
      opts.num_streams = streams;
      opts.connect_retry.max_attempts = retry_max;
      opts.connect_retry.deadline = std::chrono::milliseconds(retry_deadline_ms);
      sink = std::make_shared<net::PushSocket>(host, port, opts);
    }

    std::vector<tfrecord::ShardReader> readers;
    for (const auto& idx : indexes) readers.emplace_back(idx);
    std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> sinks{{0u, sink}};
    core::DaemonConfig dc;
    dc.daemon_id = "daemon0";
    dc.pool_threads = pool;
    dc.prefetch_depth = prefetch;
    dc.cache_bytes = cache_mb << 20;
    dc.cache_policy = *policy;
    dc.lane_rate = lane_rate;
    if (!trace_dump.empty()) trace = true;  // a dump without tracing is empty
    dc.trace = trace;
    dc.trace_ring = trace_ring;
    dc.trace_wire = trace_wire;
    core::Daemon daemon(dc, std::move(readers), sinks);
    std::optional<core::StatsStreamer> streamer;
    if (stats_interval > 0.0) {
      core::StatsStreamer::Options so_stream;
      so_stream.measurement = "emlio_daemon";
      so_stream.tags = {{"daemon", dc.daemon_id}};
      so_stream.interval =
          std::chrono::milliseconds(static_cast<std::int64_t>(stats_interval * 1000.0));
      so_stream.gauges = core::gauges(core::DaemonStats{});
      streamer.emplace([&daemon] { return core::to_json(daemon.stats()); },
                       std::move(so_stream));
    }
    bool clean = daemon.serve(planner, /*num_nodes=*/1);
    sink->close();
    streamer.reset();  // final tail-window line, then stop streaming
    auto stats = daemon.stats();
    std::printf("emlio_daemon: done — %llu batches, %llu samples, %.1f MB serialized\n",
                static_cast<unsigned long long>(stats.batches_sent),
                static_cast<unsigned long long>(stats.samples_sent),
                static_cast<double>(stats.bytes_sent) / 1e6);
    // The transport syscall audit: shm must report 0 data-path syscalls;
    // TCP reports ~1 scatter-gather sendmsg per framed message.
    std::printf("emlio_daemon: wire — %llu data syscalls, %.2f per batch (%s lane)\n",
                static_cast<unsigned long long>(stats.wire_syscalls),
                stats.batches_sent
                    ? static_cast<double>(stats.wire_syscalls) /
                          static_cast<double>(stats.batches_sent)
                    : 0.0,
                use_shm ? "shm" : "tcp");
    std::printf("emlio_daemon: pipeline — %llu enqueue stalls (encode waited on wire), "
                "%llu sender stalls (wire waited on disk), peak reorder depth %llu\n",
                static_cast<unsigned long long>(stats.enqueue_stalls),
                static_cast<unsigned long long>(stats.sender_stalls),
                static_cast<unsigned long long>(stats.queue_peak_depth));
    if (cache_mb > 0) {
      std::printf("emlio_daemon: cache (%s, %zu MB) — %llu hits / %llu misses, "
                  "%llu evictions (%llu pinned skips), peak resident %.1f MB\n",
                  cache_policy.c_str(), cache_mb,
                  static_cast<unsigned long long>(stats.cache.hits),
                  static_cast<unsigned long long>(stats.cache.misses),
                  static_cast<unsigned long long>(stats.cache.evictions),
                  static_cast<unsigned long long>(stats.cache.pinned_skips),
                  static_cast<double>(stats.cache.resident_bytes_peak) / 1e6);
    }
    if (trace) {
      for (const auto& row : stats.latency) {
        std::printf("emlio_daemon: latency %-10s — p50 %.3f ms, p95 %.3f ms, "
                    "p99 %.3f ms, max %.3f ms (%llu batches)\n",
                    row.stage.c_str(), row.p50_ns / 1e6, row.p95_ns / 1e6,
                    row.p99_ns / 1e6, row.max_ns / 1e6,
                    static_cast<unsigned long long>(row.count));
      }
    }
    if (!trace_dump.empty()) {
      json::write_file(trace_dump, daemon.trace_json());
      std::printf("emlio_daemon: slow-batch traces written to %s\n", trace_dump.c_str());
    }
    if (!stats_json.empty()) {
      json::write_file(stats_json, core::to_json(stats));
      std::printf("emlio_daemon: stats written to %s\n", stats_json.c_str());
    }
    if (!clean) {
      std::fprintf(stderr, "emlio_daemon: FAILED: %s\n", daemon.last_error().c_str());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "emlio_daemon: %s\n", e.what());
    return 1;
  }
}
