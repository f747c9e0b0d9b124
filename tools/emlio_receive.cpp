// emlio_receive — standalone EMLIO compute-side receiver: binds a PULL
// socket, consumes batches from one or more emlio_daemon processes, runs the
// mock training loop, and reports per-epoch coverage/integrity.
//
//   emlio_receive --port 5555 [--senders 1] [--epochs 1] [--expected N]
//       [--transport tcp|shm] [--shm-name emlio0] [--shm-wait-ms 10000]
//       [--decode-threads 0]
//       [--lane-rate 0]
//       [--retry-max 1 (shm only)] [--retry-deadline 0 (shm only)]
//       [--stats-json PATH] [--stats-interval SECS]
//       [--trace] [--trace-ring 16] [--trace-dump PATH]
//
// --retry-max / --retry-deadline open a reconnect window (net::RetryPolicy
// backoff schedule) on the shm transport: the source is wrapped in a
// net::ReconnectingSource, so when the daemon dies mid-stream (pid probe),
// the receiver declares the sender dead — in-flight epochs complete
// degraded and are counted in epochs_repaired — then re-attaches to the
// segment a restarted daemon recreates, within the window. --retry-max
// counts TOTAL attempts per outage including the first (1 = a single
// re-attach try, 0 = unlimited until the deadline); --retry-deadline bounds
// each outage's window in ms (0 = none). With TCP the PULL socket accepts
// reconnections forever and never declares a sender dead: a peer error
// does not end the stream, so count epochs (--epochs) to finish. Under
// --transport tcp any --retry-max but 1 or --retry-deadline but 0 exits 2.
//
// --transport shm attaches to the shared-memory segment a same-host
// emlio_daemon --transport shm creates (names must match); the receiver
// attach-waits up to --shm-wait-ms, so it may be started before the daemon.
// shm carries exactly one sender — --senders and --port are then unused.
//
// --decode-threads sets the width of the receiver's decode pool, fixed for
// the run (0 = auto, the same rule as emlio_daemon --pool).
// --lane-rate caps every source ingest lane at N payloads/sec, paced before
// each push into the lane (0 = none). --stats-json dumps the final
// ReceiverStats (throughput + decode-pipeline + per-lane counters) as a JSON
// file at exit, same contract as emlio_daemon --stats-json;
// --stats-interval streams per-window ReceiverStats deltas to stdout as tsdb
// line protocol while the run is live.
// --trace stamps every batch through ingest → decode-wait → decode →
// resequence → deliver and folds the stamps into per-stage latency
// histograms: quantiles land in the stats JSON
// (latency.<stage>.{p50,p95,p99,max}), stream as gauges under
// --stats-interval, and the --trace-ring slowest batches dump as JSON via
// --trace-dump PATH at exit (--trace-dump implies --trace). When the daemon
// runs with --trace-wire, each trace extends back to the sender's send
// decision (a "wire" stage: sender-queue residency + transit — same-host
// steady clocks).
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "core/receiver.h"
#include "core/stats_stream.h"
#include "json/json.h"
#include "net/push_pull.h"
#include "net/reconnect.h"
#include "net/shm_channel.h"
#include "train/trainer.h"

using namespace emlio;

int main(int argc, char** argv) {
  std::uint16_t port = 5555;
  std::string transport = "tcp", shm_name = "emlio0";
  std::size_t shm_wait_ms = 10000;
  std::size_t senders = 1;
  std::uint32_t epochs = 1;
  std::uint64_t expected = 0;
  std::size_t decode_threads = 0;
  std::size_t retry_max = 1;
  std::uint64_t retry_deadline_ms = 0;
  std::string stats_json;
  std::uint64_t lane_rate = 0;
  double stats_interval = 0.0;
  bool trace = false;
  std::size_t trace_ring = 16;
  std::string trace_dump;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(2);
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--port")) port = static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 10));
    else if (!std::strcmp(argv[i], "--transport")) transport = next();
    else if (!std::strcmp(argv[i], "--shm-name")) shm_name = next();
    else if (!std::strcmp(argv[i], "--shm-wait-ms")) shm_wait_ms = std::strtoul(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--senders")) senders = std::strtoul(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--epochs")) epochs = std::strtoul(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--expected")) expected = std::strtoull(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--decode-threads")) decode_threads = std::strtoul(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--stats-json")) stats_json = next();
    else if (!std::strcmp(argv[i], "--lane-rate")) lane_rate = std::strtoull(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--retry-max")) retry_max = std::strtoul(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--retry-deadline")) retry_deadline_ms = std::strtoull(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--stats-interval")) stats_interval = std::strtod(next(), nullptr);
    else if (!std::strcmp(argv[i], "--trace")) trace = true;
    else if (!std::strcmp(argv[i], "--trace-ring")) trace_ring = std::strtoul(next(), nullptr, 10);
    else if (!std::strcmp(argv[i], "--trace-dump")) trace_dump = next();
    else {
      std::fprintf(stderr,
                   "usage: emlio_receive --port P [--senders N] [--epochs E] [--expected N] "
                   "[--transport tcp|shm] [--shm-name NAME] [--shm-wait-ms MS] "
                   "[--decode-threads WIDTH] "
                   "[--lane-rate N] "
                   "[--retry-max N (shm only)] [--retry-deadline MS (shm only)] "
                   "[--stats-json PATH] [--stats-interval SECS] "
                   "[--trace] [--trace-ring K] [--trace-dump PATH]\n");
      return 2;
    }
  }
  const bool use_shm = transport == "shm";
  if (!use_shm && transport != "tcp") {
    std::fprintf(stderr, "emlio_receive: unknown --transport '%s' (expected tcp or shm)\n",
                 transport.c_str());
    return 2;
  }
  if (use_shm && senders != 1) {
    std::fprintf(stderr, "emlio_receive: shm transport carries exactly one sender\n");
    return 2;
  }
  if (!use_shm && retry_max != 1) {
    std::fprintf(stderr, "emlio_receive: --retry-max sets the shm re-attach window; a tcp pull "
                         "socket accepts reconnects forever, so --retry-max must stay 1\n");
    return 2;
  }
  if (!use_shm && retry_deadline_ms != 0) {
    std::fprintf(stderr, "emlio_receive: --retry-deadline sets the shm re-attach window; a tcp "
                         "pull socket accepts reconnects forever, so --retry-deadline must "
                         "stay 0\n");
    return 2;
  }

  const std::string decode_width =
      decode_threads ? std::to_string(decode_threads) + " threads" : "auto width";

  try {
    std::unique_ptr<net::MessageSource> source;
    // Set once the receiver exists; the reconnect callbacks fire from the
    // receiver's own ingest thread, which cannot run before then.
    core::Receiver* receiver_ptr = nullptr;
    net::ReconnectingSource* reconnector = nullptr;
    const bool reconnect_window = retry_max != 1 || retry_deadline_ms > 0;
    if (use_shm) {
      // The daemon creates the segment; wait for it so start order does not
      // matter (the shm analogue of TCP's receiver-first convention).
      auto inner = net::ShmMessageSource::attach_wait(shm_name,
                                                      std::chrono::milliseconds(shm_wait_ms));
      std::printf("emlio_receive: attached to shm segment %s (%u epoch(s), decode %s)\n",
                  shm_name.c_str(), epochs, decode_width.c_str());
      if (reconnect_window) {
        // Survive a daemon crash: when the pid probe declares the creator
        // dead, mark the sender dead (in-flight epochs repair) and re-attach
        // to the segment a restarted daemon recreates. Attaching to the
        // stale segment throws, which just burns one retry attempt.
        net::RetryOptions ro;
        ro.max_attempts = retry_max;
        ro.deadline = std::chrono::milliseconds(retry_deadline_ms);
        net::ReconnectEvents ev;
        ev.on_down = [&receiver_ptr] {
          if (receiver_ptr) receiver_ptr->note_sender_dead(0);
        };
        ev.on_up = [&receiver_ptr] {
          if (receiver_ptr) receiver_ptr->note_sender_revived(0);
        };
        auto wrapped = std::make_unique<net::ReconnectingSource>(
            std::move(inner),
            [shm_name]() -> std::unique_ptr<net::MessageSource> {
              return std::make_unique<net::ShmMessageSource>(shm_name);
            },
            ro, std::move(ev));
        reconnector = wrapped.get();
        source = std::move(wrapped);
      } else {
        source = std::move(inner);
      }
    } else {
      auto pull = std::make_unique<net::PullSocket>(port, /*queue_capacity=*/64);
      std::printf("emlio_receive: listening on 127.0.0.1:%u (%zu sender(s), %u epoch(s), "
                  "decode %s)\n",
                  pull->port(), senders, epochs, decode_width.c_str());
      // Surface connection churn: the PULL socket keeps accepting forever (a
      // restarted daemon just reconnects), so TCP has no reconnect window;
      // the callback is observability only.
      pull->set_peer_callback([](bool connected) {
        std::fprintf(stderr, "emlio_receive: peer %s\n",
                     connected ? "connected" : "disconnected");
      });
      source = std::move(pull);
    }
    core::ReceiverConfig rc;
    rc.num_senders = senders;
    rc.decode_threads = decode_threads;
    rc.lane_rate = lane_rate;
    if (!trace_dump.empty()) trace = true;  // a dump without tracing is empty
    rc.trace = trace;
    rc.trace_ring = trace_ring;
    core::Receiver receiver(rc, std::move(source));
    receiver_ptr = &receiver;
    std::optional<core::StatsStreamer> streamer;
    if (stats_interval > 0.0) {
      core::StatsStreamer::Options so;
      so.measurement = "emlio_receive";
      so.tags = {{"receiver", "node0"}};
      so.interval =
          std::chrono::milliseconds(static_cast<std::int64_t>(stats_interval * 1000.0));
      so.gauges = core::gauges(core::ReceiverStats{});
      streamer.emplace([&receiver] { return core::to_json(receiver.stats()); }, std::move(so));
    }

    train::TrainerOptions topt;
    topt.expected_samples_per_epoch = expected;
    train::Trainer trainer(topt);
    std::uint32_t done = 0;
    trainer.start_epoch(0);
    while (done < epochs) {
      auto batch = receiver.next();
      if (!batch) break;
      if (batch->last) {
        auto result = trainer.end_epoch();
        std::printf("epoch %u: %llu samples, %llu batches, dups=%llu corrupt=%llu loss=%.3f\n",
                    result.epoch, static_cast<unsigned long long>(result.samples),
                    static_cast<unsigned long long>(result.batches),
                    static_cast<unsigned long long>(result.duplicate_samples),
                    static_cast<unsigned long long>(result.corrupt_samples), result.final_loss);
        if (++done < epochs) trainer.start_epoch(done);
        continue;
      }
      trainer.train_step(*batch);
    }
    streamer.reset();  // final tail-window line, then stop streaming
    receiver.close();  // closes its source (the shm segment or the pull socket)
    auto stats = receiver.stats();
    std::printf("emlio_receive: done — %llu batches, %.1f MB, %llu decode errors\n",
                static_cast<unsigned long long>(stats.batches_received),
                static_cast<double>(stats.bytes_received) / 1e6,
                static_cast<unsigned long long>(stats.decode_errors));
    std::printf("emlio_receive: pipeline — %llu decode stalls (ingest waited on decode), "
                "%llu resequence stalls (out-of-order decode completions), "
                "peak queue depth %llu, %.1f ms decoding, %llu dropped on close\n",
                static_cast<unsigned long long>(stats.decode_stalls),
                static_cast<unsigned long long>(stats.resequence_stalls),
                static_cast<unsigned long long>(stats.queue_peak_depth),
                static_cast<double>(stats.decode_ns) / 1e6,
                static_cast<unsigned long long>(stats.dropped_on_close));
    if (stats.epochs_repaired || stats.dropped_dead_sender || reconnector) {
      std::printf("emlio_receive: fault tolerance — %llu epoch(s) repaired, "
                  "%llu batch(es) dropped for dead senders, %llu reconnect(s)\n",
                  static_cast<unsigned long long>(stats.epochs_repaired),
                  static_cast<unsigned long long>(stats.dropped_dead_sender),
                  static_cast<unsigned long long>(reconnector ? reconnector->reconnects() : 0));
    }
    if (trace) {
      for (const auto& row : stats.latency) {
        std::printf("emlio_receive: latency %-11s — p50 %.3f ms, p95 %.3f ms, "
                    "p99 %.3f ms, max %.3f ms (%llu batches)\n",
                    row.stage.c_str(), row.p50_ns / 1e6, row.p95_ns / 1e6,
                    row.p99_ns / 1e6, row.max_ns / 1e6,
                    static_cast<unsigned long long>(row.count));
      }
    }
    if (!trace_dump.empty()) {
      json::write_file(trace_dump, receiver.trace_json());
      std::printf("emlio_receive: slow-batch traces written to %s\n", trace_dump.c_str());
    }
    if (!stats_json.empty()) {
      json::write_file(stats_json, core::to_json(stats));
      std::printf("emlio_receive: stats written to %s\n", stats_json.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "emlio_receive: %s\n", e.what());
    return 1;
  }
}
