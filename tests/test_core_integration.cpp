// Integration tests across the EMLIO stack: daemon → transport → receiver →
// pipeline → trainer, over both the in-process channel and real loopback TCP.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <thread>

#include "core/daemon.h"
#include "core/planner.h"
#include "core/receiver.h"
#include "core/service.h"
#include "net/shm_channel.h"
#include "net/sim_channel.h"
#include "pipeline/pipeline.h"
#include "train/trainer.h"
#include "watchdog.h"
#include "workload/materialize.h"

namespace emlio::core {
namespace {

namespace fs = std::filesystem;

class CoreIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("emlio_core_" + std::to_string(::getpid()) + "_" +
                                        ::testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name());
    fs::create_directories(dir_);
    spec_ = workload::presets::tiny(48, 900);
    built_ = workload::materialize_tfrecord(spec_, dir_.string(), 3);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ServiceConfig base_config() {
    ServiceConfig cfg;
    cfg.dataset_dir = dir_.string();
    cfg.batch_size = 8;
    cfg.epochs = 1;
    cfg.threads_per_node = 2;
    return cfg;
  }

  /// Drain one service epoch into a trainer; returns the epoch result.
  train::EpochResult run_epoch(EmlioService& service, std::uint32_t epoch) {
    train::TrainerOptions topt;
    topt.expected_samples_per_epoch = spec_.num_samples;
    train::Trainer trainer(topt);
    trainer.start_epoch(epoch);
    while (auto batch = service.next_batch()) {
      if (batch->last) break;
      trainer.train_step(*batch);
    }
    return trainer.end_epoch();
  }

  fs::path dir_;
  workload::DatasetSpec spec_;
  tfrecord::BuiltDataset built_;
};

TEST_F(CoreIntegrationTest, InProcessEpochCoversDatasetExactlyOnce) {
  EmlioService service(base_config());
  service.start();
  auto result = run_epoch(service, 0);
  EXPECT_TRUE(result.clean(spec_.num_samples)) << "dups=" << result.duplicate_samples
                                               << " corrupt=" << result.corrupt_samples;
  EXPECT_EQ(result.samples, 48u);
  service.stop();
  auto stats = service.stats();
  EXPECT_EQ(stats.daemon.samples_sent, 48u);
  EXPECT_EQ(stats.receiver.samples_received, 48u);
  EXPECT_EQ(stats.receiver.decode_errors, 0u);
}

TEST_F(CoreIntegrationTest, TcpTransportDeliversSameGuarantees) {
  auto cfg = base_config();
  cfg.transport = Transport::kTcp;
  cfg.num_streams = 3;
  EmlioService service(cfg);
  service.start();
  auto result = run_epoch(service, 0);
  EXPECT_TRUE(result.clean(spec_.num_samples));
  service.stop();
}

TEST_F(CoreIntegrationTest, ShmTransportDeliversSameGuarantees) {
  // The shared-memory lane slots in behind the same MessageSink/Source
  // interfaces, so the full stack must deliver the identical exactly-once
  // guarantee with zero engine changes — and zero data-path syscalls.
  auto cfg = base_config();
  cfg.transport = Transport::kShm;
  EmlioService service(cfg);
  service.start();
  auto result = run_epoch(service, 0);
  EXPECT_TRUE(result.clean(spec_.num_samples)) << "dups=" << result.duplicate_samples
                                               << " corrupt=" << result.corrupt_samples;
  service.stop();
  auto stats = service.stats();
  EXPECT_EQ(stats.daemon.samples_sent, 48u);
  EXPECT_EQ(stats.receiver.samples_received, 48u);
  EXPECT_EQ(stats.daemon.wire_syscalls, 0u);  // the zero-syscall lane audit
}

TEST_F(CoreIntegrationTest, ShmStreamIsByteIdenticalToInProcess) {
  // Same seed, default engines: the daemon's resequencer pins batch-id order
  // on the wire and the receiver's restores arrival order after its decode
  // pool, so the decoded batch stream over shm must be byte-for-byte the
  // stream the in-process channel delivers. Flattens every batch (ids +
  // labels + sample bytes) into one buffer per transport and compares.
  auto capture = [&](Transport transport) {
    auto cfg = base_config();
    cfg.transport = transport;
    EmlioService service(cfg);
    service.start();
    std::vector<std::uint8_t> stream;
    auto put_u64 = [&stream](std::uint64_t v) {
      for (int b = 0; b < 8; ++b) stream.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    };
    while (auto batch = service.next_batch()) {
      put_u64(batch->epoch);
      put_u64(batch->batch_id);
      put_u64(batch->last ? 1 : 0);
      for (const auto& s : batch->samples) {
        put_u64(s.index);
        put_u64(static_cast<std::uint64_t>(s.label));
        put_u64(s.bytes.size());
        stream.insert(stream.end(), s.bytes.data(), s.bytes.data() + s.bytes.size());
      }
      if (batch->last) break;
    }
    service.stop();
    return stream;
  };
  auto in_process = capture(Transport::kInProcess);
  auto shm = capture(Transport::kShm);
  ASSERT_GT(in_process.size(), 48u * 900u);  // sanity: carried the payloads
  EXPECT_EQ(shm, in_process);
}

TEST_F(CoreIntegrationTest, MultiEpochEachCovered) {
  auto cfg = base_config();
  cfg.epochs = 3;
  EmlioService service(cfg);
  service.start();
  for (std::uint32_t e = 0; e < 3; ++e) {
    auto result = run_epoch(service, e);
    EXPECT_TRUE(result.clean(spec_.num_samples)) << "epoch " << e;
  }
  // Stream ends after the final epoch.
  EXPECT_FALSE(service.next_batch().has_value());
  service.stop();
}

TEST_F(CoreIntegrationTest, LatencyInjectedChannelStillCorrect) {
  auto cfg = base_config();
  cfg.link.rtt_ms = 10.0;  // emulated LAN
  cfg.link.bandwidth_bytes_per_sec = 50e6;
  EmlioService service(cfg);
  service.start();
  auto result = run_epoch(service, 0);
  EXPECT_TRUE(result.clean(spec_.num_samples));
  service.stop();
}

TEST_F(CoreIntegrationTest, LatencySpikeMidEpochDoesNotCorrupt) {
  auto cfg = base_config();
  cfg.link.rtt_ms = 2.0;
  EmlioService service(cfg);
  service.start();
  train::TrainerOptions topt;
  topt.expected_samples_per_epoch = spec_.num_samples;
  train::Trainer trainer(topt);
  trainer.start_epoch(0);
  int seen = 0;
  while (auto batch = service.next_batch()) {
    if (batch->last) break;
    trainer.train_step(*batch);
    if (++seen == 2) {
      // Congestion episode: +20 ms on every subsequent message.
      // (Fault injection through the link control handle.)
      service.timestamps().record("fault_injected");
    }
  }
  EXPECT_TRUE(trainer.end_epoch().clean(spec_.num_samples));
  service.stop();
}

/// Key → JSON type tag ('i' int, 'd' double, 'b' bool, 's' string,
/// 'a' array, 'o' object) of one stats object.
std::map<std::string, char> json_schema(const json::Value& v) {
  std::map<std::string, char> out;
  for (const auto& [key, child] : v.as_object()) {
    out[key] = child.is_int()      ? 'i'
               : child.is_double() ? 'd'
               : child.is_bool()   ? 'b'
               : child.is_string() ? 's'
               : child.is_array()  ? 'a'
                                   : 'o';
  }
  return out;
}

std::map<std::string, char> ints(std::initializer_list<const char*> keys) {
  std::map<std::string, char> out;
  for (const char* k : keys) out[k] = 'i';
  return out;
}

TEST_F(CoreIntegrationTest, FixedWidthServiceDeliversCleanlyAndReportsStats) {
  // Single-worker pools on both staged engines for a whole multi-epoch run:
  // the stream must stay exactly-once and each pool's width must be wired
  // through ServiceStats/to_json end to end. Traced, with the cache on, the
  // run also fills every section of the stats JSON, whose schema and gauge
  // sets are pinned below (`--stats-json` and `--stats-interval` emit them).
  auto cfg = base_config();
  cfg.epochs = 2;
  cfg.pipeline_pool_threads = 1;
  cfg.decode_threads = 1;
  cfg.trace = true;
  cfg.cache_bytes = 1u << 20;
  EmlioService service(cfg);
  service.start();
  for (std::uint32_t e = 0; e < 2; ++e) {
    auto result = run_epoch(service, e);
    EXPECT_TRUE(result.clean(spec_.num_samples)) << "epoch " << e;
  }
  service.stop();
  auto stats = service.stats();
  EXPECT_EQ(stats.daemon.pool_threads_current, 1u);
  EXPECT_EQ(stats.receiver.pool_threads_current, 1u);
  EXPECT_GT(stats.daemon.cache.hits, 0u);

  auto daemon_keys = ints({"batches_sent", "bytes_sent", "cache_entries", "cache_evictions",
                           "cache_hits", "cache_inserts", "cache_misses", "cache_pinned_skips",
                           "cache_rejected", "cache_resident_bytes", "cache_resident_bytes_peak",
                           "encode_pool_allocated", "encode_pool_reused", "enqueue_stalls",
                           "errors", "pool_threads_current", "queue_peak_depth", "samples_sent",
                           "sender_stalls", "store_reads", "store_records_read",
                           "wire_syscalls"});
  ASSERT_EQ(daemon_keys.size(), 22u);
  daemon_keys["lanes"] = 'a';
  daemon_keys["latency"] = 'o';
  auto receiver_keys =
      ints({"batches_received", "bytes_received", "decode_errors", "decode_ns", "decode_stalls",
            "dropped_dead_sender", "dropped_on_close", "epochs_completed", "epochs_repaired",
            "pool_threads_current", "queue_peak_depth", "resequence_stalls",
            "samples_received"});
  ASSERT_EQ(receiver_keys.size(), 13u);
  receiver_keys["lanes"] = 'a';
  receiver_keys["latency"] = 'o';
  auto lane_keys = ints({"delivered_bytes", "delivered_items", "dequeue_stalls", "enqueue_stalls",
                         "queue_peak_depth"});
  lane_keys["name"] = 's';
  lane_keys["closed"] = 'b';
  ASSERT_EQ(lane_keys.size(), 7u);
  const std::map<std::string, char> stage_keys{
      {"count", 'i'}, {"p50", 'd'}, {"p95", 'd'}, {"p99", 'd'}, {"max", 'd'}};

  const json::Value sides[] = {to_json(stats.daemon), to_json(stats.receiver)};
  EXPECT_EQ(json_schema(sides[0]), daemon_keys);
  EXPECT_EQ(json_schema(sides[1]), receiver_keys);
  for (const auto& side : sides) {
    ASSERT_FALSE(side.at("lanes").as_array().empty());
    for (const auto& lane : side.at("lanes").as_array()) {
      EXPECT_EQ(json_schema(lane), lane_keys);
    }
    ASSERT_FALSE(side.at("latency").as_object().empty());
    for (const auto& [stage, row] : side.at("latency").as_object()) {
      EXPECT_EQ(json_schema(row), stage_keys) << stage;
    }
  }

  // The leaves `--stats-interval` streams as-is rather than as deltas.
  const std::set<std::string> daemon_gauges{
      "pool_threads_current", "queue_peak_depth", "cache_resident_bytes",
      "cache_resident_bytes_peak", "cache_entries", "closed", "p50", "p95", "p99", "max"};
  const std::set<std::string> receiver_gauges{
      "pool_threads_current", "queue_peak_depth", "closed", "p50", "p95", "p99", "max"};
  EXPECT_EQ(gauges(stats.daemon), daemon_gauges);
  EXPECT_EQ(gauges(stats.receiver), receiver_gauges);
}

TEST_F(CoreIntegrationTest, ShuffleOffPreservesShardOrder) {
  auto cfg = base_config();
  cfg.shuffle = false;
  cfg.threads_per_node = 1;
  EmlioService service(cfg);
  service.start();
  std::vector<std::uint64_t> batch_ids;
  while (auto batch = service.next_batch()) {
    if (batch->last) break;
    batch_ids.push_back(batch->batch_id);
  }
  // Batch-id-ordered lane + single in-process stream → planner batch order.
  for (std::size_t i = 0; i < batch_ids.size(); ++i) {
    EXPECT_EQ(batch_ids[i], i);
  }
  service.stop();
}

TEST_F(CoreIntegrationTest, TimestampLoggerCapturesSendRecvPairs) {
  EmlioService service(base_config());
  service.start();
  while (auto batch = service.next_batch()) {
    if (batch->last) break;
  }
  service.stop();
  auto sends = service.timestamps().events_with_label("batch_send");
  auto recvs = service.timestamps().events_with_label("batch_recv");
  EXPECT_EQ(sends.size(), 6u);  // 48 samples / B=8
  EXPECT_EQ(recvs.size(), 6u);
  EXPECT_GE(service.timestamps().span("epoch_start", "epoch_complete"), 0);
}

TEST_F(CoreIntegrationTest, ServiceEventLogIsBounded) {
  // Every data batch adds a batch_send and a batch_recv event; a service
  // that runs long enough must keep only the newest kEventLogCapacity of
  // them and count the rest, not grow without bound.
  EmlioService service(base_config());
  service.start();
  while (auto batch = service.next_batch()) {
    if (batch->last) break;
  }
  service.stop();
  TimestampLogger& log = service.timestamps();
  EXPECT_EQ(log.capacity(), EmlioService::kEventLogCapacity);
  EXPECT_EQ(log.events_with_label("batch_recv").size(), 6u);
  // Run the log past its bound the way a long run would: batch pairs.
  for (std::size_t i = 0; i < EmlioService::kEventLogCapacity; ++i) {
    log.record("batch_send", static_cast<std::int64_t>(i));
    log.record("batch_recv", static_cast<std::int64_t>(i));
  }
  EXPECT_LE(log.size(), EmlioService::kEventLogCapacity);
  EXPECT_GT(log.dropped_events(), 0u);
  EXPECT_EQ(log.size() + log.dropped_events(), 2 * EmlioService::kEventLogCapacity + 6 * 2 + 3)
      << "every recorded event is retained or counted as dropped";
}

TEST_F(CoreIntegrationTest, PipelineIntegration) {
  EmlioService service(base_config());
  service.start();
  pipeline::PipelineConfig pcfg;
  pcfg.num_threads = 2;
  pipeline::Pipeline pipe(pcfg, [&]() { return service.next_batch(); });
  pipe.warm_up();
  std::size_t samples = 0;
  std::size_t epoch_ends = 0;
  while (auto out = pipe.run()) {
    if (out->epoch_end) {
      ++epoch_ends;
      continue;
    }
    samples += out->samples.size();
    for (const auto& s : out->samples) EXPECT_TRUE(s.checksum_ok);
  }
  EXPECT_EQ(samples, 48u);
  EXPECT_EQ(epoch_ends, 1u);
  EXPECT_EQ(pipe.stats().checksum_failures, 0u);
  service.stop();
}

TEST_F(CoreIntegrationTest, ServiceRejectsEmptyDirectory) {
  auto empty = dir_ / "empty";
  fs::create_directories(empty);
  ServiceConfig cfg;
  cfg.dataset_dir = empty.string();
  EXPECT_THROW(EmlioService{cfg}, std::runtime_error);
}

TEST_F(CoreIntegrationTest, ServiceRejectsRetiredAdaptivePool) {
  // The pools are fixed-width; a caller still asking for adaptive sizing
  // must hear so at construction rather than be silently ignored.
  auto cfg = base_config();
  cfg.adaptive_pool = true;
  EXPECT_THROW(EmlioService{cfg}, std::runtime_error);
}

// ------------------------------------------------- receiver ordering logic

/// Scripted source: hands out a fixed sequence of encoded payloads.
struct ScriptedSource final : net::MessageSource {
  explicit ScriptedSource(std::vector<msgpack::WireBatch> batches) {
    for (auto& b : batches) script.push_back(msgpack::BatchCodec::encode(b));
  }
  std::optional<Payload> recv() override {
    if (pos >= script.size()) return std::nullopt;
    return script[pos++];  // refcount bump, not a byte copy
  }
  void close() override {}
  std::vector<Payload> script;
  std::size_t pos = 0;
};

msgpack::WireBatch data_batch(std::uint32_t epoch, std::uint64_t id) {
  msgpack::WireBatch b;
  b.epoch = epoch;
  b.batch_id = id;
  msgpack::WireSample s;
  s.index = id;
  s.bytes = {1, 2, 3};
  b.samples.push_back(std::move(s));
  return b;
}

TEST(ReceiverOrdering, SentinelOvertakingDataIsHeldBack) {
  // Multi-stream transports can deliver the sentinel BEFORE the last data
  // batches; the epoch marker must still come out after all data.
  std::vector<msgpack::WireBatch> script;
  script.push_back(data_batch(0, 0));
  script.push_back(msgpack::BatchCodec::make_sentinel(0, 0, /*sent_count=*/3));  // early!
  script.push_back(data_batch(0, 1));
  script.push_back(data_batch(0, 2));

  ReceiverConfig rc;
  rc.num_senders = 1;
  Receiver receiver(rc, std::make_unique<ScriptedSource>(std::move(script)));
  std::vector<bool> lasts;
  for (int i = 0; i < 4; ++i) {
    auto b = receiver.next();
    ASSERT_TRUE(b.has_value());
    lasts.push_back(b->last);
  }
  EXPECT_EQ(lasts, (std::vector<bool>{false, false, false, true}));
}

TEST(ReceiverOrdering, NextEpochDataHeldUntilCurrentCompletes) {
  // Epoch-1 data overtaking epoch-0's tail must be buffered: consumers see
  // strictly [e0 data..., e0 marker, e1 data..., e1 marker].
  std::vector<msgpack::WireBatch> script;
  script.push_back(data_batch(0, 0));
  script.push_back(data_batch(1, 0));  // overtook epoch 0's tail
  script.push_back(data_batch(0, 1));
  script.push_back(msgpack::BatchCodec::make_sentinel(0, 0, 2));
  script.push_back(msgpack::BatchCodec::make_sentinel(0, 1, 1));

  ReceiverConfig rc;
  rc.num_senders = 1;
  Receiver receiver(rc, std::make_unique<ScriptedSource>(std::move(script)));
  std::vector<std::pair<std::uint32_t, bool>> order;
  for (int i = 0; i < 5; ++i) {
    auto b = receiver.next();
    ASSERT_TRUE(b.has_value());
    order.emplace_back(b->epoch, b->last);
  }
  std::vector<std::pair<std::uint32_t, bool>> want{
      {0, false}, {0, false}, {0, true}, {1, false}, {1, true}};
  EXPECT_EQ(order, want);
}

TEST(ReceiverOrdering, TwoSendersBothSentinelsRequired) {
  std::vector<msgpack::WireBatch> script;
  script.push_back(data_batch(0, 0));
  script.push_back(msgpack::BatchCodec::make_sentinel(0, 0, 1));  // sender A
  script.push_back(data_batch(0, 1));
  script.push_back(msgpack::BatchCodec::make_sentinel(0, 0, 1));  // sender B

  ReceiverConfig rc;
  rc.num_senders = 2;
  Receiver receiver(rc, std::make_unique<ScriptedSource>(std::move(script)));
  EXPECT_FALSE(receiver.next()->last);
  EXPECT_FALSE(receiver.next()->last);
  EXPECT_TRUE(receiver.next()->last);  // only after BOTH sentinels + all data
}

TEST(ReceiverOrdering, SentinelFirstEntirelyBeforeData) {
  // Extreme overtaking: the sentinel beats EVERY data batch of its epoch.
  // The epoch marker must still be emitted only after the nsent accounted
  // batches have all been delivered.
  std::vector<msgpack::WireBatch> script;
  script.push_back(msgpack::BatchCodec::make_sentinel(0, 0, /*sent_count=*/2));
  script.push_back(data_batch(0, 0));
  script.push_back(data_batch(0, 1));

  ReceiverConfig rc;
  rc.num_senders = 1;
  Receiver receiver(rc, std::make_unique<ScriptedSource>(std::move(script)));
  EXPECT_FALSE(receiver.next()->last);
  EXPECT_FALSE(receiver.next()->last);
  auto marker = receiver.next();
  ASSERT_TRUE(marker.has_value());
  EXPECT_TRUE(marker->last);
  EXPECT_EQ(receiver.stats().epochs_completed, 1u);
}

TEST(ReceiverOrdering, BothSendersSentinelsOvertakeAllData) {
  // Two parallel senders, both sentinels arrive before any data (worst-case
  // multi-stream reordering), and epoch-1 data overtakes epoch 0's tail too.
  std::vector<msgpack::WireBatch> script;
  script.push_back(msgpack::BatchCodec::make_sentinel(0, 0, 1));  // sender A epoch 0
  script.push_back(msgpack::BatchCodec::make_sentinel(0, 0, 2));  // sender B epoch 0
  script.push_back(data_batch(1, 10));  // epoch 1 overtakes: must be held
  script.push_back(data_batch(0, 0));
  script.push_back(data_batch(0, 1));
  script.push_back(data_batch(0, 2));
  script.push_back(msgpack::BatchCodec::make_sentinel(0, 1, 1));  // sender A epoch 1
  script.push_back(msgpack::BatchCodec::make_sentinel(0, 1, 0));  // sender B epoch 1

  ReceiverConfig rc;
  rc.num_senders = 2;
  Receiver receiver(rc, std::make_unique<ScriptedSource>(std::move(script)));
  std::vector<std::pair<std::uint32_t, bool>> order;
  for (int i = 0; i < 6; ++i) {
    auto b = receiver.next();
    ASSERT_TRUE(b.has_value());
    order.emplace_back(b->epoch, b->last);
  }
  std::vector<std::pair<std::uint32_t, bool>> want{
      {0, false}, {0, false}, {0, false}, {0, true}, {1, false}, {1, true}};
  EXPECT_EQ(order, want);
  EXPECT_EQ(receiver.stats().epochs_completed, 2u);
}

TEST(ReceiverOrdering, BatchesOutliveReceiverViaSharedOwnership) {
  // The decoded samples are views sharing the received payload's refcount:
  // a batch kept by the consumer must stay valid after the receiver (and its
  // source, which owned the encoded payloads) is destroyed.
  msgpack::WireBatch held;
  {
    std::vector<msgpack::WireBatch> script;
    script.push_back(data_batch(0, 0));
    script.push_back(msgpack::BatchCodec::make_sentinel(0, 0, 1));
    ReceiverConfig rc;
    rc.num_senders = 1;
    Receiver receiver(rc, std::make_unique<ScriptedSource>(std::move(script)));
    auto b = receiver.next();
    ASSERT_TRUE(b.has_value());
    held = std::move(*b);
  }  // receiver + scripted payloads destroyed here
  ASSERT_EQ(held.samples.size(), 1u);
  EXPECT_TRUE(held.samples[0].bytes.owns_storage());
  EXPECT_EQ(held.samples[0].bytes, (PayloadView{1, 2, 3}));
}

TEST(ReceiverOrdering, UndecodablePayloadCountedNotFatal) {
  std::vector<msgpack::WireBatch> script;
  script.push_back(data_batch(0, 0));
  script.push_back(msgpack::BatchCodec::make_sentinel(0, 0, 1));
  auto source = std::make_unique<ScriptedSource>(std::move(script));
  // Inject garbage between the two valid payloads.
  source->script.insert(source->script.begin() + 1,
                        std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE, 0xEF});
  ReceiverConfig rc;
  rc.num_senders = 1;
  Receiver receiver(rc, std::move(source));
  EXPECT_FALSE(receiver.next()->last);
  EXPECT_TRUE(receiver.next()->last);
  EXPECT_EQ(receiver.stats().decode_errors, 1u);
}

// -------------------------------------------- parallel (pooled) decode engine

/// Drain everything a receiver will ever deliver.
std::vector<msgpack::WireBatch> drain_all(Receiver& receiver) {
  std::vector<msgpack::WireBatch> out;
  while (auto b = receiver.next()) out.push_back(std::move(*b));
  return out;
}

msgpack::WireBatch data_batch_with_payload(std::uint32_t epoch, std::uint64_t id,
                                           std::uint64_t salt) {
  msgpack::WireBatch b;
  b.epoch = epoch;
  b.batch_id = id;
  msgpack::WireSample s;
  s.index = id;
  s.label = static_cast<std::int64_t>(salt);
  std::vector<std::uint8_t> bytes(64);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>((salt * 131 + id * 31 + i) & 0xFF);
  }
  s.bytes = PayloadView(std::move(bytes));
  b.samples.push_back(std::move(s));
  return b;
}

TEST(ReceiverParallelDecode, SentinelOvertakeAndEpochReorderPooled) {
  // The worst-case orderings the tests above pin down, decoded by a 4-wide pool:
  // both sentinels beat all data, and epoch-1 data overtakes epoch 0's tail.
  std::vector<msgpack::WireBatch> script;
  script.push_back(msgpack::BatchCodec::make_sentinel(0, 0, 1));  // sender A epoch 0
  script.push_back(msgpack::BatchCodec::make_sentinel(0, 0, 2));  // sender B epoch 0
  script.push_back(data_batch(1, 10));                            // epoch 1 overtakes
  script.push_back(data_batch(0, 0));
  script.push_back(data_batch(0, 1));
  script.push_back(data_batch(0, 2));
  script.push_back(msgpack::BatchCodec::make_sentinel(0, 1, 1));
  script.push_back(msgpack::BatchCodec::make_sentinel(0, 1, 0));

  ReceiverConfig rc;
  rc.num_senders = 2;
  rc.decode_threads = 4;
  Receiver receiver(rc, std::make_unique<ScriptedSource>(std::move(script)));
  std::vector<std::pair<std::uint32_t, bool>> order;
  for (auto& b : drain_all(receiver)) order.emplace_back(b.epoch, b.last);
  std::vector<std::pair<std::uint32_t, bool>> want{
      {0, false}, {0, false}, {0, false}, {0, true}, {1, false}, {1, true}};
  EXPECT_EQ(order, want);
  EXPECT_EQ(receiver.stats().epochs_completed, 2u);
}

/// Engine-free reference delivery: replay `arrivals` in order on one thread
/// through the same EpochSequencer algebra the receiver runs. Whatever the
/// decode pool's width, the receiver must deliver exactly this stream.
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

TEST(ReceiverParallelDecode, RandomizedInterleavingsMatchSequencerOracle) {
  // Property: for ANY cross-sender interleaving a parallel transport could
  // produce, the receiver delivers the oracle's batch stream — batch for
  // batch, byte for byte — at width 1 and at width 4. Randomized merges of
  // 3 senders × 3 epochs (ragged batch counts, sentinel overtakes included
  // by construction), same arrival order replayed through every run.
  std::mt19937 rng(0xE171u);
  for (int round = 0; round < 5; ++round) {
    constexpr std::size_t kSenders = 3;
    constexpr std::uint32_t kEpochs = 3;
    std::vector<std::vector<msgpack::WireBatch>> streams(kSenders);
    std::uint64_t next_id = 0;
    for (std::uint32_t e = 0; e < kEpochs; ++e) {
      for (std::size_t s = 0; s < kSenders; ++s) {
        std::size_t n = 1 + rng() % 4;
        for (std::size_t i = 0; i < n; ++i) {
          streams[s].push_back(data_batch_with_payload(e, next_id++, s));
        }
        streams[s].push_back(msgpack::BatchCodec::make_sentinel(0, e, n));
      }
    }
    // Random merge preserving per-sender order.
    std::vector<msgpack::WireBatch> merged;
    std::vector<std::size_t> cursor(kSenders, 0);
    for (;;) {
      std::vector<std::size_t> open;
      for (std::size_t s = 0; s < kSenders; ++s) {
        if (cursor[s] < streams[s].size()) open.push_back(s);
      }
      if (open.empty()) break;
      std::size_t s = open[rng() % open.size()];
      merged.push_back(streams[s][cursor[s]++]);
    }

    const auto want = oracle_delivery(ScriptedSource(merged).script, kSenders);
    ASSERT_EQ(want.size(), next_id + kEpochs) << "round " << round;
    for (std::size_t width : {std::size_t{1}, std::size_t{4}}) {
      ReceiverConfig rc;
      rc.num_senders = kSenders;
      rc.queue_capacity = 4;
      rc.decode_threads = width;
      Receiver receiver(rc, std::make_unique<ScriptedSource>(merged));
      EXPECT_EQ(drain_all(receiver), want) << "round " << round << " width " << width;
      EXPECT_EQ(receiver.stats().epochs_completed, kEpochs) << "round " << round;
      EXPECT_EQ(receiver.stats().dropped_on_close, 0u) << "round " << round;
    }
  }
}

TEST(ReceiverParallelDecode, HeldBatchesRepairedAtStreamEnd) {
  // Epoch-1 data arrives but epoch 0 never completes (a sender died before
  // its sentinel). When the stream ends on its own — not a local close() —
  // the receiver repairs at every width: each evidenced epoch completes
  // degraded, the held
  // epoch-1 batch is DELIVERED (not leaked or dropped), and the repairs are
  // counted in epochs_repaired.
  for (std::size_t decode_threads : {std::size_t{1}, std::size_t{2}}) {
    std::vector<msgpack::WireBatch> script;
    script.push_back(data_batch(0, 0));
    script.push_back(data_batch(1, 5));  // held until epoch 0 resolves
    ReceiverConfig rc;
    rc.num_senders = 1;
    rc.decode_threads = decode_threads;
    Receiver receiver(rc, std::make_unique<ScriptedSource>(std::move(script)));
    auto delivered = drain_all(receiver);
    // batch 0, degraded epoch-0 marker, held batch 5, degraded epoch-1 marker.
    ASSERT_EQ(delivered.size(), 4u) << "decode_threads=" << decode_threads;
    EXPECT_EQ(delivered[0].batch_id, 0u);
    EXPECT_TRUE(delivered[1].last);
    EXPECT_EQ(delivered[1].epoch, 0u);
    EXPECT_EQ(delivered[2].batch_id, 5u);
    EXPECT_EQ(delivered[2].epoch, 1u);
    EXPECT_TRUE(delivered[3].last);
    EXPECT_EQ(delivered[3].epoch, 1u);
    auto stats = receiver.stats();
    EXPECT_EQ(stats.batches_received, 2u) << "decode_threads=" << decode_threads;
    EXPECT_EQ(stats.epochs_completed, 2u) << "decode_threads=" << decode_threads;
    EXPECT_EQ(stats.epochs_repaired, 2u) << "decode_threads=" << decode_threads;
    EXPECT_EQ(stats.dropped_on_close, 0u) << "decode_threads=" << decode_threads;
    EXPECT_EQ(stats.dropped_dead_sender, 0u) << "decode_threads=" << decode_threads;
  }
}

/// Source that yields `count` data payloads, then BLOCKS until closed —
/// models a live transport with more traffic than the receiver will take.
/// Tracks how many payloads the receiver actually pulled off the wire.
struct GatedSource final : net::MessageSource {
  explicit GatedSource(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      script.push_back(msgpack::BatchCodec::encode(data_batch(0, i)));
    }
  }
  std::optional<Payload> recv() override {
    std::size_t i = handed.fetch_add(1, std::memory_order_relaxed);
    if (i < script.size()) return script[i];
    handed.fetch_sub(1, std::memory_order_relaxed);  // nothing handed out
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return closed; });
    return std::nullopt;
  }
  void close() override {
    {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
    }
    cv.notify_all();
  }
  std::vector<Payload> script;
  std::atomic<std::size_t> handed{0};
  std::mutex mu;
  std::condition_variable cv;
  bool closed = false;
};

TEST(ReceiverParallelDecode, CloseWithUnconsumedDecodesCountsDrops) {
  // The receiver decodes ahead of a consumer that never shows up; close()
  // rejects the queued-up deliveries. Every payload pulled off the wire must
  // be accounted: drained from the queue, or counted in dropped_on_close.
  constexpr std::size_t kBatches = 6;
  auto source = std::make_unique<GatedSource>(kBatches);
  auto* src = source.get();
  ReceiverConfig rc;
  rc.num_senders = 1;
  rc.queue_capacity = 1;  // the engine blocks on delivery almost immediately
  Receiver receiver(rc, std::move(source));
  // Two decoded batches: one fills the queue, the next blocks delivery.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (receiver.stats().batches_received < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(receiver.stats().batches_received, 2u);
  receiver.close();
  std::uint64_t drained = 0;
  while (receiver.next()) ++drained;  // whatever made it in before the close
  // Straggler decode jobs may still be counting drops; wait for the
  // conservation equation to settle.
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::uint64_t pulled = 0;
  ReceiverStats stats;
  do {
    stats = receiver.stats();
    pulled = src->handed.load(std::memory_order_relaxed);
    if (drained + stats.dropped_on_close == pulled) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  } while (std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(drained + stats.dropped_on_close, pulled);
  EXPECT_GE(stats.dropped_on_close, 1u);
}

TEST(ReceiverParallelDecode, CloseUnderFullWindowAccountsInHandPayload) {
  // Regression: the pooled ingest loop pulls a payload off the wire, then
  // blocks on a full in-flight window; close() used to make it break out and
  // silently destroy that payload — received != delivered + dropped, with no
  // trace. Stall the whole engine (no consumer, queue capacity 1, slow
  // window), close it mid-admission, and reconcile the books exactly.
  constexpr std::size_t kPayloads = 64;
  auto source = std::make_unique<GatedSource>(kPayloads);
  auto* src = source.get();
  ReceiverConfig rc;
  rc.num_senders = 1;
  rc.queue_capacity = 1;
  rc.decode_threads = 2;  // in-flight window = 4
  Receiver receiver(rc, std::move(source));

  // Wait for the engine to wedge: the window, the consumer queue and the
  // ingest lane are full, and the ingest thread blocks in its push holding
  // the next payload. handed plateaus strictly below kPayloads once that
  // happens.
  std::size_t plateau = 0;
  ASSERT_TRUE([&] {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      std::size_t before = src->handed.load(std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      std::size_t after = src->handed.load(std::memory_order_relaxed);
      if (before == after && after > 0 && after < kPayloads) {
        plateau = after;
        return true;
      }
    }
    return false;
  }()) << "engine never wedged against the window";

  receiver.close();
  std::uint64_t delivered = 0;
  while (receiver.next()) ++delivered;  // whatever made it through

  // Straggler decode jobs may still be draining into the drop counter; wait
  // for the conservation equation to settle, then assert it exactly:
  // everything pulled off the wire was delivered or counted as dropped —
  // including the payload that was in the ingest thread's hand.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  ReceiverStats stats;
  do {
    stats = receiver.stats();
    if (delivered + stats.dropped_on_close == plateau) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  } while (std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(delivered + stats.dropped_on_close, plateau)
      << "delivered=" << delivered << " dropped=" << stats.dropped_on_close
      << " pulled-off-wire=" << plateau;
  EXPECT_GE(stats.dropped_on_close, 1u);
}

TEST(ReceiverParallelDecode, PooledStatsExposePipelineBalance) {
  // A pooled run over a healthy stream reports the new balance counters and
  // keeps the books consistent: decode time accumulates, the queue peak is
  // visible, nothing is dropped.
  std::vector<msgpack::WireBatch> script;
  constexpr std::uint64_t kBatches = 32;
  for (std::uint64_t i = 0; i < kBatches; ++i) {
    script.push_back(data_batch_with_payload(0, i, /*salt=*/7));
  }
  script.push_back(msgpack::BatchCodec::make_sentinel(0, 0, kBatches));
  ReceiverConfig rc;
  rc.num_senders = 1;
  rc.queue_capacity = 4;
  rc.decode_threads = 3;
  Receiver receiver(rc, std::make_unique<ScriptedSource>(std::move(script)));
  auto delivered = drain_all(receiver);
  ASSERT_EQ(delivered.size(), kBatches + 1);  // + epoch marker
  auto stats = receiver.stats();
  EXPECT_EQ(stats.batches_received, kBatches);
  EXPECT_EQ(stats.epochs_completed, 1u);
  EXPECT_GT(stats.decode_ns, 0u);
  EXPECT_GE(stats.queue_peak_depth, 1u);
  EXPECT_EQ(stats.dropped_on_close, 0u);
  EXPECT_EQ(stats.decode_errors, 0u);
}

// ------------------------------------------------------ multi-daemon setup

TEST_F(CoreIntegrationTest, TwoDaemonsOneReceiverSentinelAggregation) {
  // Split shards across two daemons pushing into one receiver (the sharded
  // storage topology): the receiver must emit exactly one epoch marker after
  // BOTH daemons finish.
  auto indexes = tfrecord::load_all_indexes(dir_.string());
  ASSERT_EQ(indexes.size(), 3u);

  PlannerConfig pc;
  pc.batch_size = 8;
  pc.epochs = 1;
  Planner planner(indexes, pc);
  auto plan = planner.plan_epoch(0, 1);

  auto ch1 = net::make_sim_channel({});
  auto ch2 = net::make_sim_channel({});

  // Native N-source fan-in: the receiver runs one ingest thread per daemon
  // channel (no hand-built mux adapter needed).
  std::vector<std::unique_ptr<net::MessageSource>> fan_in;
  fan_in.push_back(std::move(ch1.source));
  fan_in.push_back(std::move(ch2.source));
  ReceiverConfig rc;
  rc.num_senders = 2;
  rc.decode_threads = 2;  // pooled decode under multi-daemon fan-in
  Receiver receiver(rc, std::move(fan_in));

  auto sink1 = std::shared_ptr<net::MessageSink>(std::move(ch1.sink));
  auto sink2 = std::shared_ptr<net::MessageSink>(std::move(ch2.sink));

  // Daemon 1 owns shards 0,1; daemon 2 owns shard 2.
  std::vector<tfrecord::ShardReader> r1;
  r1.emplace_back(indexes[0]);
  r1.emplace_back(indexes[1]);
  std::vector<tfrecord::ShardReader> r2;
  r2.emplace_back(indexes[2]);

  std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> sinks1{{0u, sink1}};
  std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> sinks2{{0u, sink2}};
  DaemonConfig cfg1;
  cfg1.daemon_id = "d1";
  DaemonConfig cfg2;
  cfg2.daemon_id = "d2";
  Daemon d1(cfg1, std::move(r1), sinks1);
  Daemon d2(cfg2, std::move(r2), sinks2);

  std::thread t1([&] {
    d1.serve_epoch(plan);
    sink1->close();
  });
  std::thread t2([&] {
    d2.serve_epoch(plan);
    sink2->close();
  });

  std::uint64_t samples = 0;
  std::size_t markers = 0;
  while (auto batch = receiver.next()) {
    if (batch->last) {
      ++markers;
      if (markers == 1 && samples == spec_.num_samples) break;
      continue;
    }
    samples += batch->samples.size();
  }
  t1.join();
  t2.join();
  EXPECT_EQ(samples, 48u);
  EXPECT_EQ(markers, 1u);  // aggregated: one marker for two sentinels
  EXPECT_EQ(d1.stats().samples_sent + d2.stats().samples_sent, 48u);
}

// ------------------------------------------- daemon crash-path regressions

TEST_F(CoreIntegrationTest, MissingSinkSurfacesErrorStateInsteadOfCrashing) {
  // Regression: a plan node with locally-owned shards but no configured sink
  // used to throw inside the send-worker's std::thread lambda →
  // std::terminate. The daemon must validate the plan BEFORE launching
  // anything and surface the failure through its error state.
  auto indexes = tfrecord::load_all_indexes(dir_.string());
  PlannerConfig pc;
  pc.batch_size = 8;
  pc.epochs = 1;
  Planner planner(indexes, pc);
  auto plan = planner.plan_epoch(0, /*num_nodes=*/2);  // plan serves nodes 0 AND 1

  for (std::size_t pool : {std::size_t{1}, std::size_t{3}}) {
    auto ch = net::make_sim_channel({});
    auto sink0 = std::shared_ptr<net::MessageSink>(std::move(ch.sink));
    std::vector<tfrecord::ShardReader> readers;
    for (const auto& idx : indexes) readers.emplace_back(idx);
    DaemonConfig dc;
    dc.daemon_id = "pool" + std::to_string(pool);
    dc.pool_threads = pool;
    std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> sinks{{0u, sink0}};  // no node 1!
    Daemon daemon(dc, std::move(readers), sinks);
    EXPECT_TRUE(daemon.ok());
    EXPECT_FALSE(daemon.serve_epoch(plan)) << dc.daemon_id;
    EXPECT_FALSE(daemon.ok());
    EXPECT_NE(daemon.last_error().find("no sink for node 1"), std::string::npos)
        << daemon.last_error();
    EXPECT_GE(daemon.stats().errors, 1u);
    // Validation precedes launch: nothing was sent, no thread crashed.
    EXPECT_EQ(daemon.stats().batches_sent, 0u);
  }
}

TEST_F(CoreIntegrationTest, SinkThrowingFromSendFailsTheEpochNotTheProcess) {
  // Regression: a sink exception in the sender thread — here an shm batch
  // larger than slab_bytes — escaped Daemon::sender_loop and aborted the
  // process. It must fail the lane and surface through the error state.
  auto indexes = tfrecord::load_all_indexes(dir_.string());
  PlannerConfig pc;
  pc.batch_size = 8;  // 8 samples of ~900 B: every batch exceeds one 4 KiB slab
  pc.epochs = 1;
  Planner planner(indexes, pc);
  net::ShmOptions so;
  so.slab_bytes = 4096;
  so.slab_count = 4;
  auto sink = std::make_shared<net::ShmMessageSink>(
      "emlio.test.core." + std::to_string(::getpid()), so);
  std::vector<tfrecord::ShardReader> readers;
  for (const auto& idx : indexes) readers.emplace_back(idx);
  Daemon daemon(DaemonConfig{}, std::move(readers), {{0u, sink}});
  EXPECT_FALSE(daemon.serve_epoch(planner.plan_epoch(0, /*num_nodes=*/1)));
  EXPECT_FALSE(daemon.ok());
  EXPECT_NE(daemon.last_error().find("slab_bytes"), std::string::npos) << daemon.last_error();
  EXPECT_GE(daemon.stats().errors, 1u);
  EXPECT_EQ(daemon.stats().batches_sent, 0u);

  // No slab leaks on the failed lane: once its sentinel is drained, the
  // same sink lends every slab again.
  net::ShmMessageSource source(sink->segment_name());
  auto sentinel = source.recv();
  ASSERT_TRUE(sentinel.has_value());
  EXPECT_TRUE(msgpack::BatchCodec::decode(*sentinel).last);
  sentinel.reset();
  std::vector<net::MessageSink::Slot> slots;
  while (auto slot = sink->try_reserve()) slots.push_back(std::move(slot));
  EXPECT_EQ(slots.size(), so.slab_count);
}

/// Appends a delivered batch to `stream` in the byte-identity tests' form:
/// epoch, batch id, marker flag, then each sample's index, label, size and
/// bytes.
void append_batch(std::vector<std::uint8_t>& stream, const msgpack::WireBatch& batch) {
  auto put_u64 = [&stream](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) stream.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  };
  put_u64(batch.epoch);
  put_u64(batch.batch_id);
  put_u64(batch.last ? 1 : 0);
  for (const auto& s : batch.samples) {
    put_u64(s.index);
    put_u64(static_cast<std::uint64_t>(s.label));
    put_u64(s.bytes.size());
    stream.insert(stream.end(), s.bytes.data(), s.bytes.data() + s.bytes.size());
  }
}

TEST_F(CoreIntegrationTest, SlabStarvedShmStreamIsByteIdenticalToInProcess) {
  // One or two slabs under a window of 16: nearly every admission waits for
  // a slot, and the sender parks for one whenever its lane has nothing
  // admitted. The decoded stream must still be the in-process one, byte
  // for byte, over three epochs; a lost wake-up hangs, and trips the
  // watchdog.
  emlio::testing::Watchdog watchdog(std::chrono::seconds(60), "slab-starved shm epochs");
  constexpr std::uint32_t kEpochs = 3;
  auto cfg = base_config();
  cfg.epochs = kEpochs;
  cfg.pipeline_pool_threads = 2;
  std::vector<std::uint8_t> want;
  {
    EmlioService service(cfg);
    service.start();
    while (auto batch = service.next_batch()) append_batch(want, *batch);
    service.stop();
  }
  ASSERT_GT(want.size(), kEpochs * 48u * 900u);

  auto indexes = tfrecord::load_all_indexes(dir_.string());
  PlannerConfig pc;  // the service's plan
  pc.batch_size = cfg.batch_size;
  pc.epochs = kEpochs;
  pc.threads_per_node = cfg.threads_per_node;
  pc.seed = cfg.seed;
  pc.shuffle = cfg.shuffle;
  Planner planner(indexes, pc);
  for (std::size_t slabs : {1u, 2u}) {
    const std::string name = "emlio.test.starved." + std::to_string(::getpid()) + "." +
                             std::to_string(slabs);
    net::ShmOptions so;
    so.slab_bytes = 64u << 10;
    so.slab_count = slabs;
    auto sink = std::make_shared<net::ShmMessageSink>(name, so);
    ReceiverConfig rc;
    rc.num_senders = 1;
    rc.decode_threads = 2;
    Receiver receiver(rc, std::make_unique<net::ShmMessageSource>(name));
    std::vector<tfrecord::ShardReader> readers;
    for (const auto& idx : indexes) readers.emplace_back(idx);
    DaemonConfig dc;
    dc.pool_threads = 2;
    dc.prefetch_depth = 16;
    Daemon daemon(dc, std::move(readers), {{0u, sink}});
    std::thread serve([&] {
      EXPECT_TRUE(daemon.serve(planner, /*num_nodes=*/1)) << daemon.last_error();
      sink->close();
    });
    std::vector<std::uint8_t> got;
    for (std::uint32_t markers = 0; markers < kEpochs;) {
      auto batch = receiver.next();
      if (!batch) break;
      append_batch(got, *batch);
      markers += batch->last ? 1 : 0;
    }
    receiver.close();
    serve.join();
    EXPECT_EQ(got, want) << slabs << " slab(s)";
    const auto stats = daemon.stats();
    EXPECT_GE(stats.enqueue_stalls, 1u) << "slot waits count as enqueue stalls";
    EXPECT_EQ(stats.wire_syscalls, 0u);
  }
}

TEST_F(CoreIntegrationTest, LendingAndCopyingLanesShareOneDaemon) {
  // One daemon, both kinds of lane: node 0's sink lends (shm, one slab
  // under a window of 16, so its sender keeps parking for a slot) and node
  // 1's sink copies (a sim link). Neither lane may hold the other back or
  // change its bytes: each node's decoded stream must be the one it gets
  // when both nodes run on sim links. A lost wake-up hangs, and trips the
  // watchdog.
  emlio::testing::Watchdog watchdog(std::chrono::seconds(60), "shm and sim lanes in one daemon");
  constexpr std::uint32_t kEpochs = 2;
  auto indexes = tfrecord::load_all_indexes(dir_.string());
  PlannerConfig pc;
  pc.batch_size = 2;
  pc.epochs = kEpochs;
  Planner planner(indexes, pc);

  struct Run {
    std::array<std::vector<std::uint8_t>, 2> streams;
    DaemonStats stats;
  };
  // Node 0 over shm when `lend`, over a sim link otherwise; node 1 always
  // over a sim link.
  auto run = [&](bool lend) {
    std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> sinks;
    std::array<std::unique_ptr<Receiver>, 2> receivers;
    ReceiverConfig rc;
    rc.num_senders = 1;
    rc.decode_threads = 2;
    for (std::uint32_t node : {0u, 1u}) {
      std::unique_ptr<net::MessageSource> source;
      if (node == 0 && lend) {
        const std::string name = "emlio.test.mixed." + std::to_string(::getpid());
        net::ShmOptions so;
        so.slab_bytes = 64u << 10;
        so.slab_count = 1;
        sinks[node] = std::make_shared<net::ShmMessageSink>(name, so);
        source = std::make_unique<net::ShmMessageSource>(name);
      } else {
        auto ch = net::make_sim_channel({});
        sinks[node] = std::move(ch.sink);
        source = std::move(ch.source);
      }
      receivers[node] = std::make_unique<Receiver>(rc, std::move(source));
    }
    std::vector<tfrecord::ShardReader> readers;
    for (const auto& idx : indexes) readers.emplace_back(idx);
    DaemonConfig dc;
    dc.pool_threads = 2;
    dc.prefetch_depth = 16;
    Daemon daemon(dc, std::move(readers), sinks);

    Run r;
    std::vector<std::thread> drains;
    for (std::size_t node = 0; node < 2; ++node) {
      drains.emplace_back([&r, &receivers, node] {
        for (std::uint32_t markers = 0; markers < kEpochs;) {
          auto batch = receivers[node]->next();
          if (!batch) break;
          append_batch(r.streams[node], *batch);
          markers += batch->last ? 1 : 0;
        }
      });
    }
    for (std::uint32_t e = 0; e < kEpochs; ++e) {
      EXPECT_TRUE(daemon.serve_epoch(planner.plan_epoch(e, /*num_nodes=*/2)))
          << daemon.last_error();
    }
    for (auto& [node, sink] : sinks) sink->close();
    for (auto& t : drains) t.join();
    for (auto& receiver : receivers) receiver->close();
    r.stats = daemon.stats();
    return r;
  };

  const Run want = run(/*lend=*/false);
  ASSERT_FALSE(want.streams[0].empty());
  ASSERT_FALSE(want.streams[1].empty());
  const Run got = run(/*lend=*/true);
  EXPECT_EQ(got.streams[0], want.streams[0]) << "node 0, the lending (shm) lane";
  EXPECT_EQ(got.streams[1], want.streams[1]) << "node 1, the copying (sim) lane";
  ASSERT_EQ(got.stats.lanes.size(), 2u);
  EXPECT_GE(got.stats.lanes[0].enqueue_stalls, 1u) << "node 0's admissions waited for its slab";
  EXPECT_EQ(got.stats.batches_sent, want.stats.batches_sent);
}

TEST_F(CoreIntegrationTest, ServiceStopReturnsWhileTheConsumerPinsEverySlab) {
  // The consumer holds a batch in every slab, so the daemon's sender parks
  // for a slot. stop() closes the receiver, which must wake it at once.
  emlio::testing::Watchdog watchdog(std::chrono::seconds(30), "EmlioService::stop over shm");
  auto cfg = base_config();
  cfg.transport = Transport::kShm;
  cfg.high_water_mark = 4;  // four slabs
  cfg.epochs = 2;
  EmlioService service(cfg);
  service.start();
  std::vector<msgpack::WireBatch> pinned;
  while (pinned.size() < cfg.high_water_mark) {
    auto batch = service.next_batch();
    ASSERT_TRUE(batch.has_value());
    if (!batch->last) pinned.push_back(std::move(*batch));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // the sender parks
  const auto t0 = std::chrono::steady_clock::now();
  service.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
}

/// Keeps every message exactly as the daemon handed it over — spliced
/// pieces not flattened — so a test can read them after the daemon is gone.
struct CapturingSink final : net::MessageSink {
  bool send(Payload message) override { return send_spliced(std::move(message)); }
  bool send_spliced(SplicedPayload message) override {
    std::lock_guard<std::mutex> lock(mu);
    messages.push_back(std::move(message));
    return true;
  }
  bool gathers() const override { return true; }
  void close() override {}
  std::mutex mu;
  std::vector<SplicedPayload> messages;
};

TEST_F(CoreIntegrationTest, SplicedBatchesOutliveTheirReaderAndDaemon) {
  // The daemon splices large records into its messages by reference, and a
  // queued message may outlive the encode job, the ShardReader and the
  // Daemon itself. The views must keep the shard mapping alive: on a build
  // whose views borrow the mapping, reading them below touches unmapped
  // memory (SEGV, or an ASan report).
  const fs::path big = dir_ / "big";
  fs::create_directories(big);
  auto spec = workload::presets::tiny(12, 2 * msgpack::BatchCodec::kSpliceMinBytes);
  spec.size_jitter = 0.0;
  workload::materialize_tfrecord(spec, big.string(), 2);
  auto indexes = tfrecord::load_all_indexes(big.string());

  // Expected bytes per sample, read (and the reader dropped) up front so no
  // later mapping can land where the daemon's was.
  std::map<std::uint64_t, std::vector<std::uint8_t>> expected;
  for (const auto& idx : indexes) {
    tfrecord::ShardReader reader(idx);
    for (std::size_t i = 0; i < reader.num_records(); ++i) {
      expected[idx.records[i].sample_index] = reader.record(i).to_vector();
    }
  }

  PlannerConfig pc;
  pc.batch_size = 4;
  pc.epochs = 1;
  Planner planner(indexes, pc);
  auto sink = std::make_shared<CapturingSink>();
  {
    std::vector<tfrecord::ShardReader> readers;
    for (const auto& idx : indexes) readers.emplace_back(idx);
    Daemon daemon(DaemonConfig{}, std::move(readers), {{0u, sink}});
    ASSERT_TRUE(daemon.serve_epoch(planner.plan_epoch(0, /*num_nodes=*/1))) << daemon.last_error();
  }  // readers and daemon destroyed: only the captured messages remain

  auto pool = BufferPool::create();
  std::size_t spliced = 0;
  std::size_t samples = 0;
  for (auto& message : sink->messages) {
    spliced += message.splices().size();
    auto batch = msgpack::BatchCodec::decode(std::move(message).flatten(*pool));
    for (const auto& s : batch.samples) {
      ++samples;
      EXPECT_EQ(s.bytes.to_vector(), expected.at(s.index)) << "sample " << s.index;
    }
  }
  EXPECT_EQ(samples, 12u);
  EXPECT_EQ(spliced, 12u);  // every record crossed by reference
}

TEST_F(CoreIntegrationTest, BackpressuredSinkDoesNotStarveOtherLanes) {
  // Per-sink isolation: one clogged destination (tiny link HWM, consumer
  // parked) must not park the shared encode pool — the other node's data
  // keeps flowing. The old blocking flush dead-ends here: pool threads pile
  // up on the clogged lane's full queue and every lane starves.
  auto indexes = tfrecord::load_all_indexes(dir_.string());
  PlannerConfig pc;
  pc.batch_size = 4;
  pc.epochs = 1;
  Planner planner(indexes, pc);
  auto plan = planner.plan_epoch(0, /*num_nodes=*/2);

  net::SimLinkConfig clogged;
  clogged.high_water_mark = 1;
  auto ch0 = net::make_sim_channel(clogged);  // node 0: clogged destination
  auto ch1 = net::make_sim_channel({});       // node 1: healthy destination
  auto sink0 = std::shared_ptr<net::MessageSink>(std::move(ch0.sink));
  auto sink1 = std::shared_ptr<net::MessageSink>(std::move(ch1.sink));

  ReceiverConfig rc;
  rc.num_senders = 1;
  Receiver r0(rc, std::move(ch0.source));
  Receiver r1(rc, std::move(ch1.source));

  std::vector<tfrecord::ShardReader> readers;
  for (const auto& idx : indexes) readers.emplace_back(idx);
  DaemonConfig dc;
  dc.pool_threads = 2;
  dc.prefetch_depth = 2;
  std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> sinks{{0u, sink0}, {1u, sink1}};
  Daemon daemon(dc, std::move(readers), sinks);

  std::thread serve([&] {
    EXPECT_TRUE(daemon.serve_epoch(plan));
    sink0->close();
    sink1->close();
  });

  // Node 1's FULL data set must arrive while node 0's consumer is parked.
  // (Node 1's marker may arrive with it: each sink's sentinel leaves once
  // its own lane has sent its batches.)
  std::uint64_t want1 = 0;
  for (const auto& node : plan.nodes) {
    if (node.node_id == 1) want1 = node.total_samples();
  }
  ASSERT_GT(want1, 0u);
  std::uint64_t got1 = 0;
  while (got1 < want1) {
    auto batch = r1.next();
    ASSERT_TRUE(batch.has_value());
    ASSERT_FALSE(batch->last);
    got1 += batch->samples.size();
  }
  EXPECT_EQ(got1, want1);

  // Unpark node 0 and drain both epochs to their markers.
  std::uint64_t got0 = 0;
  while (auto batch = r0.next()) {
    if (batch->last) break;
    got0 += batch->samples.size();
  }
  while (auto batch = r1.next()) {
    if (batch->last) break;
  }
  serve.join();
  EXPECT_EQ(got0 + got1, spec_.num_samples);
  EXPECT_TRUE(daemon.ok());
}

// ---------------------------------- multi-daemon × multi-receiver topologies

/// Drives a full 2-daemon × 2-receiver cluster epoch through the pipelined
/// engine and checks per-node delivery against the plan. `full_dataset` picks
/// scenario C2 (§5.2: every node consumes the whole dataset) over the default
/// sharded partitioning (C1). `decode_threads` is the receivers' decode pool
/// width (0 = auto).
class MultiDaemonMultiReceiver : public CoreIntegrationTest {
 protected:
  void run_cluster(bool full_dataset, std::uint32_t epochs, std::size_t decode_threads) {
    auto indexes = tfrecord::load_all_indexes(dir_.string());
    ASSERT_EQ(indexes.size(), 3u);

    PlannerConfig pc;
    pc.batch_size = 8;
    pc.epochs = epochs;
    pc.threads_per_node = 2;
    pc.full_dataset_per_node = full_dataset;
    Planner planner(indexes, pc);

    // Channels daemon d → node n; each receiver fans in both daemons.
    std::shared_ptr<net::MessageSink> sinks[2][2];
    std::unique_ptr<net::MessageSource> sources[2][2];
    for (int d = 0; d < 2; ++d) {
      for (int n = 0; n < 2; ++n) {
        auto ch = net::make_sim_channel({});
        sinks[d][n] = std::shared_ptr<net::MessageSink>(std::move(ch.sink));
        sources[d][n] = std::move(ch.source);
      }
    }
    ReceiverConfig rc;
    rc.num_senders = 2;
    rc.decode_threads = decode_threads;
    std::vector<std::unique_ptr<Receiver>> receivers;
    for (int n = 0; n < 2; ++n) {
      // Native fan-in: one ingest thread per daemon source.
      std::vector<std::unique_ptr<net::MessageSource>> ins;
      ins.push_back(std::move(sources[0][n]));
      ins.push_back(std::move(sources[1][n]));
      receivers.push_back(std::make_unique<Receiver>(rc, std::move(ins)));
    }

    // Daemon 0 owns shards {0,1}; daemon 1 owns {2}. Both push to both nodes.
    DaemonConfig dc;
    dc.pool_threads = 3;
    dc.prefetch_depth = 4;  // small queue: exercises enqueue backpressure
    std::vector<std::unique_ptr<Daemon>> daemons;
    for (int d = 0; d < 2; ++d) {
      std::vector<tfrecord::ShardReader> readers;
      if (d == 0) {
        readers.emplace_back(indexes[0]);
        readers.emplace_back(indexes[1]);
      } else {
        readers.emplace_back(indexes[2]);
      }
      dc.daemon_id = "d" + std::to_string(d);
      std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> dsinks{{0u, sinks[d][0]},
                                                                        {1u, sinks[d][1]}};
      daemons.push_back(std::make_unique<Daemon>(dc, std::move(readers), dsinks));
    }

    std::thread serve0([&] {
      EXPECT_TRUE(daemons[0]->serve(planner, 2));
      sinks[0][0]->close();
      sinks[0][1]->close();
    });
    std::thread serve1([&] {
      EXPECT_TRUE(daemons[1]->serve(planner, 2));
      sinks[1][0]->close();
      sinks[1][1]->close();
    });

    // Expected per-node sample-index sets, straight from the plan.
    auto sample_index_of = [&](std::uint32_t shard, std::uint64_t record) {
      for (const auto& idx : indexes) {
        if (idx.shard_id == shard) return idx.records[record].sample_index;
      }
      throw std::logic_error("unknown shard in plan");
    };

    for (std::uint32_t e = 0; e < epochs; ++e) {
      auto plan = planner.plan_epoch(e, 2);
      for (int n = 0; n < 2; ++n) {
        std::multiset<std::uint64_t> want;
        for (const auto& worker : plan.nodes[n].workers) {
          for (const auto& b : worker.batches) {
            for (std::uint32_t i = 0; i < b.count; ++i) {
              want.insert(sample_index_of(b.shard_id, b.first_record + i));
            }
          }
        }
        std::multiset<std::uint64_t> got;
        std::size_t markers = 0;
        while (auto batch = receivers[n]->next()) {
          if (batch->last) {
            ++markers;
            break;  // exactly one aggregated marker ends the epoch
          }
          for (const auto& s : batch->samples) got.insert(s.index);
        }
        EXPECT_EQ(markers, 1u) << "node " << n << " epoch " << e;
        EXPECT_EQ(got, want) << "node " << n << " epoch " << e;
        if (full_dataset) {
          EXPECT_EQ(got.size(), spec_.num_samples) << "C2: full dataset per node";
        }
      }
    }
    serve0.join();
    serve1.join();

    // Aggregated epoch markers consumed: one per (node, epoch), built from
    // two sentinels each (num_senders=2).
    for (int n = 0; n < 2; ++n) {
      EXPECT_EQ(receivers[n]->stats().epochs_completed, epochs) << "node " << n;
    }
    std::uint64_t sent =
        daemons[0]->stats().samples_sent + daemons[1]->stats().samples_sent;
    std::uint64_t per_epoch = full_dataset ? 2 * spec_.num_samples : spec_.num_samples;
    EXPECT_EQ(sent, per_epoch * epochs);
    EXPECT_TRUE(daemons[0]->ok() && daemons[1]->ok());
  }
};

TEST_F(MultiDaemonMultiReceiver, ShardedPartitionedC1) {
  // Scenario C1: shards partitioned across the two compute nodes — the
  // union of the nodes' sample sets is the dataset, disjointly. Pooled
  // receiver decode under the 2-daemon fan-in.
  run_cluster(/*full_dataset=*/false, /*epochs=*/2, /*decode_threads=*/2);
}

TEST_F(MultiDaemonMultiReceiver, FullDatasetPerNodeC2) {
  // Scenario C2 (§5.2): every node consumes the full dataset; both daemons
  // serve both nodes their locally-owned half. Receivers at the auto width.
  run_cluster(/*full_dataset=*/true, /*epochs=*/2, /*decode_threads=*/0);
}

TEST_F(MultiDaemonMultiReceiver, FullDatasetPerNodeC2PooledDecode) {
  // C2 again with a 3-wide decode pool: byte traffic doubles per node (the
  // paper's heavy fan-in case), exactly where decode fan-out matters.
  run_cluster(/*full_dataset=*/true, /*epochs=*/2, /*decode_threads=*/3);
}

// --------------------------------------------- end-to-end property sweep

/// Property: for ANY combination of shard count, batch size, daemon
/// threads, stream count and transport, one epoch through the full stack
/// delivers every sample exactly once with intact payloads.
struct E2eParams {
  std::uint32_t shards;
  std::size_t batch;
  std::uint32_t threads;
  std::size_t streams;
  Transport transport;
  std::size_t pool_threads = 0;    ///< daemon encode pool width, 0 = auto
  std::size_t decode_threads = 0;  ///< receiver decode pool width, 0 = auto
};

class EndToEndSweep : public ::testing::TestWithParam<E2eParams> {};

TEST_P(EndToEndSweep, EpochAlwaysCleanAcrossConfigs) {
  const auto& p = GetParam();
  namespace fs = std::filesystem;
  auto dir = fs::temp_directory_path() /
             ("emlio_e2e_" + std::to_string(::getpid()) + "_" + std::to_string(p.shards) + "_" +
              std::to_string(p.batch) + "_" + std::to_string(p.threads) + "_" +
              std::to_string(p.streams) + "_" + std::to_string(static_cast<int>(p.transport)));
  fs::remove_all(dir);
  auto spec = workload::presets::tiny(53, 700);  // prime count: ragged batches
  workload::materialize_tfrecord(spec, dir.string(), p.shards);

  ServiceConfig cfg;
  cfg.dataset_dir = dir.string();
  cfg.batch_size = p.batch;
  cfg.threads_per_node = p.threads;
  cfg.num_streams = p.streams;
  cfg.transport = p.transport;
  cfg.pipeline_pool_threads = p.pool_threads;
  cfg.decode_threads = p.decode_threads;
  EmlioService service(cfg);
  service.start();

  train::TrainerOptions topt;
  topt.expected_samples_per_epoch = spec.num_samples;
  train::Trainer trainer(topt);
  trainer.start_epoch(0);
  while (auto batch = service.next_batch()) {
    if (batch->last) break;
    trainer.train_step(*batch);
  }
  auto result = trainer.end_epoch();
  EXPECT_TRUE(result.clean(spec.num_samples))
      << "shards=" << p.shards << " B=" << p.batch << " T=" << p.threads
      << " streams=" << p.streams << " dups=" << result.duplicate_samples
      << " corrupt=" << result.corrupt_samples << " samples=" << result.samples;
  service.stop();
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EndToEndSweep,
    ::testing::Values(E2eParams{1, 1, 1, 1, Transport::kInProcess},
                      E2eParams{2, 7, 1, 1, Transport::kInProcess},
                      E2eParams{3, 8, 2, 1, Transport::kInProcess},
                      E2eParams{5, 16, 4, 1, Transport::kInProcess},
                      E2eParams{1, 53, 2, 1, Transport::kInProcess},
                      E2eParams{4, 100, 3, 1, Transport::kInProcess},
                      E2eParams{2, 8, 2, 2, Transport::kTcp},
                      E2eParams{3, 5, 3, 4, Transport::kTcp},
                      E2eParams{5, 16, 1, 3, Transport::kTcp},
                      E2eParams{1, 9, 4, 2, Transport::kTcp},
                      // Width 1 on both pools (the degenerate pipeline):
                      E2eParams{3, 8, 2, 1, Transport::kInProcess, /*pool=*/1, /*decode=*/1},
                      E2eParams{4, 7, 3, 2, Transport::kTcp, /*pool=*/1, /*decode=*/1},
                      // Explicit decode widths over both transports:
                      E2eParams{3, 8, 2, 1, Transport::kInProcess, 0, /*decode=*/4},
                      E2eParams{4, 7, 2, 3, Transport::kTcp, 0, /*decode=*/2},
                      // ...and a wide decode pool behind a width-1 daemon:
                      E2eParams{2, 9, 2, 1, Transport::kInProcess, /*pool=*/1, /*decode=*/3},
                      // Auto daemon width beside a narrow decode pool:
                      E2eParams{3, 8, 2, 1, Transport::kInProcess, 0, /*decode=*/2},
                      E2eParams{4, 7, 2, 2, Transport::kTcp, 0, /*decode=*/1},
                      // Shared-memory lane: auto widths, width 1 and
                      // explicit decode widths — identical guarantees
                      // expected.
                      E2eParams{2, 8, 2, 1, Transport::kShm},
                      E2eParams{3, 5, 3, 1, Transport::kShm},
                      E2eParams{4, 7, 3, 1, Transport::kShm, /*pool=*/1, /*decode=*/1},
                      E2eParams{4, 7, 2, 1, Transport::kShm, 0, /*decode=*/2},
                      E2eParams{3, 8, 2, 1, Transport::kShm, 0, /*decode=*/2}));

}  // namespace
}  // namespace emlio::core
