// Tests for the per-batch stage tracing subsystem (src/obs): histogram
// bucket math and quantiles, the BatchTrace exact-sum invariant, the
// slow-batch TraceRing, the optional "t0" wire key, the bounded
// TimestampLogger, and an end-to-end traced service run.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/timestamp_logger.h"
#include "core/service.h"
#include "msgpack/batch_codec.h"
#include "obs/latency_histogram.h"
#include "obs/trace.h"
#include "workload/materialize.h"

namespace emlio::obs {
namespace {

// ---------------------------------------------------- histogram buckets

TEST(LatencyHistogramBuckets, LinearRegionIsExact) {
  for (std::uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LatencyHistogram::bucket_index(v), v);
    EXPECT_EQ(LatencyHistogram::bucket_floor(v), v);
    EXPECT_EQ(LatencyHistogram::bucket_mid(v), v);
  }
}

TEST(LatencyHistogramBuckets, IndexIsMonotoneAcrossOctaves) {
  std::size_t prev = 0;
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{31},
                          std::uint64_t{32}, std::uint64_t{33}, std::uint64_t{63},
                          std::uint64_t{64}, std::uint64_t{100}, std::uint64_t{1000},
                          std::uint64_t{1} << 20, (std::uint64_t{1} << 20) + 1,
                          std::uint64_t{1} << 40, UINT64_MAX / 2,
                          std::uint64_t{UINT64_MAX}}) {
    std::size_t idx = LatencyHistogram::bucket_index(v);
    EXPECT_GE(idx, prev) << "value " << v;
    EXPECT_LT(idx, LatencyHistogram::kBucketCount) << "value " << v;
    prev = idx;
  }
}

TEST(LatencyHistogramBuckets, FloorRoundTripsToSameIndex) {
  // Every value must land in a bucket whose floor maps back to the same
  // index, and must lie in [floor(i), floor(i+1)).
  for (std::uint64_t v : {0ull, 5ull, 31ull, 32ull, 47ull, 63ull, 64ull, 65ull,
                          999ull, 4096ull, 123456789ull, 1ull << 50}) {
    std::size_t idx = LatencyHistogram::bucket_index(v);
    EXPECT_EQ(LatencyHistogram::bucket_index(LatencyHistogram::bucket_floor(idx)), idx)
        << "value " << v;
    EXPECT_GE(v, LatencyHistogram::bucket_floor(idx)) << "value " << v;
    if (idx + 1 < LatencyHistogram::kBucketCount) {
      EXPECT_LT(v, LatencyHistogram::bucket_floor(idx + 1)) << "value " << v;
    }
  }
}

TEST(LatencyHistogramBuckets, RelativeErrorBounded) {
  // The bucket midpoint must be within 1/32 of any value in the bucket.
  for (std::uint64_t v : {100ull, 1000ull, 54321ull, 1'000'000ull, 1ull << 33}) {
    std::size_t idx = LatencyHistogram::bucket_index(v);
    double mid = static_cast<double>(LatencyHistogram::bucket_mid(idx));
    double rel = std::abs(mid - static_cast<double>(v)) / static_cast<double>(v);
    EXPECT_LE(rel, 1.0 / 32.0) << "value " << v;
  }
}

// -------------------------------------------------- histogram quantiles

TEST(LatencyHistogram, EmptyHistogramIsAllZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.snapshot().mean(), 0.0);
}

TEST(LatencyHistogram, SingleSampleAnswersEveryQuantileExactly) {
  LatencyHistogram h;
  h.record(123457);  // mid-bucket value: the [min,max] clamp makes it exact
  for (double p : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile(p), 123457.0) << "p=" << p;
  }
  EXPECT_EQ(h.min(), 123457u);
  EXPECT_EQ(h.max(), 123457u);
  EXPECT_EQ(h.count(), 1u);
}

TEST(LatencyHistogram, NegativeValuesClampToZero) {
  LatencyHistogram h;
  h.record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(LatencyHistogram, QuantilesOfUniformRampAreAccurate) {
  LatencyHistogram h;
  for (std::int64_t v = 1; v <= 10000; ++v) h.record(v);
  auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 10000u);
  // Log-bucketed: 1/32 relative error bound (+1 bucket of slack at the edge).
  EXPECT_NEAR(snap.quantile(0.5), 5000.0, 5000.0 / 16.0);
  EXPECT_NEAR(snap.quantile(0.95), 9500.0, 9500.0 / 16.0);
  EXPECT_NEAR(snap.quantile(0.99), 9900.0, 9900.0 / 16.0);
  EXPECT_EQ(snap.quantile(0.0), 1.0);      // p<=0 => min
  EXPECT_EQ(snap.quantile(1.0), 10000.0);  // p>=1 => max
}

TEST(LatencyHistogram, MergeFoldsCounters) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.record(100);
  a.record(200);
  b.record(40);
  b.record(90000);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 100u + 200u + 40u + 90000u);
  EXPECT_EQ(a.min(), 40u);
  EXPECT_EQ(a.max(), 90000u);
}

TEST(LatencyHistogram, SnapshotDeltaIsolatesWindow) {
  LatencyHistogram h;
  h.record(10);
  h.record(20);
  auto before = h.snapshot();
  h.record(30);
  h.record(40);
  auto window = h.snapshot().delta(before);
  EXPECT_EQ(window.count, 2u);
  EXPECT_EQ(window.sum, 70u);
}

TEST(LatencyHistogram, ConcurrentRecordingLosesNothing) {
  // Exercised under TSan in CI: record() must be data-race-free.
  LatencyHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.record(t * 1000 + i);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 3000u + kPerThread - 1);
}

/// The key set of a JSON object.
std::set<std::string> keys_of(const json::Value& v) {
  std::set<std::string> out;
  for (const auto& [key, child] : v.as_object()) out.insert(key);
  return out;
}

TEST(LatencyHistogram, ToJsonCarriesQuantileKeys) {
  LatencyHistogram h;
  h.record(1000);
  const auto snap = h.snapshot();
  // Binds every field: a new Snapshot field breaks this build until its
  // JSON key (or its absence, like the raw buckets') is decided here.
  [[maybe_unused]] const auto& [buckets, count, sum, max, min] = snap;
  auto j = to_json(snap);
  const auto& o = j.as_object();
  EXPECT_EQ(keys_of(j), (std::set<std::string>{"count", "sum_ns", "mean_ns", "min_ns", "max_ns",
                                                "p50", "p95", "p99"}));
  EXPECT_EQ(o.at("count").as_int(), 1);
  EXPECT_EQ(o.at("p50").as_double(), 1000.0);
  EXPECT_EQ(o.at("p99").as_double(), 1000.0);
  EXPECT_EQ(o.at("max_ns").as_int(), 1000);
  EXPECT_EQ(o.at("min_ns").as_int(), 1000);
}

// ------------------------------------------------------------ BatchTrace

TEST(BatchTrace, StageDeltasSumToTotalExactly) {
  BatchTrace t;
  t.begin(1000);
  t.note(Stage::kRead, 1400);
  t.note(Stage::kEncode, 1401);
  t.note(Stage::kLaneWait, 2000);
  t.note(Stage::kWire, 5555);
  std::int64_t sum = 0;
  for (auto ns : t.stage_ns) sum += ns;
  EXPECT_EQ(sum, t.total_ns);
  EXPECT_EQ(t.total_ns, 5555 - 1000);
}

TEST(BatchTrace, NonMonotoneStampIsClamped) {
  BatchTrace t;
  t.begin(1000);
  t.note(Stage::kRead, 900);  // clock went "backwards" across threads
  EXPECT_EQ(t.stage_ns[0], 0);
  EXPECT_EQ(t.total_ns, 0);
  t.note(Stage::kEncode, 1200);
  EXPECT_EQ(t.total_ns, 200);
}

TEST(BatchTrace, PrependGraftsWireOrigin) {
  BatchTrace t;
  t.begin(5000);
  t.note(Stage::kDecode, 6000);
  t.prepend(Stage::kWire, 2000);
  EXPECT_EQ(t.stage_ns[static_cast<std::size_t>(Stage::kWire)], 3000);
  EXPECT_EQ(t.start_ns, 2000);
  EXPECT_EQ(t.total_ns, 4000);
  std::int64_t sum = 0;
  for (auto ns : t.stage_ns) sum += ns;
  EXPECT_EQ(sum, t.total_ns);  // the invariant survives grafting
}

TEST(BatchTrace, PrependIgnoresBogusOrigins) {
  BatchTrace t;
  t.begin(5000);
  t.note(Stage::kDecode, 6000);
  t.prepend(Stage::kWire, 0);     // absent stamp
  t.prepend(Stage::kWire, 7000);  // future stamp (cross-host clock)
  EXPECT_EQ(t.start_ns, 5000);
  EXPECT_EQ(t.total_ns, 1000);
  BatchTrace inactive;
  inactive.prepend(Stage::kWire, 100);  // never begun
  EXPECT_FALSE(inactive.active());
}

TEST(StageTimer, NullTraceIsNoOp) {
  StageTimer timer(nullptr, Stage::kRead);  // must not crash or stamp
}

TEST(StageTimer, BeginsTraceAndAttributesElapsed) {
  BatchTrace t;
  {
    StageTimer timer(&t, Stage::kEncode);
    EXPECT_TRUE(t.active());
  }
  EXPECT_GE(t.stage_ns[static_cast<std::size_t>(Stage::kEncode)], 0);
  std::int64_t sum = 0;
  for (auto ns : t.stage_ns) sum += ns;
  EXPECT_EQ(sum, t.total_ns);
}

// ------------------------------------------------------------- TraceRing

BatchTrace trace_with_total(std::uint64_t id, std::int64_t total) {
  BatchTrace t;
  t.batch_id = id;
  t.begin(1);
  t.note(Stage::kWire, 1 + total);
  return t;
}

TEST(TraceRing, KeepsKSlowestInOrder) {
  TraceRing ring(3);
  for (std::int64_t total : {50, 10, 99, 30, 70, 5}) {
    ring.offer(trace_with_total(static_cast<std::uint64_t>(total), total));
  }
  auto slowest = ring.slowest();
  ASSERT_EQ(slowest.size(), 3u);
  EXPECT_EQ(slowest[0].total_ns, 99);
  EXPECT_EQ(slowest[1].total_ns, 70);
  EXPECT_EQ(slowest[2].total_ns, 50);
}

TEST(TraceRing, EvictsFastestWhenFull) {
  TraceRing ring(2);
  ring.offer(trace_with_total(1, 100));
  ring.offer(trace_with_total(2, 200));
  ring.offer(trace_with_total(3, 150));  // evicts 100
  ring.offer(trace_with_total(4, 50));   // rejected by the floor
  auto slowest = ring.slowest();
  ASSERT_EQ(slowest.size(), 2u);
  EXPECT_EQ(slowest[0].total_ns, 200);
  EXPECT_EQ(slowest[1].total_ns, 150);
}

TEST(TraceRing, CapacityZeroKeepsNothing) {
  TraceRing ring(0);
  ring.offer(trace_with_total(1, 100));
  EXPECT_TRUE(ring.slowest().empty());
}

// --------------------------------------------------------------- Tracer

TEST(Tracer, CompleteFoldsStagesAndRing) {
  Tracer tracer(TracerConfig{true, 4});
  for (int i = 1; i <= 8; ++i) {
    BatchTrace t;
    t.batch_id = static_cast<std::uint64_t>(i);
    t.begin(10);  // 0 would mean "never begun"
    t.note(Stage::kRead, 10 + i * 100);
    t.note(Stage::kEncode, 10 + i * 100 + 50);
    tracer.complete(t);
  }
  EXPECT_EQ(tracer.e2e_histogram().count(), 8u);
  EXPECT_EQ(tracer.stage_histogram(Stage::kRead).count(), 8u);
  EXPECT_EQ(tracer.stage_histogram(Stage::kWire).count(), 0u);
  auto slowest = tracer.slowest();
  ASSERT_EQ(slowest.size(), 4u);
  EXPECT_EQ(slowest[0].batch_id, 8u);  // slowest batch first

  auto rows = tracer.summaries();
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.back().stage, "e2e");
  EXPECT_EQ(rows.back().count, 8u);

  const json::Value ring_val = tracer.ring_json();
  const auto& ring = ring_val.as_object();
  EXPECT_EQ(ring.at("completed").as_int(), 8);
  EXPECT_EQ(ring.at("ring_capacity").as_int(), 4);
  ASSERT_EQ(ring.at("slowest").as_array().size(), 4u);

  // Each slow entry is to_json(BatchTrace). Binding every field breaks this
  // build when BatchTrace gains one, until its JSON key (or its absence,
  // like the raw stamps') is decided here.
  [[maybe_unused]] const auto& [epoch, batch_id, node_id, shard_id, wire_bytes, nsamples,
                                start_ns, last_ns, total_ns, stage_ns] = slowest[0];
  const json::Value& entry = ring.at("slowest").as_array()[0];
  EXPECT_EQ(keys_of(entry), (std::set<std::string>{"epoch", "batch", "node", "shard", "bytes",
                                                    "samples", "total_ns", "stages"}));
  EXPECT_EQ(entry.at("batch").as_int(), 8);
  EXPECT_EQ(keys_of(entry.at("stages")), (std::set<std::string>{"read", "encode"}));
}

TEST(Tracer, InactiveTracesAreIgnored) {
  Tracer tracer(TracerConfig{true, 4});
  BatchTrace never_begun;
  tracer.complete(never_begun);
  EXPECT_EQ(tracer.e2e_histogram().count(), 0u);
  EXPECT_TRUE(tracer.summaries().empty());
}

// ------------------------------------------------------------ wire "t0"

TEST(TraceWire, DefaultEncodingIsByteIdentical) {
  msgpack::WireBatch plain;
  plain.epoch = 3;
  plain.batch_id = 9;
  auto baseline = msgpack::BatchCodec::encode(plain);

  msgpack::WireBatch traced = plain;  // trace_origin_ns stays 0
  auto same = msgpack::BatchCodec::encode(traced);
  ASSERT_EQ(same.size(), baseline.size());
  EXPECT_TRUE(std::equal(same.data(), same.data() + same.size(), baseline.data()));
}

TEST(TraceWire, OriginStampRoundTrips) {
  msgpack::WireBatch b;
  b.epoch = 3;
  b.batch_id = 9;
  b.trace_origin_ns = 123456789123ull;
  auto decoded = msgpack::BatchCodec::decode(msgpack::BatchCodec::encode(b));
  EXPECT_EQ(decoded.trace_origin_ns, 123456789123ull);
  EXPECT_EQ(decoded, b);
  // And the stamp costs wire bytes only when present.
  msgpack::WireBatch plain = b;
  plain.trace_origin_ns = 0;
  EXPECT_LT(msgpack::BatchCodec::encode(plain).size(),
            msgpack::BatchCodec::encode(b).size());
}

// ------------------------------------------------- bounded TimestampLogger

TEST(TimestampLoggerBounded, CapacityEvictsOldest) {
  ManualClock clock;
  TimestampLogger logger(clock, 3);
  for (int i = 0; i < 5; ++i) {
    clock.advance(10);
    logger.record("ev", i);
  }
  EXPECT_EQ(logger.size(), 3u);
  EXPECT_EQ(logger.dropped_events(), 2u);
  auto events = logger.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.front().detail, 2);  // 0 and 1 evicted
  EXPECT_EQ(events.back().detail, 4);
}

TEST(TimestampLoggerBounded, UnboundedByDefault) {
  ManualClock clock;
  TimestampLogger logger(clock);
  for (int i = 0; i < 100; ++i) logger.record("ev", i);
  EXPECT_EQ(logger.size(), 100u);
  EXPECT_EQ(logger.dropped_events(), 0u);
}

TEST(TimestampLoggerBounded, SpanHistogramPairsByDetail) {
  ManualClock clock;
  TimestampLogger logger(clock);
  // batch 1: 100ns, batch 2: 300ns, batch 3 never completes.
  logger.record("send", 1);
  clock.advance(100);
  logger.record("recv", 1);
  logger.record("send", 2);
  logger.record("send", 3);
  clock.advance(300);
  logger.record("recv", 2);
  auto snap = logger.span_histogram("send", "recv");
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.min, 100u);
  EXPECT_EQ(snap.max, 300u);
  EXPECT_EQ(snap.quantile(1.0), 300.0);
  // Unmatched end events are skipped, not mispaired.
  EXPECT_EQ(logger.span_histogram("recv", "send").count, 0u);
}

// ------------------------------------------------------- service e2e

namespace fs = std::filesystem;

class TracedServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("emlio_trace_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    spec_ = workload::presets::tiny(32, 600);
    workload::materialize_tfrecord(spec_, dir_.string(), 2);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  workload::DatasetSpec spec_;
};

TEST_F(TracedServiceTest, TracedRunProducesQuantilesAndForensics) {
  core::ServiceConfig cfg;
  cfg.dataset_dir = dir_.string();
  cfg.batch_size = 8;
  cfg.epochs = 1;
  cfg.decode_threads = 2;
  cfg.trace = true;
  cfg.trace_wire = true;
  core::EmlioService service(cfg);
  service.start();
  std::size_t batches = 0;
  while (auto batch = service.next_batch()) {
    if (!batch->last) ++batches;
  }
  service.stop();
  ASSERT_EQ(batches, 4u);  // 32 samples / batch 8

  auto stats = service.stats();
  ASSERT_FALSE(stats.daemon.latency.empty());
  ASSERT_FALSE(stats.receiver.latency.empty());
  EXPECT_EQ(stats.daemon.latency.back().stage, "e2e");
  EXPECT_EQ(stats.daemon.latency.back().count, 4u);
  EXPECT_EQ(stats.receiver.latency.back().count, 4u);
  for (const auto& row : stats.receiver.latency) {
    EXPECT_GT(row.max_ns, 0.0) << row.stage;
    EXPECT_LE(row.p50_ns, row.p99_ns + 1.0) << row.stage;
  }

  // Forensics: every retained slow batch's per-stage breakdown sums to its
  // end-to-end latency exactly (the note-chain invariant).
  const json::Value rings[] = {service.daemon_trace_json(), service.receiver_trace_json()};
  for (const auto& ring : rings) {
    const auto& o = ring.as_object();
    EXPECT_EQ(o.at("completed").as_int(), 4);
    const auto& slowest = o.at("slowest").as_array();
    ASSERT_FALSE(slowest.empty());
    for (const auto& entry : slowest) {
      const auto& trace = entry.as_object();
      std::int64_t total = trace.at("total_ns").as_int();
      std::int64_t sum = 0;
      for (const auto& [stage, ns] : trace.at("stages").as_object()) {
        sum += ns.as_int();
      }
      EXPECT_EQ(sum, total);
      EXPECT_GT(total, 0);
    }
  }
  // trace_wire: the receiver's slowest batches carry a wire stage grafted
  // from the daemon's origin stamp.
  const json::Value rx_val = service.receiver_trace_json();
  const auto& rx = rx_val.as_object();
  bool saw_wire = false;
  for (const auto& entry : rx.at("slowest").as_array()) {
    const auto& stages = entry.as_object().at("stages").as_object();
    if (stages.count("wire")) saw_wire = true;
  }
  EXPECT_TRUE(saw_wire);
}

TEST_F(TracedServiceTest, UntracedRunReportsNoLatency) {
  core::ServiceConfig cfg;
  cfg.dataset_dir = dir_.string();
  cfg.batch_size = 8;
  cfg.epochs = 1;
  core::EmlioService service(cfg);
  service.start();
  while (auto batch = service.next_batch()) {
  }
  service.stop();
  auto stats = service.stats();
  EXPECT_TRUE(stats.daemon.latency.empty());
  EXPECT_TRUE(stats.receiver.latency.empty());
  const json::Value ring_val = service.daemon_trace_json();
  EXPECT_EQ(ring_val.as_object().at("completed").as_int(), 0);
}

}  // namespace
}  // namespace emlio::obs
