// QoS-layer integration tests: the cold-sink governor regression the lane
// refactor fixes, the per-lane stats breakdowns both engines now publish,
// byte-identical per-lane delivery at every weight, and the StatsStreamer
// flatten/delta machinery behind --stats-interval. Runs in the TSan CI job.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/daemon.h"
#include "core/planner.h"
#include "core/receiver.h"
#include "core/service.h"
#include "core/stats_stream.h"
#include "net/sim_channel.h"
#include "workload/materialize.h"

namespace emlio::core {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

class QosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("emlio_qos_" + std::to_string(::getpid()) + "_" +
                                        ::testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name());
    fs::create_directories(dir_);
    spec_ = workload::presets::tiny(48, 900);
    built_ = workload::materialize_tfrecord(spec_, dir_.string(), 3);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::vector<tfrecord::ShardReader> readers() {
    auto indexes = tfrecord::load_all_indexes(dir_.string());
    std::vector<tfrecord::ShardReader> r;
    for (const auto& idx : indexes) r.emplace_back(idx);
    return r;
  }

  fs::path dir_;
  workload::DatasetSpec spec_;
  tfrecord::BuiltDataset built_;
};

// --------------------------------------------- cold-sink governor regression

/// A sink whose send() parks every caller until release() — the sharpest
/// possible cold destination: the lane's sender thread pops exactly one
/// payload and then wedges, so the lane delivers nothing for the rest of
/// the wedge phase.
struct WedgedSink final : net::MessageSink {
  explicit WedgedSink(std::shared_ptr<net::MessageSink> wrapped) : inner(std::move(wrapped)) {}
  bool send(Payload message) override {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return open; });
    }
    return inner->send(std::move(message));
  }
  void close() override { inner->close(); }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  std::shared_ptr<net::MessageSink> inner;
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
};

TEST_F(QosTest, GovernorIgnoresColdSinkLane) {
  // One destination is wedged — its sender parks on the first send, so the
  // lane fills and then delivers zero for the whole wedge phase — while the
  // other node drains. The wedged lane's enqueue stalls must NOT count as
  // shrink evidence (a zero-delivery lane is weighted out of the window), so
  // the encode pool never drops below its starting width while the healthy
  // lane still needs it. Before the per-lane window fix, a cold sink's
  // stalls read as "encode outran the wire" and shrank the pool under
  // everyone. The healthy lane carries a (non-binding) rate cap: rate-capped
  // lanes are excluded from shrink evidence by design, so the only rate-0
  // lane in the run is the wedged one — the test isolates exactly its votes.
  auto indexes = tfrecord::load_all_indexes(dir_.string());
  PlannerConfig pc;
  pc.batch_size = 4;
  pc.epochs = 1;
  Planner planner(indexes, pc);
  auto plan = planner.plan_epoch(0, /*num_nodes=*/2);

  auto ch0 = net::make_sim_channel({});
  auto ch1 = net::make_sim_channel({});
  auto wedged = std::make_shared<WedgedSink>(
      std::shared_ptr<net::MessageSink>(std::move(ch0.sink)));
  auto sink1 = std::shared_ptr<net::MessageSink>(std::move(ch1.sink));

  ReceiverConfig rc;
  rc.num_senders = 1;
  Receiver r0(rc, std::move(ch0.source));
  Receiver r1(rc, std::move(ch1.source));

  DaemonConfig dc;
  dc.pool_threads = 2;
  dc.prefetch_depth = 2;
  dc.adaptive_pool = true;
  dc.adaptive_min_threads = 1;
  dc.adaptive_max_threads = 4;
  dc.adaptive_interval_ms = 1;  // many control windows inside the test
  dc.node_qos[1] = LaneQos{1, 1000000};  // cap >> rate
  std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> sinks{{0u, wedged},
                                                                   {1u, sink1}};
  Daemon daemon(dc, readers(), sinks);

  std::thread serve([&] {
    EXPECT_TRUE(daemon.serve_epoch(plan));
    wedged->close();
    sink1->close();
  });

  // Drain the healthy node completely while node 0 stays wedged, then hold
  // the wedge across plenty of governor windows.
  std::uint64_t want1 = 0;
  for (const auto& node : plan.nodes) {
    if (node.node_id == 1) want1 = node.total_samples();
  }
  ASSERT_GT(want1, 0u);
  std::uint64_t got1 = 0;
  std::uint64_t min_width_seen = dc.pool_threads;
  while (got1 < want1) {
    auto batch = r1.next();
    ASSERT_TRUE(batch.has_value());
    ASSERT_FALSE(batch->last);
    got1 += batch->samples.size();
    min_width_seen = std::min(min_width_seen, daemon.stats().pool_threads_current);
  }
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(1ms);
    min_width_seen = std::min(min_width_seen, daemon.stats().pool_threads_current);
  }
  EXPECT_GE(min_width_seen, dc.pool_threads)
      << "cold sink shrank the encode pool under the healthy lane";

  // The breakdown shows why: the wedged lane delivered exactly the one
  // payload its parked sender holds, while the healthy lane moved data.
  {
    auto stats = daemon.stats();
    const auto& lanes = stats.lanes;
    ASSERT_EQ(lanes.size(), 2u);
    EXPECT_EQ(lanes[0].delivered_items, 1u);  // "node0", wedged in send()
    EXPECT_GT(lanes[1].delivered_items, 1u);  // "node1", healthy
    // Mid-epoch, stats() folds the live lanes in: the wedged lane's full
    // queue already shows in its own peak and in the aggregate.
    EXPECT_EQ(lanes[0].queue_peak_depth, dc.prefetch_depth);
    EXPECT_EQ(stats.queue_peak_depth, dc.prefetch_depth);
  }

  // Unpark node 0; both streams complete cleanly.
  wedged->release();
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
  r0.close();
  r1.close();
}

// ------------------------------------------------- per-lane stats breakdowns

TEST_F(QosTest, DaemonLaneBreakdownCarriesQosAndAggregates) {
  auto indexes = tfrecord::load_all_indexes(dir_.string());
  PlannerConfig pc;
  pc.batch_size = 8;
  pc.epochs = 2;
  Planner planner(indexes, pc);

  auto ch0 = net::make_sim_channel({});
  auto ch1 = net::make_sim_channel({});
  auto sink0 = std::shared_ptr<net::MessageSink>(std::move(ch0.sink));
  auto sink1 = std::shared_ptr<net::MessageSink>(std::move(ch1.sink));

  ReceiverConfig rc;
  rc.num_senders = 1;
  Receiver r0(rc, std::move(ch0.source));
  Receiver r1(rc, std::move(ch1.source));

  DaemonConfig dc;
  dc.pool_threads = 2;
  dc.prefetch_depth = 2;  // small queue: force some enqueue stalls
  dc.node_qos[1] = LaneQos{3, 0};
  std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> sinks{{0u, sink0}, {1u, sink1}};
  Daemon daemon(dc, readers(), sinks);

  std::thread serve([&] {
    EXPECT_TRUE(daemon.serve(planner, /*num_nodes=*/2));
    sink0->close();
    sink1->close();
  });
  auto drain = [](Receiver& r) {
    std::uint64_t samples = 0;
    while (auto batch = r.next()) samples += batch->samples.size();
    return samples;
  };
  std::uint64_t s0 = 0, s1 = 0;
  std::thread t0([&] { s0 = drain(r0); });
  s1 = drain(r1);
  t0.join();
  serve.join();
  EXPECT_EQ(s0 + s1, 2 * static_cast<std::uint64_t>(spec_.num_samples));

  auto stats = daemon.stats();
  ASSERT_EQ(stats.lanes.size(), 2u);
  EXPECT_EQ(stats.lanes[0].name, "node0");
  EXPECT_EQ(stats.lanes[1].name, "node1");
  // QoS identity rides into the breakdown: default for node 0, override for 1.
  EXPECT_EQ(stats.lanes[0].weight, 1u);
  EXPECT_EQ(stats.lanes[1].weight, 3u);
  // Both lanes moved data (items and attributed wire bytes).
  std::uint64_t items = 0, enq = 0, deq = 0, peak = 0;
  for (const auto& lane : stats.lanes) {
    EXPECT_GT(lane.delivered_items, 0u) << lane.name;
    EXPECT_GT(lane.delivered_bytes, 0u) << lane.name;
    items += lane.delivered_items;
    enq += lane.enqueue_stalls;
    deq += lane.dequeue_stalls;
    peak = std::max(peak, lane.queue_peak_depth);
  }
  // The flat pipeline counters are exactly the lane aggregates.
  EXPECT_EQ(stats.enqueue_stalls, enq);
  EXPECT_EQ(stats.sender_stalls, deq);
  EXPECT_EQ(stats.queue_peak_depth, peak);
  // Every sent batch left through some lane (sentinels ride the lanes too,
  // so lane items can exceed the data-batch count, never undercut it).
  EXPECT_GE(items, stats.batches_sent);

  // And the JSON stats surface the same breakdown for --stats-json/streaming.
  auto j = to_json(stats);
  ASSERT_TRUE(j.contains("lanes"));
  ASSERT_EQ(j.at("lanes").as_array().size(), 2u);
  EXPECT_EQ(j.at("lanes").as_array()[1].at("weight").as_int(), 3);
  r0.close();
  r1.close();
}

TEST_F(QosTest, ReceiverPerSourceLaneBreakdown) {
  // Two daemons fan into one receiver; each source gets its own lane with
  // its own QoS, and the breakdown reports per-source delivery.
  auto indexes = tfrecord::load_all_indexes(dir_.string());
  ASSERT_EQ(indexes.size(), 3u);
  PlannerConfig pc;
  pc.batch_size = 8;
  pc.epochs = 1;
  Planner planner(indexes, pc);

  auto ch0 = net::make_sim_channel({});
  auto ch1 = net::make_sim_channel({});
  auto sink0 = std::shared_ptr<net::MessageSink>(std::move(ch0.sink));
  auto sink1 = std::shared_ptr<net::MessageSink>(std::move(ch1.sink));

  ReceiverConfig rc;
  rc.num_senders = 2;
  rc.decode_threads = 2;
  rc.source_qos = {LaneQos{4, 0},
                   LaneQos{1, 0}};
  std::vector<std::unique_ptr<net::MessageSource>> ins;
  ins.push_back(std::move(ch0.source));
  ins.push_back(std::move(ch1.source));
  Receiver receiver(rc, std::move(ins));

  // Daemon 0 owns shards {0,1}; daemon 1 owns {2}; both push to node 0.
  auto make_daemon = [&](int d, std::shared_ptr<net::MessageSink> sink) {
    std::vector<tfrecord::ShardReader> r;
    if (d == 0) {
      r.emplace_back(indexes[0]);
      r.emplace_back(indexes[1]);
    } else {
      r.emplace_back(indexes[2]);
    }
    DaemonConfig dc;
    dc.daemon_id = "d" + std::to_string(d);
    std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> sinks{{0u, std::move(sink)}};
    return std::make_unique<Daemon>(dc, std::move(r), sinks);
  };
  auto d0 = make_daemon(0, sink0);
  auto d1 = make_daemon(1, sink1);
  std::thread serve0([&] {
    EXPECT_TRUE(d0->serve(planner, 1));
    sink0->close();
  });
  std::thread serve1([&] {
    EXPECT_TRUE(d1->serve(planner, 1));
    sink1->close();
  });

  std::uint64_t samples = 0;
  std::size_t markers = 0;
  while (auto batch = receiver.next()) {
    if (batch->last) {
      ++markers;
      continue;
    }
    samples += batch->samples.size();
  }
  serve0.join();
  serve1.join();
  EXPECT_EQ(samples, static_cast<std::uint64_t>(spec_.num_samples));
  EXPECT_EQ(markers, 1u);

  auto stats = receiver.stats();
  ASSERT_EQ(stats.lanes.size(), 2u);
  EXPECT_EQ(stats.lanes[0].name, "src0");
  EXPECT_EQ(stats.lanes[1].name, "src1");
  EXPECT_EQ(stats.lanes[0].weight, 4u);
  EXPECT_EQ(stats.lanes[1].weight, 1u);
  std::uint64_t lane_items = 0;
  for (const auto& lane : stats.lanes) {
    EXPECT_GT(lane.delivered_items, 0u) << lane.name;
    EXPECT_GT(lane.delivered_bytes, 0u) << lane.name;
    EXPECT_TRUE(lane.closed) << lane.name;
    lane_items += lane.delivered_items;
  }
  // Every wire payload (data batches + per-daemon sentinels) crossed a lane.
  EXPECT_GE(lane_items, stats.batches_received);
  receiver.close();
}

TEST_F(QosTest, SingleSourceReceiverHasOneLane) {
  auto ch = net::make_sim_channel({});
  auto sink = std::shared_ptr<net::MessageSink>(std::move(ch.sink));
  ReceiverConfig rc;
  rc.num_senders = 1;
  Receiver receiver(rc, std::move(ch.source));
  sink->close();
  while (receiver.next()) {
  }
  auto lanes = receiver.stats().lanes;
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0].name, "src0");
  EXPECT_TRUE(lanes[0].closed);
  receiver.close();
}

// --------------------------------------- byte-identical delivery at any QoS

TEST_F(QosTest, WeightsNeverChangePerLaneStreamContent) {
  // Same plan, same seed, radically different QoS splits: each node's
  // decoded stream must be byte-for-byte identical across configurations —
  // weights shift WHEN a lane is served, never WHAT it carries or in what
  // order. (The per-sink resequencer pins batch-id order; the receivers'
  // resequencer restores arrival order after the decode pool.)
  auto capture = [&](LaneQos q0, LaneQos q1) {
    auto indexes = tfrecord::load_all_indexes(dir_.string());
    PlannerConfig pc;
    pc.batch_size = 4;
    pc.epochs = 1;
    pc.seed = 7;
    Planner planner(indexes, pc);

    auto ch0 = net::make_sim_channel({});
    auto ch1 = net::make_sim_channel({});
    auto sink0 = std::shared_ptr<net::MessageSink>(std::move(ch0.sink));
    auto sink1 = std::shared_ptr<net::MessageSink>(std::move(ch1.sink));
    ReceiverConfig rc;
    rc.num_senders = 1;
    Receiver r0(rc, std::move(ch0.source));
    Receiver r1(rc, std::move(ch1.source));

    DaemonConfig dc;
    dc.pool_threads = 3;    // pooled encode: order must still be pinned
    dc.prefetch_depth = 2;  // and backpressure exercised
    dc.node_qos[0] = q0;
    dc.node_qos[1] = q1;
    std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> sinks{{0u, sink0}, {1u, sink1}};
    Daemon daemon(dc, readers(), sinks);
    std::thread serve([&] {
      EXPECT_TRUE(daemon.serve(planner, 2));
      sink0->close();
      sink1->close();
    });

    auto flatten = [](Receiver& r) {
      std::vector<std::uint8_t> stream;
      auto put_u64 = [&stream](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) stream.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
      };
      while (auto batch = r.next()) {
        put_u64(batch->epoch);
        put_u64(batch->batch_id);
        put_u64(batch->last ? 1 : 0);
        for (const auto& s : batch->samples) {
          put_u64(s.index);
          put_u64(static_cast<std::uint64_t>(s.label));
          put_u64(s.bytes.size());
          stream.insert(stream.end(), s.bytes.data(), s.bytes.data() + s.bytes.size());
        }
      }
      return stream;
    };
    std::vector<std::uint8_t> s0, s1;
    std::thread t0([&] { s0 = flatten(r0); });
    s1 = flatten(r1);
    t0.join();
    serve.join();
    r0.close();
    r1.close();
    return std::make_pair(std::move(s0), std::move(s1));
  };

  auto a = capture(LaneQos{1, 0}, LaneQos{4, 0});
  auto b = capture(LaneQos{4, 0}, LaneQos{1, 0});
  auto c = capture(LaneQos{1, 200},  // rate-capped lane
                   LaneQos{1, 0});
  ASSERT_GT(a.first.size(), 0u);
  ASSERT_GT(a.second.size(), 0u);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_EQ(a.first, c.first);
  EXPECT_EQ(a.second, c.second);
}

// ----------------------------------------------------- service-level plumbing

TEST_F(QosTest, ServiceThreadsQosToBothEngines) {
  ServiceConfig cfg;
  cfg.dataset_dir = dir_.string();
  cfg.batch_size = 8;
  cfg.epochs = 1;
  cfg.lane_weight = 5;
  EmlioService service(cfg);
  service.start();
  while (auto batch = service.next_batch()) {
    if (batch->last) break;
  }
  service.stop();
  auto stats = service.stats();
  ASSERT_EQ(stats.daemon.lanes.size(), 1u);
  EXPECT_EQ(stats.daemon.lanes[0].weight, 5u);
  ASSERT_EQ(stats.receiver.lanes.size(), 1u);
  EXPECT_EQ(stats.receiver.lanes[0].weight, 5u);
}

// ------------------------------------------------------------- StatsStreamer

TEST(StatsStreamer, FlattensNestedObjectsAndNamedArrays) {
  json::Object lane0;
  lane0["name"] = std::string("node0");
  lane0["delivered_items"] = std::uint64_t{7};
  lane0["closed"] = true;
  json::Object lane1;
  lane1["name"] = std::string("node1");
  lane1["delivered_items"] = std::uint64_t{9};
  json::Array lanes;
  lanes.push_back(lane0);
  lanes.push_back(lane1);
  json::Object cache;
  cache["hits"] = std::uint64_t{3};
  json::Object root;
  root["batches_sent"] = std::uint64_t{12};
  root["cache"] = cache;
  root["lanes"] = std::move(lanes);
  root["daemon_id"] = std::string("d0");  // strings carry no numeric field

  auto fields = StatsStreamer::flatten(json::Value(std::move(root)));
  EXPECT_EQ(fields.at("batches_sent"), 12.0);
  EXPECT_EQ(fields.at("cache.hits"), 3.0);
  EXPECT_EQ(fields.at("lanes.node0.delivered_items"), 7.0);
  EXPECT_EQ(fields.at("lanes.node0.closed"), 1.0);
  EXPECT_EQ(fields.at("lanes.node1.delivered_items"), 9.0);
  EXPECT_EQ(fields.count("daemon_id"), 0u);
  // The "name" member keys the element, it is not itself a field.
  EXPECT_EQ(fields.count("lanes.node0.name"), 0u);
}

TEST(StatsStreamer, StreamsDeltasAndGaugesAsLineProtocol) {
  char* buffer = nullptr;
  std::size_t buffer_len = 0;
  std::FILE* out = open_memstream(&buffer, &buffer_len);
  ASSERT_NE(out, nullptr);
  {
    int calls = 0;
    StatsStreamer::Options so;
    so.measurement = "qos_test";
    so.tags = {{"side", "daemon"}};
    so.interval = 5ms;
    so.gauges = {"width"};
    so.out = out;
    StatsStreamer streamer(
        [&calls]() mutable {
          ++calls;
          json::Object o;
          o["count"] = static_cast<std::uint64_t>(calls * 5);  // +5 per window
          o["width"] = std::uint64_t{7};                       // gauge
          return json::Value(std::move(o));
        },
        std::move(so));
    std::this_thread::sleep_for(30ms);
  }  // destructor stops the stream and emits the tail line
  std::fclose(out);
  std::string text(buffer, buffer_len);
  free(buffer);

  std::size_t lines = 0;
  for (char ch : text) lines += ch == '\n';
  ASSERT_GE(lines, 2u);  // several windows plus the tail line
  // Every line: the measurement + tag prefix, the per-window delta (always
  // +5) and the gauge streamed as-is (always 7).
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto end = text.find('\n', pos);
    std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    EXPECT_EQ(line.rfind("qos_test,side=daemon ", 0), 0u) << line;
    EXPECT_NE(line.find("count=5"), std::string::npos) << line;
    EXPECT_NE(line.find("width=7"), std::string::npos) << line;
  }
}

TEST(StatsStreamer, FlattensNestedLatencyQuantileObjects) {
  // The stats JSON of a traced engine nests per-stage quantile objects
  // under "latency"; they must flatten to '.'-separated numeric fields so
  // the tools can stream them.
  json::Object decode;
  decode["count"] = std::uint64_t{42};
  decode["p50"] = 1500.0;
  decode["p99"] = 9000.0;
  decode["max"] = 12000.0;
  json::Object latency;
  latency["decode"] = decode;
  json::Object root;
  root["batches_received"] = std::uint64_t{42};
  root["latency"] = std::move(latency);

  auto fields = StatsStreamer::flatten(json::Value(std::move(root)));
  EXPECT_EQ(fields.at("latency.decode.count"), 42.0);
  EXPECT_EQ(fields.at("latency.decode.p50"), 1500.0);
  EXPECT_EQ(fields.at("latency.decode.p99"), 9000.0);
  EXPECT_EQ(fields.at("latency.decode.max"), 12000.0);
}

TEST(StatsStreamer, QuantileLeavesStreamAsGaugesNotDeltas) {
  // Matching the tools' gauge sets: "p50"/"p95"/"p99"/"max" leaves must
  // stream as-is every window, while sibling counters are delta-encoded.
  char* buffer = nullptr;
  std::size_t buffer_len = 0;
  std::FILE* out = open_memstream(&buffer, &buffer_len);
  ASSERT_NE(out, nullptr);
  {
    int calls = 0;
    StatsStreamer::Options so;
    so.measurement = "trace_test";
    so.interval = 5ms;
    so.gauges = {"p50", "p95", "p99", "max"};
    so.out = out;
    StatsStreamer streamer(
        [&calls]() mutable {
          ++calls;
          json::Object e2e;
          e2e["count"] = static_cast<std::uint64_t>(calls * 3);  // +3 per window
          e2e["p50"] = 2500.0;                                   // gauge
          e2e["max"] = 80000.0;                                  // gauge
          json::Object latency;
          latency["e2e"] = std::move(e2e);
          json::Object o;
          o["latency"] = std::move(latency);
          return json::Value(std::move(o));
        },
        std::move(so));
    std::this_thread::sleep_for(30ms);
  }
  std::fclose(out);
  std::string text(buffer, buffer_len);
  free(buffer);

  std::size_t lines = 0;
  for (char ch : text) lines += ch == '\n';
  ASSERT_GE(lines, 2u);
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto end = text.find('\n', pos);
    std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    // The count leaf deltas to +3; the quantile leaves pass through.
    EXPECT_NE(line.find("latency.e2e.count=3"), std::string::npos) << line;
    EXPECT_NE(line.find("latency.e2e.p50=2500"), std::string::npos) << line;
    EXPECT_NE(line.find("latency.e2e.max=80000"), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace emlio
