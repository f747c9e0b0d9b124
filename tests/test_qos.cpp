// Lane-layer integration tests: a wedged sink that fills only its own lane
// (its sender admits encode jobs only within the lane's window), the
// per-lane stats breakdowns both engines publish, byte-identical
// per-lane delivery with and without a rate cap, rate caps paced at the
// daemon's send, the receiver's inline round-robin admission across source
// lanes (conservation, order, stall counting, close while paced at the
// ingest push), and the StatsStreamer flatten/delta machinery behind
// --stats-interval. Runs in the TSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/daemon.h"
#include "core/planner.h"
#include "core/receiver.h"
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

// ---------------------------------------------------------- wedged sink lane

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

TEST_F(QosTest, WedgedSinkFillsOnlyItsOwnLane) {
  // One destination is wedged — its sender parks on the first send, so the
  // lane fills and then delivers nothing more for the whole wedge phase —
  // while the other node drains completely. The per-lane breakdown must
  // show the wedge on the wedged lane alone, and both streams must complete
  // once the sink is released.
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
  std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> sinks{{0u, wedged},
                                                                   {1u, sink1}};
  Daemon daemon(dc, readers(), sinks);

  std::thread serve([&] {
    EXPECT_TRUE(daemon.serve_epoch(plan));
    wedged->close();
    sink1->close();
  });

  // Drain the healthy node completely while node 0 stays wedged.
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
  // Give the wedged lane's reorder buffer time to fill behind its parked
  // sender. Its first two batches may park before the sender pops either, so
  // wait for the pop too.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  auto parked = [&] {
    const LaneStats lane = daemon.stats().lanes.at(0);
    return lane.queue_peak_depth >= dc.prefetch_depth && lane.delivered_items >= 1;
  };
  while (!parked() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }

  // The wedged lane delivered exactly the one payload its parked sender
  // holds, while the healthy lane moved data.
  {
    auto stats = daemon.stats();
    const auto& lanes = stats.lanes;
    ASSERT_EQ(lanes.size(), 2u);
    EXPECT_EQ(lanes[0].delivered_items, 1u);  // "node0", wedged in send()
    EXPECT_GT(lanes[1].delivered_items, 1u);  // "node1", healthy
    // Mid-epoch, stats() reads the live lanes: the wedged lane's full
    // reorder buffer already shows in its own peak and in the aggregate.
    EXPECT_EQ(lanes[0].queue_peak_depth, dc.prefetch_depth);
    EXPECT_EQ(stats.queue_peak_depth, dc.prefetch_depth);
    // The healthy lane has drained, so the rest of the reads are what the
    // wedged lane encoded: at most its window plus the batch its sender
    // holds. (Node 0 has 6 batches, 2 × depth + 2, so the bound can bite.)
    EXPECT_LE(stats.store_reads - lanes[1].delivered_items, dc.prefetch_depth + 1);
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

TEST_F(QosTest, DaemonLaneBreakdownAggregates) {
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
  // Every sent batch left through some lane, and only data batches do:
  // each sentinel is sent after its lane's batches, outside the lane.
  EXPECT_EQ(items, stats.batches_sent);

  // And the JSON stats surface the same breakdown for --stats-json/streaming.
  auto j = to_json(stats);
  ASSERT_TRUE(j.contains("lanes"));
  ASSERT_EQ(j.at("lanes").as_array().size(), 2u);
  EXPECT_EQ(j.at("lanes").as_array()[1].at("name").as_string(), "node1");
  r0.close();
  r1.close();
}

TEST_F(QosTest, ReceiverPerSourceLaneBreakdown) {
  // Two daemons fan into one receiver; each source gets its own lane, and
  // the breakdown reports per-source delivery.
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

// ---------------------------------------- byte-identical delivery at any cap

TEST_F(QosTest, RateCapNeverChangesPerLaneStreamContent) {
  // Same plan, same seed, uncapped and rate-capped: each node's decoded
  // stream must be byte-for-byte identical across both — a cap shifts WHEN
  // a lane is served, never WHAT it carries or in what order. (The per-sink
  // resequencer pins batch-id order; the receivers' resequencer restores
  // arrival order after the decode pool.)
  auto capture = [&](std::uint64_t lane_rate) {
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
    dc.lane_rate = lane_rate;
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

  auto uncapped = capture(0);
  // 40 batches/s: a burst of 2, so each node's 6 batches mostly wait for
  // tokens — the cap really paces.
  auto capped = capture(40);
  ASSERT_GT(uncapped.first.size(), 0u);
  ASSERT_GT(uncapped.second.size(), 0u);
  EXPECT_EQ(uncapped.first, capped.first);
  EXPECT_EQ(uncapped.second, capped.second);
}

// ------------------------------------------------ daemon rate caps at the send

/// One timed epoch for node 0 — `batches` single-record batches over the
/// first records of `shard`, in batch-id order — into a sim link that a
/// consumer thread drains.
struct TimedEpoch {
  bool ok = false;
  std::chrono::duration<double> elapsed{};
  std::uint64_t batches_sent = 0;
  std::string error;
};

TimedEpoch serve_single_record_batches(const tfrecord::ShardIndex& shard,
                                       std::uint32_t batches, const DaemonConfig& dc) {
  WorkerPlan worker;
  for (std::uint32_t i = 0; i < batches; ++i) {
    BatchAssignment a;
    a.batch_id = i;
    a.shard_id = shard.shard_id;
    a.first_record = i;
    a.count = 1;
    worker.batches.push_back(a);
  }
  EpochPlan plan;
  plan.nodes.emplace_back().workers.push_back(worker);

  auto ch = net::make_sim_channel({});
  auto sink = std::shared_ptr<net::MessageSink>(std::move(ch.sink));
  std::vector<tfrecord::ShardReader> readers;
  readers.emplace_back(shard);
  Daemon daemon(dc, std::move(readers), {{0u, sink}});
  std::thread drain([&] {
    while (ch.source->recv()) {
    }
  });
  TimedEpoch r;
  const auto t0 = std::chrono::steady_clock::now();
  r.ok = daemon.serve_epoch(plan);
  r.elapsed = std::chrono::steady_clock::now() - t0;
  sink->close();
  drain.join();
  r.batches_sent = daemon.stats().batches_sent;
  r.error = daemon.last_error();
  return r;
}

TEST_F(QosTest, DaemonRateCapPacesTheEpochTail) {
  // Regression: the cap used to be charged at the lane's pop and skipped
  // once the lane closed, and the daemon closes a lane as soon as the
  // epoch's last batch is queued — so at the default prefetch depth a whole
  // short epoch went out unpaced. Paced at the send, every batch pays.
  const tfrecord::ShardIndex shard = tfrecord::load_all_indexes(dir_.string())[0];
  constexpr std::uint32_t kBatches = 16;
  constexpr std::uint64_t kRate = 40;  // burst: kRate / 20 = 2 batches
  ASSERT_GE(shard.num_records(), kBatches);
  DaemonConfig dc;  // prefetch_depth 16: the whole epoch fits in the lane
  dc.pool_threads = 2;
  dc.lane_rate = kRate;
  const auto r = serve_single_record_batches(shard, kBatches, dc);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.batches_sent, kBatches);
  const double paced = (kBatches - kRate / 20.0) / kRate;  // 0.35 s
  EXPECT_GE(r.elapsed.count(), 0.8 * paced) << "the epoch's batches went out faster than the cap";
}

TEST_F(QosTest, DaemonFailedLaneStopsPacingAtOnce) {
  // A lane that fails mid-epoch (here a corrupt record under verify_crc)
  // drains what it already queued without waiting for tokens: at 2
  // batches/s, pacing the queued batches would take seconds.
  const tfrecord::ShardIndex shard = tfrecord::load_all_indexes(dir_.string())[0];
  constexpr std::uint32_t kBatches = 16, kCorrupt = 8;
  ASSERT_GE(shard.num_records(), kBatches);
  {
    auto original = tfrecord::ShardReader(shard).record(kCorrupt, /*verify=*/true).to_vector();
    std::fstream f(shard.shard_path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(shard.records[kCorrupt].offset + 12));  // past the header
    f.put(static_cast<char>(original[0] ^ 0xFF));
  }
  DaemonConfig dc;
  dc.verify_crc = true;
  dc.pool_threads = 2;
  dc.lane_rate = 2;  // burst 1, then one batch per 0.5 s
  const auto r = serve_single_record_batches(shard, kBatches, dc);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("CRC"), std::string::npos) << r.error;
  EXPECT_LT(r.elapsed, 1500ms) << "a failed lane kept pacing its queued batches";
}

// ------------------------------------------- receiver admission across lanes

/// Batch ids carry their source: id = source * kIdStride + sequence number.
constexpr std::uint64_t kIdStride = 1000000;

/// Scripted source for the receiver admission tests: `count` epoch-0 data
/// batches, then an epoch-0 sentinel when `sentinel`, then the end of the
/// stream — or, when `hold_open`, a recv() that blocks until close().
/// Counts the data payloads it handed out.
struct CountingSource final : net::MessageSource {
  CountingSource(std::uint32_t source, std::size_t count, bool sentinel, bool hold)
      : data_count(count), hold_open(hold) {
    for (std::size_t i = 0; i < count; ++i) {
      msgpack::WireBatch b;
      b.batch_id = source * kIdStride + i;
      msgpack::WireSample s;
      s.index = b.batch_id;
      s.bytes = PayloadView(std::vector<std::uint8_t>(16, static_cast<std::uint8_t>(source)));
      b.samples.push_back(std::move(s));
      script.push_back(msgpack::BatchCodec::encode(b));
    }
    if (sentinel) {
      script.push_back(
          msgpack::BatchCodec::encode(msgpack::BatchCodec::make_sentinel(0, 0, count)));
    }
  }
  std::optional<Payload> recv() override {
    if (pos < script.size()) {
      if (pos < data_count) handed.fetch_add(1, std::memory_order_relaxed);
      return script[pos++];
    }
    if (hold_open) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return closed; });
    }
    return std::nullopt;
  }
  void close() override {
    {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
    }
    cv.notify_all();
  }

  const std::size_t data_count;
  const bool hold_open;
  std::vector<Payload> script;
  std::size_t pos = 0;  ///< the ingest thread's cursor
  std::atomic<std::size_t> handed{0};
  std::mutex mu;
  std::condition_variable cv;
  bool closed = false;
};

std::uint64_t source_of(const msgpack::WireBatch& b) { return b.batch_id / kIdStride; }

TEST(ReceiverAdmission, RandomizedConservationAndPerSourceOrder) {
  // Random source counts, lane depths, pool widths and payload counts:
  // every payload is delivered exactly once, each source's payloads in the
  // order the source sent them.
  std::mt19937 rng(20250808);
  for (int round = 0; round < 5; ++round) {
    const std::size_t nsources = 2 + rng() % 4;
    ReceiverConfig rc;
    rc.num_senders = nsources;
    rc.ingest_lane_depth = 1 + rng() % 16;
    rc.decode_threads = 1 + rng() % 4;
    rc.queue_capacity = 1 + rng() % 8;
    std::vector<std::size_t> counts;
    std::vector<std::unique_ptr<net::MessageSource>> sources;
    for (std::size_t i = 0; i < nsources; ++i) {
      counts.push_back(rng() % 401);  // skewed: some sources send little or nothing
      sources.push_back(std::make_unique<CountingSource>(static_cast<std::uint32_t>(i), counts[i],
                                                         /*sentinel=*/true, /*hold_open=*/false));
    }
    Receiver receiver(rc, std::move(sources));

    std::vector<std::uint64_t> next_seq(nsources, 0);
    std::size_t total = 0, markers = 0;
    while (auto b = receiver.next()) {
      if (b->last) {
        ++markers;
        continue;
      }
      const std::uint64_t src = source_of(*b);
      ASSERT_LT(src, nsources) << "round " << round;
      EXPECT_EQ(b->batch_id % kIdStride, next_seq[src]++) << "round " << round << " source " << src;
      ++total;
    }
    std::size_t expected = 0;
    for (std::size_t c : counts) expected += c;
    EXPECT_EQ(total, expected) << "round " << round;
    EXPECT_EQ(markers, 1u) << "round " << round;
    const auto stats = receiver.stats();
    EXPECT_EQ(stats.batches_received, expected) << "round " << round;
    EXPECT_EQ(stats.dropped_on_close, 0u) << "round " << round;
    ASSERT_EQ(stats.lanes.size(), nsources);
    for (std::size_t i = 0; i < nsources; ++i) {
      EXPECT_EQ(stats.lanes[i].delivered_items, counts[i] + 1)  // + its sentinel
          << "round " << round << " source " << i;
    }
  }
}

TEST(ReceiverAdmission, DecodeStallsCountEachWaitingPayloadOnce) {
  // No consumer until the engine wedges: the window (4), the consumer queue
  // (1) and the payload blocked delivering into it admit a handful; every
  // other payload, the sentinel included, waits in the lane for a window
  // slot. decode_stalls must count each of those once — no more.
  constexpr std::size_t kPayloads = 200;
  ReceiverConfig rc;
  rc.num_senders = 1;
  rc.decode_threads = 1;
  rc.queue_capacity = 1;
  rc.ingest_lane_depth = 256;  // holds the whole stream
  std::vector<std::unique_ptr<net::MessageSource>> sources;
  sources.push_back(
      std::make_unique<CountingSource>(0, kPayloads, /*sentinel=*/true, /*hold_open=*/false));
  Receiver receiver(rc, std::move(sources));

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (receiver.stats().lanes[0].queue_peak_depth < kPayloads - 8 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_GE(receiver.stats().lanes[0].queue_peak_depth, kPayloads - 8);
  std::size_t delivered = 0;
  while (auto b = receiver.next()) {
    if (!b->last) ++delivered;
  }
  EXPECT_EQ(delivered, kPayloads);
  const auto stalls = receiver.stats().decode_stalls;
  EXPECT_LE(stalls, kPayloads + 1) << "a payload was counted more than once";
  EXPECT_GE(stalls, kPayloads - 10) << "payloads waited for a slot uncounted";
}

TEST(ReceiverAdmission, CloseDuringThrottleIsPromptAndBalanced) {
  // Every source lane is capped at 1 payload/s: each ingest thread delivers
  // its burst token, then waits on its pacer with its second payload in
  // hand. close() must release both at once (not when the next tokens
  // mature, 1 s later) and the payloads in hand must be counted as drops.
  ReceiverConfig rc;
  rc.num_senders = 2;
  rc.decode_threads = 2;
  rc.lane_rate = 1;
  CountingSource* src[2] = {};
  std::vector<std::unique_ptr<net::MessageSource>> sources;
  for (std::uint32_t i = 0; i < 2; ++i) {
    auto s = std::make_unique<CountingSource>(i, 10, /*sentinel=*/false, /*hold_open=*/true);
    src[i] = s.get();
    sources.push_back(std::move(s));
  }
  auto receiver = std::make_unique<Receiver>(rc, std::move(sources));
  std::size_t delivered = 0;
  std::size_t got[2] = {0, 0};
  while (got[0] < 1 || got[1] < 1) {  // each source's burst token
    auto b = receiver->next();
    ASSERT_TRUE(b.has_value());
    ASSERT_LT(source_of(*b), 2u);
    ++got[source_of(*b)];
    ++delivered;
  }
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while ((src[0]->handed.load() < 2 || src[1]->handed.load() < 2) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  for (const CountingSource* s : src) {
    ASSERT_EQ(s->handed.load(), 2u) << "a source is not pacing its second payload";
  }

  const auto t0 = std::chrono::steady_clock::now();
  receiver->close();
  while (receiver->next()) ++delivered;
  // Everything pulled off the wire is delivered or counted as dropped,
  // including the payloads in the paced threads' hands.
  ReceiverStats stats;
  std::size_t pulled = 0;
  do {
    stats = receiver->stats();
    pulled = src[0]->handed.load() + src[1]->handed.load();
    if (delivered + stats.dropped_on_close == pulled) break;
    std::this_thread::sleep_for(1ms);
  } while (std::chrono::steady_clock::now() - t0 < 5s);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 500ms);
  EXPECT_EQ(delivered + stats.dropped_on_close, pulled)
      << "delivered=" << delivered << " dropped=" << stats.dropped_on_close;
  EXPECT_GE(stats.dropped_on_close, 1u);
  receiver.reset();  // joins the ingest threads
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 500ms);
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
