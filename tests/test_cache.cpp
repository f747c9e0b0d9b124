// SampleCache unit tests (policies, byte budget, refcount pinning, thread
// safety) plus end-to-end integration: multi-epoch daemon runs with the
// cache on/off must ship byte-identical streams, and eviction pressure
// while sender lanes hold views must never corrupt in-flight data.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>
#include <tuple>
#include <vector>

#include "cache/sample_cache.h"
#include "core/daemon.h"
#include "core/service.h"
#include "msgpack/batch_codec.h"
#include "net/sim_channel.h"
#include "train/trainer.h"
#include "workload/materialize.h"

namespace emlio::cache {
namespace {

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>((seed * 31 + i) & 0xff);
  return v;
}

SampleCacheConfig tiny_config(CachePolicy policy, std::size_t capacity) {
  SampleCacheConfig cc;
  cc.capacity_bytes = capacity;
  cc.policy = policy;
  cc.shards = 1;  // deterministic eviction order for the policy tests
  return cc;
}

TEST(SampleCachePolicy, ParseRoundTrip) {
  EXPECT_EQ(parse_policy("clock"), CachePolicy::kClock);
  EXPECT_EQ(parse_policy("lru"), CachePolicy::kLru);
  EXPECT_FALSE(parse_policy("mru").has_value());
  EXPECT_STREQ(policy_name(CachePolicy::kClock), "clock");
  EXPECT_STREQ(policy_name(CachePolicy::kLru), "lru");
}

TEST(SampleCacheUnit, InsertFindRoundTrip) {
  SampleCache cache(tiny_config(CachePolicy::kClock, 64 * 1024));
  SampleKey key{3, 41};
  EXPECT_FALSE(cache.find(key).has_value());

  auto bytes = pattern_bytes(512, 41);
  auto inserted = cache.insert(key, bytes);
  ASSERT_TRUE(inserted.has_value());
  EXPECT_TRUE(inserted->owns_storage());
  EXPECT_EQ(inserted->to_vector(), bytes);

  auto hit = cache.find(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->to_vector(), bytes);
  EXPECT_TRUE(hit->shares_storage_with(*inserted));  // one resident copy

  auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.resident_bytes, 512u);
}

TEST(SampleCacheUnit, DuplicateInsertReturnsResidentEntry) {
  SampleCache cache(tiny_config(CachePolicy::kLru, 64 * 1024));
  SampleKey key{1, 1};
  auto bytes = pattern_bytes(100, 1);
  auto first = cache.insert(key, bytes);
  auto second = cache.insert(key, bytes);
  ASSERT_TRUE(first && second);
  EXPECT_TRUE(second->shares_storage_with(*first));
  auto s = cache.stats();
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(SampleCacheUnit, LruEvictsLeastRecentlyUsed) {
  // Budget fits exactly three 1 KiB entries.
  SampleCache cache(tiny_config(CachePolicy::kLru, 3 * 1024));
  auto insert = [&](std::uint64_t i) {
    ASSERT_TRUE(cache.insert({0, i}, pattern_bytes(1024, i)).has_value());
  };
  insert(0);
  insert(1);
  insert(2);
  (void)cache.find({0, 0});  // 0 becomes MRU; 1 is now the LRU victim
  insert(3);

  EXPECT_TRUE(cache.find({0, 0}).has_value());
  EXPECT_FALSE(cache.find({0, 1}).has_value());
  EXPECT_TRUE(cache.find({0, 2}).has_value());
  EXPECT_TRUE(cache.find({0, 3}).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SampleCacheUnit, ClockGivesReferencedEntriesASecondChance) {
  SampleCache cache(tiny_config(CachePolicy::kClock, 2 * 1024));
  ASSERT_TRUE(cache.insert({0, 0}, pattern_bytes(1024, 0)).has_value());
  ASSERT_TRUE(cache.insert({0, 1}, pattern_bytes(1024, 1)).has_value());
  // The hand starts at entry 1 (most recent insert is the list head). Its
  // reference bit makes the hand skip it and evict entry 0 instead.
  (void)cache.find({0, 1});
  ASSERT_TRUE(cache.insert({0, 2}, pattern_bytes(1024, 2)).has_value());

  EXPECT_FALSE(cache.find({0, 0}).has_value());
  EXPECT_TRUE(cache.find({0, 1}).has_value());
  EXPECT_TRUE(cache.find({0, 2}).has_value());
}

TEST(SampleCacheUnit, ByteBudgetHoldsUnderChurn) {
  for (auto policy : {CachePolicy::kClock, CachePolicy::kLru}) {
    SampleCache cache(tiny_config(policy, 8 * 1024));
    for (std::uint64_t i = 0; i < 100; ++i) {
      (void)cache.insert({0, i}, pattern_bytes(512, i));
      EXPECT_LE(cache.stats().resident_bytes, 8u * 1024) << policy_name(policy);
    }
    auto s = cache.stats();
    EXPECT_LE(s.resident_bytes_peak, 8u * 1024) << policy_name(policy);
    EXPECT_GE(s.evictions, 80u) << policy_name(policy);
    EXPECT_EQ(s.inserts, 100u) << policy_name(policy);
  }
}

TEST(SampleCacheUnit, OversizedInsertRejected) {
  SampleCache cache(tiny_config(CachePolicy::kClock, 1024));
  EXPECT_FALSE(cache.insert({0, 0}, pattern_bytes(2048, 0)).has_value());
  auto s = cache.stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.resident_bytes, 0u);
}

// The tentpole guarantee: an entry whose bytes a sender lane (or any other
// consumer) still references is pinned — eviction pressure walks around it
// and the held view's bytes stay intact, for both policies.
TEST(SampleCacheUnit, PinnedEntrySurvivesEvictionPressure) {
  for (auto policy : {CachePolicy::kClock, CachePolicy::kLru}) {
    SCOPED_TRACE(policy_name(policy));
    SampleCache cache(tiny_config(policy, 3 * 1024));
    auto expected = pattern_bytes(1024, 7);
    auto pinned = cache.insert({0, 7}, expected);
    ASSERT_TRUE(pinned.has_value());  // holding this view pins the entry

    // Enough churn to evict everything evictable several times over.
    for (std::uint64_t i = 100; i < 120; ++i) {
      (void)cache.insert({0, i}, pattern_bytes(1024, i));
    }

    auto s = cache.stats();
    EXPECT_GE(s.evictions, 17u);
    EXPECT_GE(s.pinned_skips, 1u);
    EXPECT_LE(s.resident_bytes, 3u * 1024);
    EXPECT_EQ(pinned->to_vector(), expected);  // bytes never recycled
    EXPECT_TRUE(cache.find({0, 7}).has_value());

    // Dropping the last outside handle unpins it; churn now evicts it.
    pinned.reset();
    for (std::uint64_t i = 200; i < 220; ++i) {
      (void)cache.insert({0, i}, pattern_bytes(1024, i));
    }
    EXPECT_FALSE(cache.find({0, 7}).has_value());
  }
}

TEST(SampleCacheUnit, InsertRejectedWhenEveryCandidateIsPinned) {
  SampleCache cache(tiny_config(CachePolicy::kClock, 2 * 1024));
  auto a = cache.insert({0, 0}, pattern_bytes(1024, 0));
  auto b = cache.insert({0, 1}, pattern_bytes(1024, 1));
  ASSERT_TRUE(a && b);
  // Both entries pinned by the held views: nothing can make room.
  EXPECT_FALSE(cache.insert({0, 2}, pattern_bytes(1024, 2)).has_value());
  auto s = cache.stats();
  EXPECT_GE(s.rejected, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_TRUE(cache.find({0, 0}).has_value());
  EXPECT_TRUE(cache.find({0, 1}).has_value());
}

TEST(SampleCacheUnit, ClearDropsUnpinnedKeepsPinned) {
  SampleCache cache(tiny_config(CachePolicy::kLru, 64 * 1024));
  auto held = cache.insert({0, 0}, pattern_bytes(256, 0));
  ASSERT_TRUE(held.has_value());
  ASSERT_TRUE(cache.insert({0, 1}, pattern_bytes(256, 1)).has_value());

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 1u);  // the pinned entry stays tracked
  EXPECT_TRUE(cache.find({0, 0}).has_value());
  EXPECT_FALSE(cache.find({0, 1}).has_value());

  held.reset();
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
}

// Run under ThreadSanitizer in CI: concurrent find/insert/hold across
// shards, every returned view's contents verified against its key.
TEST(SampleCacheUnit, ConcurrentMixedLoadStaysConsistent) {
  SampleCacheConfig cc;
  cc.capacity_bytes = 256 * 1024;  // far smaller than the working set: churn
  cc.policy = CachePolicy::kClock;
  cc.shards = 4;
  SampleCache cache(cc);

  constexpr int kThreads = 4;
  constexpr int kIters = 4000;
  constexpr std::uint64_t kKeys = 1024;
  std::atomic<std::uint64_t> corrupt{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        std::uint64_t k = (static_cast<std::uint64_t>(i) * 2654435761u + t * 97u) % kKeys;
        SampleKey key{9, k};
        auto view = cache.find(key);
        if (!view) view = cache.insert(key, pattern_bytes(512 + k % 256, k));
        if (view && view->to_vector() != pattern_bytes(512 + k % 256, k)) {
          corrupt.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(corrupt.load(), 0u);
  auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_LE(s.resident_bytes, cc.capacity_bytes);
}

}  // namespace
}  // namespace emlio::cache

// ------------------------------------------------------------- integration

namespace emlio::core {
namespace {

namespace fs = std::filesystem;

class CacheIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("emlio_cache_" + std::to_string(::getpid()) + "_" +
                                        ::testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name());
    fs::create_directories(dir_);
    spec_ = workload::presets::tiny(48, 900);
    workload::materialize_tfrecord(spec_, dir_.string(), 3);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ServiceConfig config(std::size_t cache_bytes) {
    ServiceConfig cfg;
    cfg.dataset_dir = dir_.string();
    cfg.batch_size = 8;
    cfg.epochs = 3;
    cfg.threads_per_node = 2;
    cfg.cache_bytes = cache_bytes;
    return cfg;
  }

  fs::path dir_;
  workload::DatasetSpec spec_;
};

/// Everything observable about one wire batch, deep-copied for comparison.
using FlatBatch = std::tuple<std::uint64_t,  // batch_id
                             std::vector<std::tuple<std::uint64_t, std::int64_t,
                                                    std::vector<std::uint8_t>>>>;

std::vector<std::vector<FlatBatch>> drain_all_epochs(EmlioService& service) {
  std::vector<std::vector<FlatBatch>> epochs(1);
  while (auto batch = service.next_batch()) {
    if (batch->last) {
      epochs.emplace_back();
      continue;
    }
    std::vector<std::tuple<std::uint64_t, std::int64_t, std::vector<std::uint8_t>>> samples;
    for (const auto& s : batch->samples) {
      samples.emplace_back(s.index, s.label, s.bytes.to_vector());
    }
    epochs.back().emplace_back(batch->batch_id, std::move(samples));
  }
  while (!epochs.empty() && epochs.back().empty()) epochs.pop_back();
  return epochs;
}

// Acceptance criterion: cache-on and cache-off runs of the same plan ship
// byte-identical streams, and the cache counters reconcile exactly with the
// plan's sample counts — all misses in epoch 0, all hits afterwards, zero
// storage reads once warm.
TEST_F(CacheIntegrationTest, WarmEpochsSkipStorageWithByteIdenticalStreams) {
  std::vector<std::vector<FlatBatch>> off_stream, on_stream;
  DaemonStats on_stats;

  {
    EmlioService service(config(/*cache_bytes=*/0));
    service.start();
    off_stream = drain_all_epochs(service);
    service.stop();
    auto s = service.stats().daemon;
    EXPECT_EQ(s.cache.hits + s.cache.misses, 0u);  // cache off: untouched
    EXPECT_EQ(s.store_reads, 18u);                 // 6 batches x 3 epochs
  }
  {
    EmlioService service(config(/*cache_bytes=*/64u << 20));
    service.start();
    on_stream = drain_all_epochs(service);
    service.stop();
    on_stats = service.stats().daemon;
  }

  ASSERT_EQ(off_stream.size(), 3u);
  EXPECT_EQ(off_stream, on_stream);

  // Counter reconciliation against the plan: 48 samples/epoch, 6 batches.
  EXPECT_EQ(on_stats.cache.misses, 48u);       // every sample missed once
  EXPECT_EQ(on_stats.cache.hits, 96u);         // ... and hit twice
  EXPECT_EQ(on_stats.cache.inserts, 48u);
  EXPECT_EQ(on_stats.cache.evictions, 0u);     // dataset fits the budget
  EXPECT_EQ(on_stats.store_reads, 6u);         // cold epoch only
  EXPECT_EQ(on_stats.store_records_read, 48u);
  EXPECT_EQ(on_stats.samples_sent, 144u);
  // Every sample resident after the cold epoch (generated payloads average
  // just under the spec's 900 B nominal size).
  EXPECT_GE(on_stats.cache.resident_bytes_peak, 48u * 800);
}

// Eviction pressure with in-flight consumers: a budget of ~4 samples forces
// the cache to evict continuously while sender lanes and the receiver hold
// views into cached storage. Every delivered sample must still be intact
// (the Trainer CRC-checks payload contents) — recycled-while-referenced
// bytes would surface as corrupt samples.
TEST_F(CacheIntegrationTest, EvictionUnderPressureNeverCorruptsInFlightData) {
  auto cfg = config(/*cache_bytes=*/4 * 1024);
  cfg.cache_policy = "lru";
  EmlioService service(cfg);
  service.start();

  for (std::uint32_t epoch = 0; epoch < 3; ++epoch) {
    train::TrainerOptions topt;
    topt.expected_samples_per_epoch = spec_.num_samples;
    train::Trainer trainer(topt);
    trainer.start_epoch(epoch);
    while (auto batch = service.next_batch()) {
      if (batch->last) break;
      trainer.train_step(*batch);
    }
    auto result = trainer.end_epoch();
    EXPECT_TRUE(result.clean(spec_.num_samples))
        << "epoch " << epoch << " dups=" << result.duplicate_samples
        << " corrupt=" << result.corrupt_samples;
  }
  service.stop();

  auto s = service.stats().daemon;
  EXPECT_GT(s.cache.evictions, 0u);
  EXPECT_LE(s.cache.resident_bytes_peak, 4u * 1024);
  EXPECT_GT(s.store_reads, 6u);  // partial hits: storage still consulted
  EXPECT_EQ(s.errors, 0u);
}

// Verify-once: with verify_crc on, a record's CRC is checked when it is read
// from storage and inserted, never again on a hit. Corrupting the shard
// bytes of a CACHED record therefore goes unnoticed (the clean cached copy
// is served) even in a batch that also reads misses from storage, while a
// corrupted MISS still fails its batch.
TEST_F(CacheIntegrationTest, PartialHitBatchVerifiesOnlyItsMisses) {
  auto indexes = tfrecord::load_all_indexes(dir_.string());
  ASSERT_FALSE(indexes.empty());
  const tfrecord::ShardIndex shard = indexes[0];
  ASSERT_GE(shard.num_records(), 6u);

  std::vector<std::vector<std::uint8_t>> original;
  {
    tfrecord::ShardReader reader(shard);
    for (std::size_t i = 0; i < 6; ++i) {
      auto v = reader.record(i, /*verify=*/true);
      original.emplace_back(v.begin(), v.end());
    }
  }
  auto corrupt_payload = [&](std::size_t record) {
    std::fstream f(shard.shard_path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(shard.records[record].offset + 12));  // past the header
    f.put(static_cast<char>(original[record][0] ^ 0xFF));
  };

  auto ch = net::make_sim_channel({});
  std::vector<tfrecord::ShardReader> readers;
  readers.emplace_back(shard);
  DaemonConfig dc;
  dc.verify_crc = true;
  dc.cache_bytes = 64u << 20;
  std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> sinks{
      {0u, std::shared_ptr<net::MessageSink>(std::move(ch.sink))}};
  Daemon daemon(dc, std::move(readers), sinks);

  // One single-batch epoch of records [0, count).
  auto serve = [&](std::uint32_t epoch, std::uint32_t count) {
    BatchAssignment a;
    a.epoch = epoch;
    a.shard_id = shard.shard_id;
    a.count = count;
    WorkerPlan worker;
    worker.batches.push_back(a);
    NodePlan node;
    node.workers.push_back(worker);
    EpochPlan plan;
    plan.epoch = epoch;
    plan.nodes.push_back(node);
    return daemon.serve_epoch(plan);
  };
  auto next_data_batch = [&] {
    while (auto payload = ch.source->recv()) {
      auto batch = msgpack::BatchCodec::decode(*payload);
      if (!batch.last) return batch;
    }
    ADD_FAILURE() << "stream ended";
    return msgpack::WireBatch{};
  };

  ASSERT_TRUE(serve(0, 2)) << daemon.last_error();  // records 0-1 cached
  next_data_batch();

  corrupt_payload(1);  // cached
  ASSERT_TRUE(serve(1, 4)) << daemon.last_error();  // hits 0-1, misses 2-3
  auto batch = next_data_batch();
  ASSERT_EQ(batch.samples.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(batch.samples[i].bytes.to_vector(), original[i]);

  corrupt_payload(5);  // not cached
  EXPECT_FALSE(serve(2, 6));  // hits 0-3 (one corrupt on disk), misses 4-5
  EXPECT_NE(daemon.last_error().find("payload CRC mismatch"), std::string::npos)
      << daemon.last_error();

  auto s = daemon.stats();
  EXPECT_EQ(s.cache.hits, 2u + 4u);
  EXPECT_EQ(s.store_records_read, 2u + 2u + 2u);  // misses only
}

TEST_F(CacheIntegrationTest, UnknownCachePolicyThrowsAtConstruction) {
  auto cfg = config(1 << 20);
  cfg.cache_policy = "mru";
  EXPECT_THROW(EmlioService service(cfg), std::runtime_error);
}

// The serial (non-pipelined) engine shares build_batch and therefore the
// cache: warm epochs skip storage there too.
TEST_F(CacheIntegrationTest, SerialEngineUsesTheCacheToo) {
  auto cfg = config(/*cache_bytes=*/64u << 20);
  cfg.pipelined = false;
  EmlioService service(cfg);
  service.start();
  auto stream = drain_all_epochs(service);
  service.stop();

  ASSERT_EQ(stream.size(), 3u);
  auto s = service.stats().daemon;
  EXPECT_EQ(s.store_reads, 6u);  // cold epoch only
  EXPECT_EQ(s.cache.hits, 96u);
  EXPECT_EQ(s.cache.misses, 48u);
}

}  // namespace
}  // namespace emlio::core
