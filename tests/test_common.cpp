// Unit tests for src/common: byte buffers, CRC32C, RNG, queues, pools,
// barrier, clocks and the timestamp logger.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "common/barrier.h"
#include "common/bounded_queue.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timestamp_logger.h"

namespace emlio {
namespace {

// ---------------------------------------------------------------- bytes

TEST(Bytes, PushAndReadLittleEndian) {
  ByteBuffer buf;
  buf.push_u16le(0x1234);
  buf.push_u32le(0xDEADBEEF);
  buf.push_u64le(0x0123456789ABCDEFull);
  ByteReader r(buf.view());
  EXPECT_EQ(r.read_u16le(), 0x1234);
  EXPECT_EQ(r.read_u32le(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64le(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, PushAndReadBigEndian) {
  ByteBuffer buf;
  buf.push_u16be(0x1234);
  buf.push_u32be(0xCAFEBABE);
  buf.push_u64be(42);
  EXPECT_EQ(buf.data()[0], 0x12);  // big-endian: MSB first
  EXPECT_EQ(buf.data()[1], 0x34);
  ByteReader r(buf.view());
  EXPECT_EQ(r.read_u16be(), 0x1234);
  EXPECT_EQ(r.read_u32be(), 0xCAFEBABEu);
  EXPECT_EQ(r.read_u64be(), 42u);
}

TEST(Bytes, DoubleRoundTrip) {
  ByteBuffer buf;
  buf.push_f64be(3.14159265358979);
  buf.push_f64be(-0.0);
  buf.push_f64be(1e308);
  ByteReader r(buf.view());
  EXPECT_DOUBLE_EQ(r.read_f64be(), 3.14159265358979);
  EXPECT_DOUBLE_EQ(r.read_f64be(), -0.0);
  EXPECT_DOUBLE_EQ(r.read_f64be(), 1e308);
}

TEST(Bytes, ReaderThrowsOnTruncation) {
  ByteBuffer buf;
  buf.push_u16le(7);
  ByteReader r(buf.view());
  r.read_u8();
  EXPECT_THROW(r.read_u32le(), std::out_of_range);
}

TEST(Bytes, ReadBytesAndSkip) {
  auto v = to_bytes("hello world");
  ByteReader r(v);
  r.skip(6);
  auto tail = r.read_bytes(5);
  EXPECT_EQ(to_string(tail), "world");
  EXPECT_THROW(r.skip(1), std::out_of_range);
}

TEST(Bytes, StringConversionRoundTrip) {
  std::string s = "emlio\0binary\xff";
  auto bytes = to_bytes(s);
  EXPECT_EQ(to_string(bytes), s);
}

TEST(Bytes, TakeLeavesBufferEmpty) {
  ByteBuffer buf;
  buf.push_bytes(std::string_view("abc"));
  auto v = buf.take();
  EXPECT_EQ(v.size(), 3u);
  EXPECT_TRUE(buf.empty());
}

// ---------------------------------------------------------------- crc32c

TEST(Crc32c, KnownVectors) {
  // RFC 3720-style check: crc32c("123456789") = 0xE3069283.
  auto bytes = to_bytes("123456789");
  EXPECT_EQ(crc32c::compute(bytes), 0xE3069283u);
}

TEST(Crc32c, EmptyInputIsZero) {
  EXPECT_EQ(crc32c::compute({}), 0u);
}

TEST(Crc32c, MaskUnmaskIsIdentity) {
  for (std::uint32_t crc : {0u, 1u, 0xE3069283u, 0xFFFFFFFFu, 0x12345678u}) {
    EXPECT_EQ(crc32c::unmask(crc32c::mask(crc)), crc);
  }
}

TEST(Crc32c, MaskChangesValue) {
  EXPECT_NE(crc32c::mask(0xE3069283u), 0xE3069283u);
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> out(n);
  Rng rng(seed);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(Crc32c, PortableKernelMatchesKnownVector) {
  auto bytes = to_bytes("123456789");
  EXPECT_EQ(crc32c::detail::compute_portable(bytes), 0xE3069283u);
  EXPECT_EQ(crc32c::detail::compute_portable({}), 0u);
}

// Every length through the byte, word and short three-stream paths, at
// every start misalignment (the hardware kernel aligns its word loads).
TEST(Crc32c, DispatchedMatchesPortableAtEveryLengthAndAlignment) {
  const auto buf = random_bytes(1024 + 16, 11);
  const std::span<const std::uint8_t> all(buf);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      auto s = all.subspan(offset, len);
      ASSERT_EQ(crc32c::compute(s), crc32c::detail::compute_portable(s))
          << "offset " << offset << " len " << len;
    }
  }
}

// Sizes around the three-stream block boundaries: the workloads' 4 KiB,
// 100 KiB and 2 MiB records, each also +1 and +7 bytes.
TEST(Crc32c, DispatchedMatchesPortableOnRecordSizes) {
  const auto buf = random_bytes((2u << 20) + 8, 12);
  const std::span<const std::uint8_t> all(buf);
  for (std::size_t base : {std::size_t{4} << 10, std::size_t{100} << 10, std::size_t{2} << 20}) {
    for (std::size_t extra : {0u, 1u, 7u}) {
      auto s = all.subspan(0, base + extra);
      EXPECT_EQ(crc32c::compute(s), crc32c::detail::compute_portable(s))
          << "len " << base + extra;
      EXPECT_EQ(crc32c::compute(s, 0x12345678u), crc32c::detail::compute_portable(s, 0x12345678u))
          << "continued, len " << base + extra;
    }
  }
}

TEST(Crc32c, ContinuationMatchesOneShot) {
  const auto buf = random_bytes(64 << 10, 13);
  const std::span<const std::uint8_t> all(buf);
  Rng rng(14);
  for (int trial = 0; trial < 200; ++trial) {
    auto len = static_cast<std::size_t>(rng() % (all.size() + 1));
    auto split = static_cast<std::size_t>(rng() % (len + 1));
    auto a = all.subspan(0, split);
    auto b = all.subspan(split, len - split);
    auto whole = all.subspan(0, len);
    ASSERT_EQ(crc32c::compute(b, crc32c::compute(a)), crc32c::compute(whole))
        << "len " << len << " split " << split;
    ASSERT_EQ(crc32c::detail::compute_portable(b, crc32c::detail::compute_portable(a)),
              crc32c::compute(whole))
        << "len " << len << " split " << split;
  }
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, UniformBoundZeroAndOne) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform(0), 0u);
  EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  constexpr int kN = 50000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kN;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt((sum_sq - kN * mean * mean) / (kN - 1)), 2.0, 0.05);  // sample stddev
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  constexpr int kN = 50000;
  double sum = 0;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(original.begin(), original.end());
  EXPECT_EQ(a, b);  // same elements
}

TEST(Rng, ShuffleDeterministicPerSeed) {
  std::vector<int> v1{1, 2, 3, 4, 5, 6}, v2{1, 2, 3, 4, 5, 6};
  Rng a(99), b(99);
  a.shuffle(v1);
  b.shuffle(v2);
  EXPECT_EQ(v1, v2);
}

TEST(Rng, ForkGivesIndependentStream) {
  Rng a(1);
  Rng child = a.fork();
  EXPECT_NE(a(), child());
}

// ---------------------------------------------------------------- queue

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop().value(), i);
}

TEST(BoundedQueue, TryPopEmpty) {
  BoundedQueue<int> q(2);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BoundedQueue, CloseDrainsThenReturnsNullopt) {
  BoundedQueue<int> q(4);
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, BlockingPushUnblocksOnPop) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread t([&] {
    q.push(2);
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.pop().value(), 1);
  t.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop().value(), 2);
}

TEST(BoundedQueue, CloseUnblocksWaitingProducer) {
  BoundedQueue<int> q(1);
  q.push(1);
  std::thread t([&] { EXPECT_FALSE(q.push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  t.join();
}

TEST(BoundedQueue, PushRejectedByCloseLeavesItemRecoverable) {
  // The contract the receiver's ingest threads depend on: a push that loses
  // the race with close() must NOT consume the item — the producer gets to
  // keep (account for, inspect, or deliberately drop) it.
  BoundedQueue<std::vector<int>> q(1);
  std::vector<int> first{1, 2, 3};
  ASSERT_TRUE(q.push(first));
  EXPECT_TRUE(first.empty());  // accepted items ARE moved from

  std::vector<int> second{4, 5, 6};
  std::atomic<bool> rejected{false};
  std::thread t([&] {
    if (!q.push(second)) rejected = true;  // blocks on the full queue
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();  // closes while the producer waits mid-push
  t.join();
  EXPECT_TRUE(rejected.load());
  EXPECT_EQ(second, (std::vector<int>{4, 5, 6}));  // value survived rejection
}

TEST(BoundedQueue, CloseThenDrainDeliversEverythingAccepted) {
  // Close/drain semantics: everything accepted before close() comes out of
  // pop() in order; nothing accepted after close() exists to come out.
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.push(i));
  q.close();
  EXPECT_FALSE(q.push(99));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop().value(), i);
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BoundedQueue, ManyProducersManyConsumers) {
  BoundedQueue<int> q(16);
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::atomic<long> sum{0};
  std::atomic<int> count{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) q.push(p * kPerProducer + i);
    });
  }
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        sum += *v;
        ++count;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.close();
  for (std::size_t c = kProducers; c < threads.size(); ++c) threads[c].join();
  int n = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), static_cast<long>(n) * (n - 1) / 2);
}

/// Spin until `done()` or 5 s pass; the caller asserts on the result.
template <typename Pred>
void wait_until(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(BoundedQueue, TryCallsCountNoStall) {
  BoundedQueue<int> q(1);
  EXPECT_FALSE(q.try_pop().has_value());  // empty
  const auto c = q.counts();
  EXPECT_EQ(c.enqueue_stalls, 0u);
  EXPECT_EQ(c.dequeue_stalls, 0u);
}

TEST(BoundedQueue, BlockingCallsThatWaitCountOneStallEach) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));  // room: no stall
  // A push that finds the queue full waits: one enqueue stall.
  std::thread producer([&] { EXPECT_TRUE(q.push(2)); });
  wait_until([&] { return q.counts().enqueue_stalls == 1; });
  ASSERT_EQ(q.counts().enqueue_stalls, 1u);
  EXPECT_EQ(q.pop().value(), 1);  // not empty: no stall
  producer.join();
  EXPECT_EQ(q.pop().value(), 2);
  // A pop that finds the queue empty waits: one dequeue stall.
  std::thread consumer([&] { EXPECT_EQ(q.pop().value(), 3); });
  wait_until([&] { return q.counts().dequeue_stalls == 1; });
  ASSERT_EQ(q.counts().dequeue_stalls, 1u);
  ASSERT_TRUE(q.push(3));
  consumer.join();
  // Calls that return at once on a closed queue never wait.
  q.close();
  EXPECT_FALSE(q.push(4));
  EXPECT_FALSE(q.pop().has_value());
  const auto c = q.counts();
  EXPECT_EQ(c.enqueue_stalls, 1u);
  EXPECT_EQ(c.dequeue_stalls, 1u);
  EXPECT_EQ(c.peak_depth, 1u);
  EXPECT_TRUE(c.closed);
}

TEST(BoundedQueue, PopAndTryPopBothCountPops) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.push(i));
  EXPECT_EQ(q.pop().value(), 0);
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_EQ(q.counts().pops, 2u);
  q.close();
  EXPECT_EQ(q.pop().value(), 2);  // a closed queue still drains, and counts
  EXPECT_FALSE(q.try_pop().has_value());
  EXPECT_EQ(q.counts().pops, 3u);
}

// ---------------------------------------------------------------- pool

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.post([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  auto f = pool.submit([] { return 1; });
  EXPECT_EQ(f.get(), 1);
}

TEST(ThreadPool, WaitIdleWithNoTasks) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
}

/// Records, in run order, the tag of each task a pool runs.
struct RunOrder {
  std::mutex mu;
  std::string order;
  void ran(char tag) {
    std::lock_guard<std::mutex> lock(mu);
    order += tag;
  }
};

TEST(ThreadPool, LatePosterRunsNextNotBehindTheBacklog) {
  // Poster A posts 8 tasks, then poster B posts 1, on a 1-thread pool: B's
  // task runs second. A's first task holds the worker until B has posted,
  // so the order does not depend on when the worker wakes.
  ThreadPool pool(1);
  std::promise<void> posted;
  std::shared_future<void> gate = posted.get_future().share();
  RunOrder r;
  pool.post(1, [&r, gate] {
    gate.wait();
    r.ran('A');
  });
  for (int i = 1; i < 8; ++i) pool.post(1, [&r] { r.ran('A'); });
  pool.post(2, [&r] { r.ran('B'); });
  posted.set_value();
  pool.wait_idle();
  EXPECT_EQ(r.order, "ABAAAAAAA");
}

TEST(ThreadPool, BackloggedQueuesTakeTurnsAndEmptyOnesAreSkipped) {
  // Plain post() is queue 0. Each turn serves every non-empty queue once,
  // in queue order from the cursor; a drained queue drops out of the turn.
  ThreadPool pool(1);
  std::promise<void> posted;
  std::shared_future<void> gate = posted.get_future().share();
  RunOrder r;
  pool.post([&r, gate] {
    gate.wait();
    r.ran('0');
  });
  pool.post([&r] { r.ran('0'); });
  for (int i = 0; i < 2; ++i) pool.post(1, [&r] { r.ran('b'); });
  for (int i = 0; i < 3; ++i) pool.post(2, [&r] { r.ran('c'); });
  posted.set_value();
  pool.wait_idle();
  EXPECT_EQ(r.order, "0bc0bcc");
}

// ---------------------------------------------------------------- barrier

TEST(CyclicBarrier, AlignsThreadsOverGenerations) {
  CyclicBarrier barrier(3);
  std::atomic<int> phase_counts[3] = {{0}, {0}, {0}};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int g = 0; g < 3; ++g) {
        std::size_t gen = barrier.arrive_and_wait();
        ++phase_counts[gen];
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int g = 0; g < 3; ++g) EXPECT_EQ(phase_counts[g].load(), 3);
}

TEST(CyclicBarrier, SinglePartyNeverBlocks) {
  CyclicBarrier barrier(1);
  EXPECT_EQ(barrier.arrive_and_wait(), 0u);
  EXPECT_EQ(barrier.arrive_and_wait(), 1u);
}

TEST(CyclicBarrier, TimeoutWhenPeerAbsent) {
  CyclicBarrier barrier(2);
  EXPECT_FALSE(barrier.arrive_and_wait_for(std::chrono::milliseconds(20)));
}

// ---------------------------------------------------------------- clocks

TEST(Clock, SteadyClockMonotonic) {
  const auto& c = SteadyClock::instance();
  Nanos a = c.now();
  Nanos b = c.now();
  EXPECT_GE(b, a);
}

TEST(Clock, ManualClockAdvances) {
  ManualClock c(100);
  EXPECT_EQ(c.now(), 100);
  c.advance(50);
  EXPECT_EQ(c.now(), 150);
  c.set(10);
  EXPECT_EQ(c.now(), 10);
}

TEST(Clock, ConversionHelpers) {
  EXPECT_EQ(from_seconds(1.5), 1'500'000'000);
  EXPECT_EQ(from_millis(2.0), 2'000'000);
  EXPECT_EQ(from_micros(3.0), 3'000);
  EXPECT_DOUBLE_EQ(to_seconds(2'500'000'000), 2.5);
}

TEST(Clock, StopwatchMeasuresManualTime) {
  ManualClock c;
  Stopwatch sw(c);
  c.advance(from_seconds(2));
  EXPECT_DOUBLE_EQ(sw.elapsed_seconds(), 2.0);
  sw.reset();
  EXPECT_EQ(sw.elapsed(), 0);
}

// ------------------------------------------------------- timestamp logger

TEST(TimestampLogger, RecordsInOrderWithClock) {
  ManualClock c;
  TimestampLogger log(c);
  log.record("epoch_start", 0);
  c.advance(from_seconds(5));
  log.record("batch_send", 1);
  c.advance(from_seconds(5));
  log.record("epoch_end", 0);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.span("epoch_start", "epoch_end"), from_seconds(10));
}

TEST(TimestampLogger, SpanMissingLabelsIsZero) {
  ManualClock c;
  TimestampLogger log(c);
  log.record("a");
  EXPECT_EQ(log.span("a", "b"), 0);
  EXPECT_EQ(log.span("x", "a"), 0);
}

TEST(TimestampLogger, FilterByLabel) {
  ManualClock c;
  TimestampLogger log(c);
  log.record("batch_send", 1);
  log.record("batch_recv", 1);
  log.record("batch_send", 2);
  EXPECT_EQ(log.events_with_label("batch_send").size(), 2u);
  EXPECT_EQ(log.events_with_label("batch_recv").size(), 1u);
}

TEST(TimestampLogger, ThreadSafeConcurrentRecords) {
  TimestampLogger log(SteadyClock::instance());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 250; ++i) log.record("event", i);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(log.size(), 1000u);
}

}  // namespace
}  // namespace emlio
