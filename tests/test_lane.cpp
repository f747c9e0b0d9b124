// Tests for the shared lane layer (common/lane.h): Lane queue/counter
// semantics, the RatePacer token bucket, and the RoundRobin admission
// arbiter. Admission across lanes is tested where it runs, at the receiver
// (test_qos: the Receiver* admission tests). Runs in the TSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/lane.h"

namespace emlio {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------------ Lane<T>

TEST(Lane, PushPopCountsAndPeakDepth) {
  Lane<int> lane("l", 4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(lane.push(i));
  EXPECT_EQ(lane.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    auto v = lane.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);  // FIFO
  }
  lane.close();
  EXPECT_FALSE(lane.pop().has_value());
  auto s = lane.stats();
  EXPECT_EQ(s.delivered_items, 4u);
  EXPECT_EQ(s.queue_peak_depth, 4u);
  EXPECT_EQ(s.enqueue_stalls, 0u);
  EXPECT_TRUE(s.closed);
}

TEST(Lane, FullLaneStallsProducerAndCountsOnce) {
  Lane<int> lane("l", 1);
  int v = 1;
  EXPECT_TRUE(lane.push(v));
  std::thread producer([&] {
    int w = 2;
    EXPECT_TRUE(lane.push(w));  // blocks until the pop below
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(lane.pop().value(), 1);
  producer.join();
  EXPECT_EQ(lane.pop().value(), 2);
  EXPECT_EQ(lane.stats().enqueue_stalls, 1u);
}

TEST(Lane, RejectedPushLeavesItemWithCaller) {
  Lane<std::vector<int>> lane("l", 2);
  lane.close();
  std::vector<int> item{1, 2, 3};
  EXPECT_FALSE(lane.push(item));
  EXPECT_EQ(item.size(), 3u);  // recoverable — BoundedQueue contract
}

TEST(Lane, EmptyPopCountsDequeueStall) {
  Lane<int> lane("l", 4);
  std::thread consumer([&] { EXPECT_FALSE(lane.pop().has_value()); });
  std::this_thread::sleep_for(20ms);
  lane.close();
  consumer.join();
  EXPECT_EQ(lane.stats().dequeue_stalls, 1u);
}

// ---------------------------------------------------------------- RatePacer

TEST(RatePacer, SpacesItemsAtTheRate) {
  // 20 items/sec, burst 1 — after the first (burst) token, ~50 ms per item.
  RatePacer pacer(20);
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 4; ++i) pacer.pace();
  auto elapsed = std::chrono::steady_clock::now() - t0;
  // 3 tokens must mature after the burst: >= ~150 ms (generous lower bound
  // to stay robust on loaded CI hosts).
  EXPECT_GE(elapsed, 100ms);
}

TEST(RatePacer, UncappedNeverWaits) {
  RatePacer pacer(0);
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 100000; ++i) pacer.pace();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);
}

TEST(RatePacer, StoppedPacerDoesNotWait) {
  RatePacer pacer(1);  // 1/sec — a waiting pacer would time this test out
  pacer.pace();        // the burst token
  // A pace() already waiting for its token returns as soon as stop() runs.
  std::thread stopper([&] {
    std::this_thread::sleep_for(50ms);
    pacer.stop();
  });
  auto t0 = std::chrono::steady_clock::now();
  pacer.pace();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 500ms);
  stopper.join();
  // And every later pace() returns at once.
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 8; ++i) pacer.pace();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 500ms);
}

TEST(Lane, TryPopTakesTheHeadWithoutBlocking) {
  Lane<int> lane("l", 4);
  EXPECT_FALSE(lane.try_pop().has_value());  // empty: no wait, no stall
  EXPECT_TRUE(lane.push(1));
  EXPECT_TRUE(lane.push(2));
  lane.close();
  EXPECT_EQ(lane.try_pop().value(), 1);  // a closed lane still drains
  EXPECT_EQ(lane.try_pop().value(), 2);
  EXPECT_FALSE(lane.try_pop().has_value());
  EXPECT_EQ(lane.stats().delivered_items, 2u);
  EXPECT_EQ(lane.stats().dequeue_stalls, 0u);
}

// --------------------------------------------------------------- RoundRobin

TEST(RoundRobin, ServesEachReadySlotOncePerTurnAndSkipsTheRest) {
  RoundRobin rr;
  // All ready: 0, 1, 2, 0, 1, 2 — one pick per slot per turn.
  std::vector<std::size_t> order;
  for (int i = 0; i < 6; ++i) order.push_back(rr.pick(3, [](std::size_t) { return true; }));
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 0, 1, 2}));
  // Slot 1 not ready: the turn skips it, without serving its neighbours
  // twice in its place.
  order.clear();
  for (int i = 0; i < 4; ++i) {
    order.push_back(rr.pick(3, [](std::size_t slot) { return slot != 1; }));
  }
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 2, 0, 2}));
  // Slot 1 ready again: the next turn serves it.
  EXPECT_EQ(rr.pick(3, [](std::size_t) { return true; }), 0u);
  EXPECT_EQ(rr.pick(3, [](std::size_t) { return true; }), 1u);
}

TEST(RoundRobin, NothingReadyReturnsNpos) {
  RoundRobin rr;
  EXPECT_EQ(rr.pick(2, [](std::size_t) { return false; }), RoundRobin::npos);
  EXPECT_EQ(rr.pick(0, [](std::size_t) { return true; }), RoundRobin::npos);
  // A miss leaves the cursor where it was.
  EXPECT_EQ(rr.pick(2, [](std::size_t) { return true; }), 0u);
}

}  // namespace
}  // namespace emlio
