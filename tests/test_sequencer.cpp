// Unit tests for the ordered-reassembly primitives (common/sequencer.h):
// Sequencer<T> (dense-sequence reorder buffer) and EpochSequencer<T>
// (multi-sender end-of-epoch accounting). These carry the delivery-order
// guarantees of both the daemon's encode lanes and the receiver's decode
// pool, so their contracts are pinned down here independently of either.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/sequencer.h"

namespace emlio {
namespace {

// ----------------------------------------------------------------- Sequencer

TEST(Sequencer, InOrderPassthrough) {
  Sequencer<int> seq;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(seq.put(static_cast<std::uint64_t>(i), i * 10));
    ASSERT_NE(seq.front(), nullptr);
    EXPECT_EQ(seq.pop_front(), i * 10);
  }
  EXPECT_TRUE(seq.empty());
  EXPECT_EQ(seq.out_of_order(), 0u);
  EXPECT_EQ(seq.next(), 5u);
}

TEST(Sequencer, ReordersArbitraryArrival) {
  Sequencer<int> seq;
  std::vector<std::uint64_t> arrival{3, 0, 4, 1, 2};
  std::vector<int> out;
  for (auto s : arrival) {
    seq.put(s, static_cast<int>(s));
    while (seq.front()) out.push_back(seq.pop_front());
  }
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(seq.empty());
}

TEST(Sequencer, HeadBlocksOnGap) {
  Sequencer<std::string> seq;
  EXPECT_FALSE(seq.put(1, "b"));  // parked behind the missing 0
  EXPECT_EQ(seq.front(), nullptr);
  EXPECT_EQ(seq.parked(), 1u);
  EXPECT_TRUE(seq.put(0, "a"));
  ASSERT_NE(seq.front(), nullptr);
  EXPECT_EQ(*seq.front(), "a");
  EXPECT_EQ(seq.pop_front(), "a");
  EXPECT_EQ(seq.pop_front(), "b");
}

TEST(Sequencer, StatsTrackDisorderAndOccupancy) {
  Sequencer<int> seq;
  seq.put(2, 2);  // out of order
  seq.put(1, 1);  // still out of order (0 missing)
  seq.put(0, 0);  // in order
  EXPECT_EQ(seq.out_of_order(), 2u);
  EXPECT_EQ(seq.max_parked(), 3u);
  while (seq.front()) seq.pop_front();
  EXPECT_EQ(seq.next(), 3u);
  EXPECT_EQ(seq.max_parked(), 3u);  // high-water mark sticks
}

TEST(Sequencer, FrontPointerAllowsInPlaceConsumption) {
  // A host may look at or move from *front() before it pop_fronts: the
  // daemon's sender checks the head for a failed encode and leaves such a
  // head parked, and pops the others.
  Sequencer<std::string> seq;
  seq.put(0, "payload");
  ASSERT_NE(seq.front(), nullptr);
  std::string stolen = std::move(*seq.front());  // consumed in place
  EXPECT_EQ(stolen, "payload");
  seq.pop_front();
  EXPECT_EQ(seq.next(), 1u);
}

TEST(Sequencer, ConcurrentProducersSingleDrainer) {
  // The usage pattern both hosts run: N threads put under a mutex, whoever
  // sees a ready head drains. Output must be a permutation-free 0..N-1.
  constexpr int kItems = 2000;
  Sequencer<int> seq;
  std::mutex mu;
  std::vector<int> out;
  std::vector<std::uint64_t> tickets(kItems);
  for (int i = 0; i < kItems; ++i) tickets[i] = static_cast<std::uint64_t>(i);
  std::shuffle(tickets.begin(), tickets.end(), std::mt19937(7));

  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  std::atomic<int> cursor{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (;;) {
        int i = cursor.fetch_add(1);
        if (i >= kItems) return;
        std::lock_guard<std::mutex> lock(mu);
        seq.put(tickets[i], static_cast<int>(tickets[i]));
        while (seq.front()) out.push_back(seq.pop_front());
      }
    });
  }
  for (auto& w : workers) w.join();
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(out[i], i);
}

// ------------------------------------------------------------ EpochSequencer

constexpr std::uint32_t kUnattributed = EpochSequencer<int>::kUnattributed;

struct Collector {
  std::vector<int> data;                                         ///< delivery order
  std::vector<std::pair<std::uint32_t, std::uint64_t>> markers;  ///< (epoch, expected)

  auto on_data() {
    return [this](int&& v) { data.push_back(v); };
  }
  auto on_marker() {
    return [this](std::uint32_t e, std::uint64_t n) { markers.emplace_back(e, n); };
  }
};

TEST(EpochSequencer, SingleSenderHappyPath) {
  EpochSequencer<int> es(1);
  Collector c;
  es.data(0, kUnattributed, 10, c.on_data(), c.on_marker());
  es.data(0, kUnattributed, 11, c.on_data(), c.on_marker());
  EXPECT_TRUE(c.markers.empty());
  es.sentinel(0, kUnattributed, 2, c.on_data(), c.on_marker());
  ASSERT_EQ(c.markers.size(), 1u);
  EXPECT_EQ(c.markers[0], (std::pair<std::uint32_t, std::uint64_t>{0, 2}));
  EXPECT_EQ(es.epochs_completed(), 1u);
  EXPECT_EQ(es.current_epoch(), 1u);
}

TEST(EpochSequencer, SentinelOvertakingDataHeldBack) {
  EpochSequencer<int> es(1);
  Collector c;
  es.sentinel(0, kUnattributed, 2, c.on_data(), c.on_marker());  // beats ALL its data
  EXPECT_TRUE(c.markers.empty());
  es.data(0, kUnattributed, 1, c.on_data(), c.on_marker());
  EXPECT_TRUE(c.markers.empty());
  es.data(0, kUnattributed, 2, c.on_data(), c.on_marker());
  ASSERT_EQ(c.markers.size(), 1u);  // only after the counted data arrived
  EXPECT_EQ(c.data.size(), 2u);
}

TEST(EpochSequencer, AllSendersSentinelsRequired) {
  EpochSequencer<int> es(3);
  Collector c;
  es.sentinel(0, kUnattributed, 0, c.on_data(), c.on_marker());
  es.sentinel(0, kUnattributed, 0, c.on_data(), c.on_marker());
  EXPECT_TRUE(c.markers.empty());
  es.sentinel(0, kUnattributed, 0, c.on_data(), c.on_marker());
  EXPECT_EQ(c.markers.size(), 1u);
}

TEST(EpochSequencer, FutureEpochDataHeldUntilCurrentCompletes) {
  EpochSequencer<int> es(1);
  Collector c;
  es.data(1, kUnattributed, 100, c.on_data(), c.on_marker());  // epoch 1 overtook epoch 0
  EXPECT_TRUE(c.data.empty());
  EXPECT_EQ(es.held_count(), 1u);
  es.data(0, kUnattributed, 1, c.on_data(), c.on_marker());
  EXPECT_EQ(c.data.size(), 1u);  // only the current-epoch item
  es.sentinel(0, kUnattributed, 1, c.on_data(), c.on_marker());
  // Epoch 0 completed: its marker fired and epoch 1's held data flushed.
  ASSERT_EQ(c.markers.size(), 1u);
  ASSERT_EQ(c.data.size(), 2u);
  EXPECT_EQ(c.data[1], 100);
  EXPECT_EQ(es.held_count(), 0u);
  es.sentinel(1, kUnattributed, 1, c.on_data(), c.on_marker());
  EXPECT_EQ(c.markers.size(), 2u);
  EXPECT_EQ(es.epochs_completed(), 2u);
}

TEST(EpochSequencer, ChainedCompletionsFlushInOneCall) {
  // Epochs 1 and 2 fully buffered while epoch 0 is still open: the final
  // epoch-0 sentinel must cascade 0, 1 and 2 to completion, in order.
  EpochSequencer<int> es(1);
  Collector c;
  es.data(1, kUnattributed, 10, c.on_data(), c.on_marker());
  es.sentinel(1, kUnattributed, 1, c.on_data(), c.on_marker());
  es.data(2, kUnattributed, 20, c.on_data(), c.on_marker());
  es.sentinel(2, kUnattributed, 1, c.on_data(), c.on_marker());
  EXPECT_TRUE(c.markers.empty());
  es.sentinel(0, kUnattributed, 0, c.on_data(), c.on_marker());
  ASSERT_EQ(c.markers.size(), 3u);
  EXPECT_EQ(c.markers[0].first, 0u);
  EXPECT_EQ(c.markers[1].first, 1u);
  EXPECT_EQ(c.markers[2].first, 2u);
  EXPECT_EQ(c.data.size(), 2u);
  EXPECT_EQ(c.data[0], 10);
  EXPECT_EQ(c.data[1], 20);
}

TEST(EpochSequencer, HeldCountSurvivesDeadSender) {
  // A sender dying mid-epoch leaves future-epoch data stranded — a host
  // that closes locally (no finish()) reads held_count() to account the
  // loss as drops.
  EpochSequencer<int> es(2);
  Collector c;
  es.data(1, kUnattributed, 1, c.on_data(), c.on_marker());
  es.data(2, kUnattributed, 2, c.on_data(), c.on_marker());
  es.sentinel(0, kUnattributed, 0, c.on_data(), c.on_marker());  // only one of two senders
  EXPECT_TRUE(c.markers.empty());
  EXPECT_EQ(es.held_count(), 2u);
}

// ------------------------------------------------- EpochSequencer: repair

TEST(EpochSequencer, DeadSenderRepairsWedgedEpoch) {
  // Sender 1 dies before its sentinel: the epoch must complete degraded
  // instead of holding the stream forever. The repaired marker reports the
  // delivered count, not the (unknowable) announced one.
  EpochSequencer<int> es(2);
  Collector c;
  es.data(0, 0u, 10, c.on_data(), c.on_marker());
  es.sentinel(0, 0u, 1, c.on_data(), c.on_marker());
  EXPECT_TRUE(c.markers.empty());  // still waiting on sender 1
  es.sender_dead(1, c.on_data(), c.on_marker());
  ASSERT_EQ(c.markers.size(), 1u);
  EXPECT_EQ(c.markers[0], (std::pair<std::uint32_t, std::uint64_t>{0, 1}));
  EXPECT_EQ(es.epochs_completed(), 1u);
  EXPECT_EQ(es.epochs_repaired(), 1u);
  EXPECT_EQ(es.dead_senders(), 1u);
}

TEST(EpochSequencer, DeadSenderAfterSentinelMissingItemsNoLongerGates) {
  // Sender 1 announced 2 items, delivered 1, then died: its missing tail
  // must stop gating completion (the live sender's accounting is intact).
  EpochSequencer<int> es(2);
  Collector c;
  es.sentinel(0, 0u, 1, c.on_data(), c.on_marker());
  es.data(0, 0u, 10, c.on_data(), c.on_marker());
  es.sentinel(0, 1u, 2, c.on_data(), c.on_marker());
  es.data(0, 1u, 20, c.on_data(), c.on_marker());
  EXPECT_TRUE(c.markers.empty());  // sender 1 still owes one item
  es.sender_dead(1, c.on_data(), c.on_marker());
  ASSERT_EQ(c.markers.size(), 1u);
  EXPECT_EQ(c.markers[0].second, 2u);  // both delivered items counted
  EXPECT_EQ(c.data.size(), 2u);
  EXPECT_EQ(es.epochs_repaired(), 1u);
}

TEST(EpochSequencer, DeadSenderReleasesHeldFutureEpochItems) {
  // Sender 0 raced ahead into epoch 1 while sender 1 held epoch 0 open by
  // dying: the repair must flush the held items, not strand them.
  EpochSequencer<int> es(2);
  Collector c;
  es.sentinel(0, 0u, 0, c.on_data(), c.on_marker());
  es.data(1, 0u, 100, c.on_data(), c.on_marker());
  EXPECT_EQ(es.held_count(), 1u);
  es.sender_dead(1, c.on_data(), c.on_marker());
  ASSERT_EQ(c.markers.size(), 1u);
  EXPECT_EQ(es.held_count(), 0u);
  ASSERT_EQ(c.data.size(), 1u);
  EXPECT_EQ(c.data[0], 100);
  // Epoch 1 then completes with sender 0 alone.
  es.sentinel(1, 0u, 1, c.on_data(), c.on_marker());
  EXPECT_EQ(es.epochs_completed(), 2u);
  EXPECT_EQ(es.epochs_repaired(), 2u);
}

TEST(EpochSequencer, AllSendersDeadCompletesOnlyEvidencedEpochs) {
  // With everyone dead, epochs with direct evidence complete — but the
  // stream must never mint phantom epochs past the evidence.
  EpochSequencer<int> es(2);
  Collector c;
  es.data(0, 0u, 1, c.on_data(), c.on_marker());
  es.sender_dead(0, c.on_data(), c.on_marker());
  EXPECT_TRUE(c.markers.empty());  // sender 1 still live and owed
  es.sender_dead(1, c.on_data(), c.on_marker());
  ASSERT_EQ(c.markers.size(), 1u);
  EXPECT_EQ(es.epochs_completed(), 1u);
  EXPECT_EQ(es.epochs_repaired(), 1u);
  EXPECT_EQ(es.current_epoch(), 1u);  // stops: no evidence for epoch 1
}

TEST(EpochSequencer, RevivedSenderReArmsAndStaleResendsDrop) {
  EpochSequencer<int> es(2);
  Collector c;
  es.sentinel(0, 0u, 0, c.on_data(), c.on_marker());
  es.sender_dead(1, c.on_data(), c.on_marker());  // epoch 0 repairs
  ASSERT_EQ(c.markers.size(), 1u);
  es.sender_revived(1);
  EXPECT_EQ(es.dead_senders(), 0u);
  // The revived sender re-serves the already-repaired epoch 0: the data
  // drops as stale (counted), the sentinel is ignored.
  EXPECT_FALSE(es.data(0, 1u, 5, c.on_data(), c.on_marker()));
  es.sentinel(0, 1u, 1, c.on_data(), c.on_marker());
  EXPECT_EQ(es.stale_drops(), 1u);
  EXPECT_EQ(c.markers.size(), 1u);
  EXPECT_TRUE(c.data.empty());
  // Epoch 1 requires BOTH senders again — revival re-arms the gate.
  es.sentinel(1, 0u, 0, c.on_data(), c.on_marker());
  EXPECT_EQ(c.markers.size(), 1u);
  es.sentinel(1, 1u, 0, c.on_data(), c.on_marker());
  ASSERT_EQ(c.markers.size(), 2u);
  EXPECT_EQ(es.epochs_repaired(), 1u);  // epoch 1 completed at full strength
}

TEST(EpochSequencer, AnonymousDeathFallsBackToGlobalCounting) {
  // A muxed source cannot attribute — each kUnattributed death writes off
  // one sender and completion falls back to global sentinel/item counts.
  EpochSequencer<int> es(2);
  Collector c;
  es.sentinel(0, kUnattributed, 1, c.on_data(), c.on_marker());
  es.data(0, kUnattributed, 7, c.on_data(), c.on_marker());
  EXPECT_TRUE(c.markers.empty());
  es.sender_dead(EpochSequencer<int>::kUnattributed, c.on_data(), c.on_marker());
  ASSERT_EQ(c.markers.size(), 1u);
  EXPECT_EQ(es.epochs_repaired(), 1u);
  EXPECT_EQ(es.dead_senders(), 1u);
}

TEST(EpochSequencer, FinishRepairsEvidencedEpochsButNeverMintsGaps) {
  // End-of-stream repair walks evidenced epochs in order and stops at the
  // first gap: epoch 2's held item stays for the host to account.
  EpochSequencer<int> es(1);
  Collector c;
  es.data(0, kUnattributed, 1, c.on_data(), c.on_marker());
  es.data(2, kUnattributed, 3, c.on_data(), c.on_marker());  // epoch 1 never seen
  es.finish(c.on_data(), c.on_marker());
  ASSERT_EQ(c.markers.size(), 1u);
  EXPECT_EQ(c.markers[0].first, 0u);
  EXPECT_EQ(es.current_epoch(), 1u);
  EXPECT_EQ(es.held_count(), 1u);
  EXPECT_EQ(es.epochs_repaired(), 1u);
}

TEST(EpochSequencer, DuplicateSentinelReplacesAnnouncement) {
  // A revived sender re-announces an epoch it sentineled before dying: the
  // new count replaces the old one instead of double-counting.
  EpochSequencer<int> es(2);
  Collector c;
  es.sentinel(0, 0u, 3, c.on_data(), c.on_marker());
  es.sentinel(0, 0u, 1, c.on_data(), c.on_marker());  // replaces, not adds
  es.data(0, 0u, 10, c.on_data(), c.on_marker());
  es.sentinel(0, 1u, 0, c.on_data(), c.on_marker());
  ASSERT_EQ(c.markers.size(), 1u);
  EXPECT_EQ(c.markers[0].second, 1u);     // expected reflects the replacement
  EXPECT_EQ(es.epochs_repaired(), 0u);    // full-strength completion
}

}  // namespace
}  // namespace emlio
