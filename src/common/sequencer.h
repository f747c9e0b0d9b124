// Ordered-reassembly primitives.
//
//   * The daemon's per-sink lane re-sequences encode-pool completions into
//     batch-id order, and its sender pops them straight out of the reorder
//     buffer (the lane has no other queue).
//   * The receiver reassembles per-sender epoch streams (sentinels can
//     overtake data on parallel transports) before batches reach the
//     consumer queue.
//
// Sequencer<T> is the first: a dense-sequence reorder buffer. Items
// tagged 0,1,2,... arrive in any order; the ready prefix comes out strictly
// in order. EpochSequencer<T> is the second: multi-sender end-of-epoch
// accounting (N sentinels + all counted items per epoch, future-epoch data
// held until its epoch becomes current).
//
// Neither class locks: every user already serializes access with the mutex
// that guards the rest of its stage state (the daemon's lane mutex, the
// receiver's delivery mutex), and embedding a second lock here would only
// stack critical sections. Both are cheap to interrogate, so hosts can lift
// stall/occupancy telemetry out of them instead of keeping shadow counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

namespace emlio {

/// Reorder buffer over a dense sequence space. put() parks item `seq`;
/// front()/pop_front() expose the head item once every sequence before it
/// has been consumed. The contract is dense and exactly-once: each seq in
/// 0,1,2,... must be put exactly once (an encode job that fails still puts
/// a tombstone result, otherwise the stream stalls forever).
///
/// NOT internally synchronized — callers guard it with their stage mutex.
template <typename T>
class Sequencer {
 public:
  /// Park `item` as sequence `seq`. Returns true when the item is
  /// immediately poppable (seq == next()), false when it parked behind a
  /// gap.
  bool put(std::uint64_t seq, T item) {
    parked_.emplace(seq, std::move(item));
    if (parked_.size() > max_parked_) max_parked_ = parked_.size();
    if (seq == next_) return true;
    ++out_of_order_;
    return false;
  }

  /// Head item when ready (its seq == next()), nullptr while the stream is
  /// waiting on an earlier sequence. The pointer stays valid until the next
  /// put()/pop_front().
  T* front() {
    auto it = parked_.begin();
    if (it == parked_.end() || it->first != next_) return nullptr;
    return &it->second;
  }

  /// Consume the head (front() must be non-null). Returns the item.
  T pop_front() {
    auto it = parked_.begin();
    T item = std::move(it->second);
    parked_.erase(it);
    ++next_;
    return item;
  }

  /// Drop every parked item (a failed stream's leftovers); next() stays.
  void clear() { parked_.clear(); }

  /// Next sequence the ordered stream is waiting for == items consumed.
  std::uint64_t next() const { return next_; }
  /// Items currently parked (including a ready head).
  std::size_t parked() const { return parked_.size(); }
  bool empty() const { return parked_.empty(); }

  /// puts that landed behind a gap (arrived ahead of an incomplete earlier
  /// sequence) — how often the parallel stage finished out of order.
  std::uint64_t out_of_order() const { return out_of_order_; }
  /// High-water mark of parked items — the reorder buffer's memory bound.
  std::size_t max_parked() const { return max_parked_; }

 private:
  std::map<std::uint64_t, T> parked_;
  std::uint64_t next_ = 0;
  std::uint64_t out_of_order_ = 0;
  std::size_t max_parked_ = 0;
};

/// Multi-sender epoch reassembly (the receiver's end-of-epoch algebra,
/// extracted). Feed it an already-ordered stream of data items and sentinels
/// tagged with their epoch; it
///
///   * emits current-epoch data immediately (on_data),
///   * holds future-epoch data until that epoch becomes current (parallel
///     streams let epoch e+1 overtake epoch e's tail),
///   * declares an epoch complete only when all `num_senders` sentinels have
///     arrived AND the item count those sentinels announced has been
///     delivered (sentinels themselves overtake data), then emits one
///     aggregated marker (on_marker) and flushes the next epoch's held data.
///
/// Dead-sender repair: a sender the transport declares dead
/// (sender_dead()) stops being required. Epochs then complete *degraded*
/// under a relaxed rule, counted in epochs_repaired(), instead of holding
/// the stream forever. Two attribution modes coexist:
///
///   * attributed — data/sentinel calls carry a real sender id (the
///     receiver's source index when fan-in is one source per sender). An
///     epoch repairs once every LIVE sender has sentineled and delivered
///     its announced count; a dead sender's missing tail is simply no
///     longer waited for. This is sound even when the dead sender's
///     sentinel arrived but some of its items did not.
///   * anonymous — calls pass kUnattributed (a single muxed source carries
///     several senders and the wire has no sender id). Repair falls back to
///     global counting: at least live() sentinels and all announced items.
///     A dead sender that sentineled but lost items in flight cannot be
///     distinguished mid-stream; that wedge resolves at finish().
///
/// A sender that reconnects is re-armed with sender_revived(); anything it
/// re-sends for epochs already completed is dropped and counted in
/// stale_drops() (data() returns false for those).
///
/// finish() is the end-of-stream repair: when the transport is done
/// (nothing further can arrive), every epoch with direct evidence is
/// completed in order regardless of missing sentinels/items, so held
/// future-epoch items are released instead of leaking.
///
/// Callbacks: on_data(T&&) delivers one item; on_marker(epoch, expected)
/// signals one completed epoch (for a repaired epoch `expected` reports the
/// item count actually delivered). Epochs complete strictly in order.
///
/// NOT internally synchronized — callers guard it with their stage mutex.
template <typename T>
class EpochSequencer {
 public:
  /// Sender id for anonymous mode (no per-sender attribution available).
  static constexpr std::uint32_t kUnattributed = 0xffffffffu;

  explicit EpochSequencer(std::size_t num_senders)
      : num_senders_(num_senders ? num_senders : 1) {}

  /// One data item for `epoch` from `sender` (kUnattributed when the caller
  /// cannot attribute). Returns false when the item was stale — its epoch
  /// already completed (possible only after a repair or revival) — and was
  /// dropped and counted in stale_drops() instead of delivered.
  template <typename OnData, typename OnMarker>
  bool data(std::uint32_t epoch, std::uint32_t sender, T item, OnData&& on_data,
            OnMarker&& on_marker) {
    if (epoch < current_) {
      ++stale_drops_;
      return false;  // item destroyed — a revived sender re-served a repaired epoch
    }
    auto& p = progress_[epoch];
    ++p.received;
    if (sender != kUnattributed) ++p.by_sender[sender].received;
    if (epoch == current_) {
      on_data(std::move(item));
    } else {
      held_[epoch].push_back(std::move(item));
      ++held_count_;
    }
    advance(on_data, on_marker);
    return true;
  }

  /// One sender's end-of-epoch sentinel announcing it shipped `sent_count`
  /// data items for `epoch`. Stale sentinels (epoch already completed) are
  /// ignored; a duplicate attributed sentinel (a revived sender re-serving
  /// an epoch it announced before dying) replaces its earlier announcement
  /// instead of double-counting.
  template <typename OnData, typename OnMarker>
  void sentinel(std::uint32_t epoch, std::uint32_t sender, std::uint64_t sent_count,
                OnData&& on_data, OnMarker&& on_marker) {
    if (epoch < current_) return;
    auto& p = progress_[epoch];
    if (sender != kUnattributed) {
      auto& sp = p.by_sender[sender];
      if (sp.sentineled) {
        p.expected += sent_count - sp.expected;
        sp.expected = sent_count;
      } else {
        sp.sentineled = true;
        sp.expected = sent_count;
        ++p.sentinels;
        p.expected += sent_count;
      }
    } else {
      ++p.sentinels;
      p.expected += sent_count;
    }
    advance(on_data, on_marker);
  }

  /// Declare `sender` dead: its missing sentinels/items no longer gate epoch
  /// completion. Idempotent per attributed sender; each kUnattributed call
  /// writes off one more anonymous sender. Epochs that only the dead sender
  /// was holding back complete immediately (degraded, counted in
  /// epochs_repaired()).
  template <typename OnData, typename OnMarker>
  void sender_dead(std::uint32_t sender, OnData&& on_data, OnMarker&& on_marker) {
    if (sender != kUnattributed) {
      if (!dead_.insert(sender).second) return;
    } else if (dead_anonymous_ < num_senders_) {
      ++dead_anonymous_;
    }
    advance(on_data, on_marker);
  }

  /// Re-arm a sender after it reconnects: future epochs wait for it again.
  /// Already-repaired epochs stay completed; its re-sends for them come back
  /// through data() as stale drops.
  void sender_revived(std::uint32_t sender) {
    if (sender != kUnattributed) {
      dead_.erase(sender);
    } else if (dead_anonymous_ > 0) {
      --dead_anonymous_;
    }
  }

  /// End-of-stream repair: nothing further can arrive, so complete every
  /// epoch that has direct evidence (a sentinel or at least one item), in
  /// order, releasing held items. Epochs that needed the relaxation count as
  /// repaired. Call only when the stream ended on its own — a locally closed
  /// receiver should keep the held-items-are-drops accounting instead.
  template <typename OnData, typename OnMarker>
  void finish(OnData&& on_data, OnMarker&& on_marker) {
    finishing_ = true;
    advance(on_data, on_marker);
  }

  std::uint32_t current_epoch() const { return current_; }
  std::uint64_t epochs_completed() const { return completed_; }
  /// Epochs that completed degraded — the full-strength rule (all
  /// num_senders sentinels + every announced item) did not hold.
  std::uint64_t epochs_repaired() const { return repaired_; }
  /// Items dropped because their epoch had already completed (re-sends from
  /// revived senders after a repair).
  std::uint64_t stale_drops() const { return stale_drops_; }
  /// Senders currently declared dead (attributed + anonymous write-offs).
  std::size_t dead_senders() const { return dead_.size() + dead_anonymous_; }
  /// Future-epoch items currently held back. Non-zero after the stream ends
  /// means a sender died mid-epoch and finish() was not run: those items can
  /// never be delivered.
  std::size_t held_count() const { return held_count_; }

 private:
  struct SenderProgress {
    bool sentineled = false;
    std::uint64_t expected = 0;
    std::uint64_t received = 0;
  };

  struct Progress {
    std::size_t sentinels = 0;
    std::uint64_t expected = 0;  ///< summed from sentinels' sent_count
    std::uint64_t received = 0;
    std::map<std::uint32_t, SenderProgress> by_sender;  ///< attributed calls only
  };

  std::size_t live_senders() const {
    const std::size_t dead = dead_.size() + dead_anonymous_;
    return dead >= num_senders_ ? 0 : num_senders_ - dead;
  }

  /// Relaxed completion once at least one sender is dead. Attributed deaths
  /// use the per-sender rule; any anonymous write-off forces the weaker
  /// global-count rule (per-sender accounting can't be trusted to cover the
  /// anonymous death).
  bool repair_complete(const Progress& p) const {
    if (dead_anonymous_ > 0) {
      return p.sentinels >= live_senders() && p.received >= p.expected;
    }
    for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(num_senders_); ++s) {
      if (dead_.count(s)) continue;
      auto it = p.by_sender.find(s);
      if (it == p.by_sender.end() || !it->second.sentineled ||
          it->second.received < it->second.expected) {
        return false;
      }
    }
    return true;
  }

  template <typename OnData, typename OnMarker>
  void advance(OnData& on_data, OnMarker& on_marker) {
    for (;;) {
      auto it = progress_.find(current_);
      if (it == progress_.end()) {
        // No direct evidence for this epoch — never mint phantom epochs,
        // even with every sender dead or the stream finishing.
        return;
      }
      Progress& p = it->second;
      const bool normal = p.sentinels >= num_senders_ && p.received >= p.expected;
      bool complete = normal;
      if (!complete && (dead_.size() + dead_anonymous_) > 0) complete = repair_complete(p);
      if (!complete && finishing_) complete = p.sentinels > 0 || p.received > 0;
      if (!complete) return;
      if (!normal) ++repaired_;
      on_marker(current_, normal ? p.expected : p.received);
      ++completed_;
      progress_.erase(it);
      ++current_;
      auto held = held_.find(current_);
      if (held != held_.end()) {
        for (auto& item : held->second) {
          --held_count_;
          on_data(std::move(item));
        }
        held_.erase(held);
      }
    }
  }

  const std::size_t num_senders_;
  std::map<std::uint32_t, Progress> progress_;
  std::map<std::uint32_t, std::vector<T>> held_;
  std::set<std::uint32_t> dead_;
  std::size_t dead_anonymous_ = 0;
  std::size_t held_count_ = 0;
  std::uint32_t current_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t repaired_ = 0;
  std::uint64_t stale_drops_ = 0;
  bool finishing_ = false;
};

}  // namespace emlio
