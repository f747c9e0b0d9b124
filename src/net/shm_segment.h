// POSIX shared-memory segment for the same-host zero-copy transport.
//
// One ShmSegment is one shm_open'd + ftruncate'd + mmap'd object shared by
// exactly two processes: the daemon (creator / sender) and the receiver
// (attacher). Its layout, fixed at creation time:
//
//   SegmentHeader   magic/version/epoch stamp, pids, liveness + close flags,
//                   two doorbells (futex words), two SPSC ring controls
//   data slots      ring_capacity × u64 slab descriptors  (sender → receiver)
//   free slots      ring_capacity × u64 slab descriptors  (receiver → sender)
//   slabs           slab_count × slab_bytes, page-aligned  (the message bytes)
//
// A slab descriptor packs {slab index, message length} into one u64, so a
// ring slot is a single plain store published by the ring's release-store on
// `tail` — the same release/acquire edge that publishes the slab bytes the
// descriptor points at. Each ring is strictly SPSC: the caller serializes
// its producer side and its consumer side (the channel classes hold a mutex
// per role), and `ring_capacity` ≥ `slab_count` guarantees a ring can never
// be full — every descriptor in flight corresponds to a distinct slab.
//
// Doorbells make blocking cheap without per-message syscalls: every push
// bumps a sequence word (process-shared atomic, no kernel crossing) and
// issues a FUTEX_WAKE *only when a waiter has registered itself* — i.e. only
// after an empty→non-empty transition that found the peer parked. A waiter
// snapshots the sequence, re-checks its ring once, then parks in FUTEX_WAIT
// with a bounded timeout so a crashed peer degrades into a clean liveness
// check instead of a hang.
//
// Stale-segment handling: the header carries a magic, a layout version, a
// per-creation epoch stamp and the creator pid. Attach rejects segments that
// are closed, layout-incompatible, or whose creator is dead — a receiver
// pointed at the leftovers of a crashed daemon gets a clean error, never a
// silent hang. The creator unlinks any leftover object of the same name
// before creating (O_EXCL), and unlinks its own on destruction.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace emlio::net {

/// Futex word + parked-waiter count. The sequence is bumped on every ring
/// push; the kernel is only entered when `sleepers` shows someone parked.
struct alignas(64) ShmDoorbell {
  std::atomic<std::uint32_t> seq;
  std::atomic<std::uint32_t> sleepers;
};

/// SPSC ring indices: free-running u32 head/tail, slot = tail & (cap - 1).
/// Producer and consumer live on separate cache lines so the reader's
/// cursor updates never bounce the writer's line.
struct ShmRingControl {
  alignas(64) std::atomic<std::uint32_t> head;  ///< consumer cursor
  alignas(64) std::atomic<std::uint32_t> tail;  ///< producer cursor
};

/// First bytes of the mapped segment. Everything after it is computed from
/// `ring_capacity` / `slab_count` / `slab_bytes` (see ShmSegment::Layout).
struct ShmSegmentHeader {
  std::uint32_t magic;          ///< "EMSH"
  std::uint32_t version;        ///< layout version, bump on any change here
  std::uint64_t epoch_stamp;    ///< unique per creation; distinguishes runs
  std::uint32_t creator_pid;    ///< sender process; liveness via kill(pid, 0)
  std::uint32_t ring_capacity;  ///< power of two, ≥ slab_count
  std::uint64_t slab_bytes;     ///< per-slab capacity (max message size)
  std::uint32_t slab_count;
  std::uint32_t reserved;
  std::uint64_t total_bytes;    ///< full segment size; attach validates it

  /// 0 = creator still initializing, 1 = ready, 2 = sink closed. The close
  /// store is a release issued after the final data push, so a consumer that
  /// acquires `2` also sees every message published before close.
  std::atomic<std::uint32_t> state;
  std::atomic<std::uint32_t> source_closed;  ///< receiver hung up
  std::atomic<std::uint32_t> attacher_pid;   ///< receiver pid, 0 until attach

  ShmDoorbell data_bell;  ///< rung after data-ring pushes
  ShmDoorbell free_bell;  ///< rung after free-ring pushes (slab returns)
  ShmRingControl data_ring;
  ShmRingControl free_ring;
};

static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "shared-memory rings require lock-free (address-free) u32 atomics");

/// Attach-time header validation verdict. Permanent rejects (wrong magic or
/// version, closed segment, dead creator, inconsistent geometry) throw from
/// check_shm_header instead of returning.
enum class ShmHeaderCheck {
  kReady,  ///< attachable now
  kRetry,  ///< creator still initializing — attach again shortly
};

/// Validate a mapped segment header against the number of bytes actually
/// mapped. This is the complete attach-time gauntlet, factored out of
/// ShmSegment::try_attach so it can be driven directly with adversarial
/// headers (fuzz/fuzz_shm_header.cpp): state, magic, version, close flag,
/// creator liveness, then geometry — including the bounds that keep the
/// layout arithmetic below from overflowing on corrupt slab_count/slab_bytes.
/// `name` only decorates the thrown error messages.
ShmHeaderCheck check_shm_header(const ShmSegmentHeader& hdr, std::size_t mapped_bytes,
                                const std::string& name);

/// Pack/unpack a {slab index, message length} descriptor.
constexpr std::uint64_t shm_desc_make(std::uint32_t slab_index, std::uint32_t length) {
  return (static_cast<std::uint64_t>(slab_index) << 32) | length;
}
constexpr std::uint32_t shm_desc_index(std::uint64_t desc) {
  return static_cast<std::uint32_t>(desc >> 32);
}
constexpr std::uint32_t shm_desc_length(std::uint64_t desc) {
  return static_cast<std::uint32_t>(desc);
}

/// A mapped shared-memory segment, shared_ptr-managed because Payloads whose
/// release closures return slabs to the free ring may outlive the channel
/// endpoints. The creator unlinks the shm name when the last reference in
/// its process drops.
class ShmSegment {
 public:
  struct Options {
    std::size_t slab_bytes = 4u << 20;  ///< max message size (one batch)
    std::size_t slab_count = 16;        ///< in-flight budget = HWM analogue
  };

  /// Create a fresh segment (the daemon side). Unlinks any stale leftover of
  /// the same name first, then shm_open(O_CREAT|O_EXCL). Throws on failure.
  static std::shared_ptr<ShmSegment> create(const std::string& name, const Options& opts);

  /// Attach to an existing segment (the receiver side). Returns nullptr when
  /// the name does not exist yet or the creator is still initializing (both
  /// are retryable); THROWS on a segment that can never become usable: wrong
  /// magic/version, already closed, or a dead creator (stale leftovers).
  static std::shared_ptr<ShmSegment> try_attach(const std::string& name);

  /// try_attach that throws instead of returning nullptr.
  static std::shared_ptr<ShmSegment> attach(const std::string& name);

  /// Retry try_attach until it succeeds or `timeout` elapses (throws on
  /// timeout and on any permanent try_attach failure). Lets the receiver be
  /// started before the daemon, mirroring the TCP connect-retry loop.
  static std::shared_ptr<ShmSegment> attach_wait(const std::string& name,
                                                 std::chrono::milliseconds timeout);

  ~ShmSegment();
  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;

  ShmSegmentHeader& header() noexcept { return *header_; }
  const std::string& name() const noexcept { return name_; }
  bool is_creator() const noexcept { return is_creator_; }
  std::size_t slab_bytes() const noexcept { return header_->slab_bytes; }
  std::size_t slab_count() const noexcept { return header_->slab_count; }
  std::uint8_t* slab_ptr(std::uint32_t index) noexcept {
    return slabs_ + static_cast<std::size_t>(index) * header_->slab_bytes;
  }

  /// True while the peer process (creator for an attacher, attacher for the
  /// creator) looks alive. An attacher that never registered counts as alive
  /// (nothing to check yet).
  bool creator_alive() const noexcept;
  bool attacher_alive() const noexcept;

  // Close flags. The sink-close store is a release: issued after the final
  // data push, so a consumer that observes it (acquire) also sees every
  // message published before close and can drain the ring to empty.
  void mark_sink_closed() noexcept { header_->state.store(2, std::memory_order_release); }
  bool sink_closed() const noexcept {
    return header_->state.load(std::memory_order_acquire) == 2;
  }
  void mark_source_closed() noexcept {
    header_->source_closed.store(1, std::memory_order_seq_cst);
  }
  bool source_closed() const noexcept {
    return header_->source_closed.load(std::memory_order_seq_cst) != 0;
  }

  // SPSC ring operations. The caller must serialize each role (one producer
  // thread at a time, one consumer thread at a time) — the channel classes
  // do this with a mutex per role. push returns false only on a full ring,
  // which is impossible by construction (capacity ≥ slabs in existence).
  bool data_push(std::uint64_t desc) noexcept { return push(header_->data_ring, data_slots_, desc); }
  std::optional<std::uint64_t> data_pop() noexcept { return pop(header_->data_ring, data_slots_); }
  bool free_push(std::uint64_t desc) noexcept { return push(header_->free_ring, free_slots_, desc); }
  std::optional<std::uint64_t> free_pop() noexcept { return pop(header_->free_ring, free_slots_); }

  // Doorbells. ring_* bumps the sequence and wakes the peer iff it is
  // parked; *_bell_seq snapshots the sequence for a wait; wait_* parks until
  // the sequence moves past the snapshot or `timeout` elapses (returns false
  // on timeout — the caller uses that to run a peer-liveness check).
  void ring_data_bell() noexcept { ring(header_->data_bell); }
  void ring_free_bell() noexcept { ring(header_->free_bell); }
  std::uint32_t data_bell_seq() const noexcept {
    return header_->data_bell.seq.load(std::memory_order_seq_cst);
  }
  std::uint32_t free_bell_seq() const noexcept {
    return header_->free_bell.seq.load(std::memory_order_seq_cst);
  }
  bool wait_data_bell(std::uint32_t seen_seq, std::chrono::milliseconds timeout) noexcept {
    return wait(header_->data_bell, seen_seq, timeout);
  }
  bool wait_free_bell(std::uint32_t seen_seq, std::chrono::milliseconds timeout) noexcept {
    return wait(header_->free_bell, seen_seq, timeout);
  }

  /// Serializes the free ring's producer side *within this process*: payload
  /// release closures run on whatever thread drops the last handle, and each
  /// one pushes a descriptor. (Cross-process there is exactly one free-ring
  /// producer — the receiver — so a process-local mutex suffices.) The ring
  /// words themselves are cross-process atomics, so the capability covers
  /// the role discipline, not the data.
  Mutex& free_producer_mu() noexcept EMLIO_RETURN_CAPABILITY(free_producer_mu_) {
    return free_producer_mu_;
  }

 private:
  ShmSegment() = default;
  void map_pointers();

  bool push(ShmRingControl& ring, std::uint64_t* slots, std::uint64_t desc) noexcept;
  std::optional<std::uint64_t> pop(ShmRingControl& ring, std::uint64_t* slots) noexcept;
  void ring(ShmDoorbell& bell) noexcept;
  bool wait(ShmDoorbell& bell, std::uint32_t seen_seq,
            std::chrono::milliseconds timeout) noexcept;

  std::string name_;          // normalized POSIX name ("/emlio...")
  void* base_ = nullptr;      // mmap base
  std::size_t map_bytes_ = 0;
  bool is_creator_ = false;
  ShmSegmentHeader* header_ = nullptr;
  std::uint64_t* data_slots_ = nullptr;
  std::uint64_t* free_slots_ = nullptr;
  std::uint8_t* slabs_ = nullptr;
  Mutex free_producer_mu_;
};

}  // namespace emlio::net
