// Ref-counted, slice-able byte buffers — the zero-copy currency of the data
// plane.
//
// A batch is produced once, daemon-side, as a `SplicedPayload`: a pooled
// msgpack head with its large samples spliced in by reference. It crosses
// the transport by moving handles — its bytes are first copied at the
// sink's boundary — and is consumed receiver-side as `PayloadView`s that
// *share ownership* of the received bytes: decoding a WireBatch
// materializes no per-sample copies, only refcount bumps. The backing
// storage is released — or returned to its `BufferPool` — when the last
// handle drops, so buffer reuse follows the consumer's pace automatically.
//
// Ownership modes of a PayloadView:
//   * owning   — shares the refcount of a Payload / adopted vector; safe to
//                hold indefinitely,
//   * borrowed — wraps caller-owned memory (a stack buffer, a test vector);
//                valid only while the caller keeps it alive. The daemon never
//                uses one: its mmap'd record views share the mapping's
//                ownership (tfrecord::ShardReader), because a SplicedPayload
//                queued for a sink may outlive the encode job that built it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/bytes.h"

namespace emlio {

class BufferPool;
class PayloadView;

/// Telemetry for benches and tests: every *deliberate* deep copy made through
/// the payload layer is counted here, so "the decode path copies zero bytes"
/// is a measurable property instead of a comment.
struct PayloadCounters {
  static std::atomic<std::uint64_t> bytes_copied;       ///< bytes deep-copied
  static std::atomic<std::uint64_t> buffers_allocated;  ///< fresh heap buffers

  static void reset() {
    bytes_copied.store(0, std::memory_order_relaxed);
    buffers_allocated.store(0, std::memory_order_relaxed);
  }
};

/// An immutable, ref-counted message buffer. This is what the transport
/// moves: copying a Payload copies a handle (refcount bump), never bytes.
///
/// Construction from a vector ADOPTS the storage (rvalue only — an lvalue
/// vector must go through Payload::copy_of so the deep copy is visible and
/// counted at the call site).
class Payload {
 public:
  Payload() = default;

  /// Adopt a vector's storage (no byte copy).
  /*implicit*/ Payload(std::vector<std::uint8_t>&& bytes);

  /// Adopt a ByteBuffer's storage (no byte copy).
  explicit Payload(ByteBuffer&& buf) : Payload(buf.take()) {}

  /// Deep-copy `bytes` into a fresh buffer (counted in PayloadCounters).
  static Payload copy_of(std::span<const std::uint8_t> bytes);

  /// Wrap memory owned by something that is not a heap vector — a shared-
  /// memory slab, an mmap region — without copying. `release` runs exactly
  /// once, when the last handle (Payload or derived PayloadView) drops; it is
  /// how the slab returns to its pool. The bytes must stay valid and
  /// unmodified until then.
  static Payload wrap_external(const std::uint8_t* data, std::size_t size,
                               std::function<void()> release);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const std::uint8_t* data() const noexcept { return data_; }
  std::uint8_t operator[](std::size_t i) const { return data_[i]; }

  std::span<const std::uint8_t> view() const noexcept { return {data(), size()}; }
  /*implicit*/ operator std::span<const std::uint8_t>() const noexcept { return view(); }

  /// Owning view of bytes [offset, offset+length) sharing this storage.
  PayloadView slice(std::size_t offset, std::size_t length) const;

  /// Handles (Payloads + views) currently sharing the storage. 0 when empty.
  long use_count() const noexcept { return keep_alive_ ? keep_alive_.use_count() : 0; }

  /// Deep copy out (tests / cold paths only).
  std::vector<std::uint8_t> to_vector() const { return {data(), data() + size()}; }

  /// Content equality.
  bool operator==(const Payload& other) const noexcept;
  bool operator==(std::span<const std::uint8_t> other) const noexcept;

 private:
  friend class BufferPool;
  friend class PayloadView;
  Payload(std::shared_ptr<const void> keep_alive, const std::uint8_t* data, std::size_t size)
      : keep_alive_(std::move(keep_alive)), data_(data), size_(size) {}

  // Type-erased ownership (same shape as PayloadView): the storage may be a
  // heap vector, a pooled buffer, or foreign memory with a custom releaser.
  std::shared_ptr<const void> keep_alive_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// A ref-counted slice of bytes. WireSample.bytes is a PayloadView: when the
/// receiver decodes a batch, every sample's view shares ownership of the one
/// received Payload — zero per-sample byte copies.
class PayloadView {
 public:
  PayloadView() = default;

  /// Adopt a vector's storage (no byte copy; the view owns it).
  /*implicit*/ PayloadView(std::vector<std::uint8_t>&& bytes);

  /// Adopt a small literal buffer (tests, sentinels).
  PayloadView(std::initializer_list<std::uint8_t> bytes)
      : PayloadView(std::vector<std::uint8_t>(bytes)) {}

  /// BORROW caller-owned memory: zero-copy, but only valid while the caller
  /// keeps the memory alive (mmap slices on the daemon encode path).
  /*implicit*/ PayloadView(std::span<const std::uint8_t> borrowed) noexcept
      : data_(borrowed.data()), size_(borrowed.size()) {}

  /// Borrow an lvalue vector (same lifetime contract as the span overload).
  /*implicit*/ PayloadView(const std::vector<std::uint8_t>& borrowed) noexcept
      : data_(borrowed.data()), size_(borrowed.size()) {}

  /// Share ownership of a whole Payload.
  /*implicit*/ PayloadView(const Payload& payload) noexcept
      : keep_alive_(payload.keep_alive_), data_(payload.data()), size_(payload.size()) {}

  /// Deep-copy `bytes` into a fresh owned buffer (counted in PayloadCounters).
  static PayloadView copy_of(std::span<const std::uint8_t> bytes);

  const std::uint8_t* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::uint8_t operator[](std::size_t i) const { return data_[i]; }
  const std::uint8_t* begin() const noexcept { return data_; }
  const std::uint8_t* end() const noexcept { return data_ + size_; }

  std::span<const std::uint8_t> view() const noexcept { return {data_, size_}; }
  /*implicit*/ operator std::span<const std::uint8_t>() const noexcept { return view(); }

  /// Sub-slice [offset, offset+length); shares this view's ownership mode.
  PayloadView slice(std::size_t offset, std::size_t length) const;

  /// True when this view keeps its storage alive (false for borrowed views).
  bool owns_storage() const noexcept { return keep_alive_ != nullptr; }

  /// True when both views alias the same refcounted storage block — the
  /// zero-copy assertion used by tests and the codec microbench.
  bool shares_storage_with(const PayloadView& other) const noexcept {
    return keep_alive_ && keep_alive_ == other.keep_alive_;
  }
  bool shares_storage_with(const Payload& payload) const noexcept {
    return keep_alive_ && keep_alive_ == payload.keep_alive_;
  }

  /// Deep copy out (the only way to get mutable bytes back).
  std::vector<std::uint8_t> to_vector() const { return {data_, data_ + size_}; }

  /// Content equality (ownership mode does not participate).
  bool operator==(const PayloadView& other) const noexcept;

 private:
  friend class Payload;
  PayloadView(std::shared_ptr<const void> keep_alive, const std::uint8_t* data, std::size_t size)
      : keep_alive_(std::move(keep_alive)), data_(data), size_(size) {}

  std::shared_ptr<const void> keep_alive_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// A serialized message held as a pooled head plus large byte ranges
/// spliced in by reference — how the daemon ships a batch without first
/// copying its big samples into one message buffer. The message's bytes, in
/// wire order, are the head with each splice's bytes inserted before head
/// byte `at`; a sink gathers those pieces straight to its boundary (one
/// sendmsg iovec list, one slab copy) instead of the encoder concatenating
/// them.
///
/// With no splices it is exactly a Payload: the empty splice vector never
/// allocates. Every splice owns its storage — a queued message outlives the
/// encode job that built it — and copying a SplicedPayload copies handles,
/// never bytes.
class SplicedPayload {
 public:
  struct Splice {
    std::size_t at = 0;  ///< head offset the bytes are inserted before
    PayloadView bytes;   ///< owning view of the spliced bytes
  };

  SplicedPayload() = default;

  /// A message that is its head alone.
  /*implicit*/ SplicedPayload(Payload head) noexcept
      : head_(std::move(head)), size_(head_.size()) {}

  /// Throws std::invalid_argument unless the offsets are non-decreasing and
  /// inside the head and every splice owns its storage.
  SplicedPayload(Payload head, std::vector<Splice> splices);

  /// Serialized size: head plus every splice.
  std::size_t size() const noexcept { return size_; }
  const Payload& head() const noexcept { return head_; }
  const std::vector<Splice>& splices() const noexcept { return splices_; }

  /// Calls f(std::span<const std::uint8_t>) on each non-empty piece of the
  /// message in wire order: head ranges interleaved with the splices.
  template <typename F>
  void for_each_piece(F&& f) const {
    const auto head = head_.view();
    std::size_t pos = 0;
    for (const Splice& s : splices_) {
      if (s.at > pos) f(head.subspan(pos, s.at - pos));
      if (!s.bytes.empty()) f(s.bytes.view());
      pos = s.at;
    }
    if (head.size() > pos) f(head.subspan(pos));
  }

  /// Consume the message into one contiguous Payload: the head itself when
  /// nothing is spliced, otherwise one copy into `pool` storage (counted in
  /// PayloadCounters) — the fallback for sinks that cannot gather.
  Payload flatten(BufferPool& pool) &&;

 private:
  Payload head_;
  std::vector<Splice> splices_;
  std::size_t size_ = 0;
};

/// Recycles message buffers between encode/receive cycles. seal() freezes a
/// ByteBuffer into an immutable Payload whose storage returns here when the
/// last handle (including every decoded sample view) drops — so the pool's
/// steady-state size tracks the pipeline depth, not the batch count.
///
/// Thread-safe; create via BufferPool::create (buffers in flight may outlive
/// the pool, so it must be shared_ptr-managed).
class BufferPool : public std::enable_shared_from_this<BufferPool> {
 public:
  struct Stats {
    std::uint64_t reused = 0;    ///< acquires served from the free list
    std::uint64_t allocated = 0; ///< acquires that built a fresh buffer
    std::uint64_t returned = 0;  ///< buffers recycled on last release
    std::uint64_t dropped = 0;   ///< releases discarded (pool full)
    std::size_t idle = 0;        ///< buffers currently in the free list
  };

  /// Buffers that grew beyond this capacity are freed instead of recycled,
  /// so one oversized message cannot pin its allocation for the pool's
  /// lifetime. 16 MiB comfortably fits the largest routine batch.
  static constexpr std::size_t kDefaultMaxBufferBytes = 16u << 20;

  /// `max_idle_buffers` caps the free list; beyond it released storage is
  /// simply freed. `max_buffer_bytes` caps the capacity an individual
  /// recycled buffer may retain.
  static std::shared_ptr<BufferPool> create(std::size_t max_idle_buffers = 64,
                                            std::size_t max_buffer_bytes = kDefaultMaxBufferBytes) {
    return std::shared_ptr<BufferPool>(new BufferPool(max_idle_buffers, max_buffer_bytes));
  }

  /// An empty ByteBuffer backed by recycled storage when available.
  ByteBuffer acquire(std::size_t reserve_bytes = 0);

  /// A ByteBuffer of exactly `length` bytes for the caller to overwrite in
  /// full (a socket read). Recycled storage keeps its old bytes: only growth
  /// past the recycled buffer's previous length is zero-filled, which
  /// std::vector cannot skip. A buffer that is not fully overwritten must be
  /// discarded, never sealed.
  ByteBuffer acquire_for_overwrite(std::size_t length);

  /// Freeze `buf` into an immutable Payload. Storage returns to this pool
  /// when the last Payload/PayloadView referencing it drops (or is freed if
  /// the pool is gone or full by then).
  Payload seal(ByteBuffer&& buf);

  Stats stats() const;

 private:
  BufferPool(std::size_t max_idle_buffers, std::size_t max_buffer_bytes)
      : max_idle_(max_idle_buffers ? max_idle_buffers : 1), max_buffer_bytes_(max_buffer_bytes) {}
  void release(std::vector<std::uint8_t>&& storage);
  /// Pop recycled storage (contents and size as released), or an empty vector.
  std::vector<std::uint8_t> take_idle();

  const std::size_t max_idle_;
  const std::size_t max_buffer_bytes_;
  mutable std::mutex mutex_;
  std::vector<std::vector<std::uint8_t>> idle_;
  std::uint64_t reused_ = 0;
  std::uint64_t allocated_ = 0;
  std::uint64_t returned_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace emlio
