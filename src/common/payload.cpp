#include "common/payload.h"

#include <algorithm>
#include <stdexcept>

namespace emlio {

std::atomic<std::uint64_t> PayloadCounters::bytes_copied{0};
std::atomic<std::uint64_t> PayloadCounters::buffers_allocated{0};

namespace {

std::shared_ptr<const std::vector<std::uint8_t>> adopt(std::vector<std::uint8_t>&& bytes) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

void check_slice(std::size_t offset, std::size_t length, std::size_t size) {
  if (offset > size || length > size - offset) {
    throw std::out_of_range("payload slice [" + std::to_string(offset) + ", +" +
                            std::to_string(length) + ") exceeds size " + std::to_string(size));
  }
}

}  // namespace

// ---------------------------------------------------------------- Payload

Payload::Payload(std::vector<std::uint8_t>&& bytes) {
  auto storage = adopt(std::move(bytes));
  data_ = storage->data();
  size_ = storage->size();
  keep_alive_ = std::move(storage);
}

Payload Payload::copy_of(std::span<const std::uint8_t> bytes) {
  PayloadCounters::bytes_copied.fetch_add(bytes.size(), std::memory_order_relaxed);
  PayloadCounters::buffers_allocated.fetch_add(1, std::memory_order_relaxed);
  return Payload(std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
}

Payload Payload::wrap_external(const std::uint8_t* data, std::size_t size,
                               std::function<void()> release) {
  // The stored pointer is the external bytes themselves; the deleter ignores
  // it and runs the caller's releaser. A shared_ptr deleter runs even when
  // the stored pointer is null, so an empty message still releases its slab.
  std::shared_ptr<const void> keep_alive(static_cast<const void*>(data),
                                         [rel = std::move(release)](const void*) {
                                           if (rel) rel();
                                         });
  return Payload(std::move(keep_alive), data, size);
}

PayloadView Payload::slice(std::size_t offset, std::size_t length) const {
  check_slice(offset, length, size());
  return PayloadView(keep_alive_, data_ + offset, length);
}

bool Payload::operator==(const Payload& other) const noexcept {
  return *this == other.view();
}

bool Payload::operator==(std::span<const std::uint8_t> other) const noexcept {
  auto mine = view();
  return mine.size() == other.size() && std::equal(mine.begin(), mine.end(), other.begin());
}

// ------------------------------------------------------------ PayloadView

PayloadView::PayloadView(std::vector<std::uint8_t>&& bytes) {
  auto storage = adopt(std::move(bytes));
  data_ = storage->data();
  size_ = storage->size();
  keep_alive_ = std::move(storage);
}

PayloadView PayloadView::copy_of(std::span<const std::uint8_t> bytes) {
  PayloadCounters::bytes_copied.fetch_add(bytes.size(), std::memory_order_relaxed);
  PayloadCounters::buffers_allocated.fetch_add(1, std::memory_order_relaxed);
  return PayloadView(std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
}

PayloadView PayloadView::slice(std::size_t offset, std::size_t length) const {
  check_slice(offset, length, size_);
  return PayloadView(keep_alive_, data_ + offset, length);
}

bool PayloadView::operator==(const PayloadView& other) const noexcept {
  return size_ == other.size_ && std::equal(begin(), end(), other.begin());
}

// --------------------------------------------------------- SplicedPayload

SplicedPayload::SplicedPayload(Payload head, std::vector<Splice> splices)
    : head_(std::move(head)), splices_(std::move(splices)), size_(head_.size()) {
  std::size_t pos = 0;
  for (const Splice& s : splices_) {
    if (s.at < pos || s.at > head_.size()) {
      throw std::invalid_argument("spliced payload: splice offset " + std::to_string(s.at) +
                                  " out of order or past the head");
    }
    if (!s.bytes.empty() && !s.bytes.owns_storage()) {
      throw std::invalid_argument("spliced payload: a splice must own its storage");
    }
    pos = s.at;
    size_ += s.bytes.size();
  }
}

Payload SplicedPayload::flatten(BufferPool& pool) && {
  if (splices_.empty()) return std::move(head_);
  ByteBuffer buf = pool.acquire(size_);
  for_each_piece([&](std::span<const std::uint8_t> piece) { buf.push_bytes(piece); });
  PayloadCounters::bytes_copied.fetch_add(size_, std::memory_order_relaxed);
  return pool.seal(std::move(buf));
}

// ------------------------------------------------------------- BufferPool

std::vector<std::uint8_t> BufferPool::take_idle() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (idle_.empty()) {
    ++allocated_;
    return {};
  }
  std::vector<std::uint8_t> storage = std::move(idle_.back());
  idle_.pop_back();
  ++reused_;
  return storage;
}

ByteBuffer BufferPool::acquire(std::size_t reserve_bytes) {
  std::vector<std::uint8_t> storage = take_idle();
  storage.clear();  // keeps capacity
  if (reserve_bytes > storage.capacity()) {
    PayloadCounters::buffers_allocated.fetch_add(1, std::memory_order_relaxed);
    storage.reserve(reserve_bytes);
  }
  return ByteBuffer(std::move(storage));
}

ByteBuffer BufferPool::acquire_for_overwrite(std::size_t length) {
  std::vector<std::uint8_t> storage = take_idle();
  if (length > storage.capacity()) {
    // Growing in place would first copy the old bytes across; start over.
    PayloadCounters::buffers_allocated.fetch_add(1, std::memory_order_relaxed);
    storage = std::vector<std::uint8_t>();
    storage.reserve(length);
  }
  storage.resize(length);  // within capacity: fills only [old size, length)
  return ByteBuffer(std::move(storage));
}

Payload BufferPool::seal(ByteBuffer&& buf) {
  auto* raw = new std::vector<std::uint8_t>(buf.take());
  std::weak_ptr<BufferPool> weak = weak_from_this();
  std::shared_ptr<const std::vector<std::uint8_t>> storage(
      raw, [weak](const std::vector<std::uint8_t>* p) {
        auto* mutable_storage = const_cast<std::vector<std::uint8_t>*>(p);
        if (auto pool = weak.lock()) {
          pool->release(std::move(*mutable_storage));
        }
        delete mutable_storage;
      });
  const std::uint8_t* data = storage->data();
  const std::size_t size = storage->size();
  return Payload(std::shared_ptr<const void>(std::move(storage)), data, size);
}

void BufferPool::release(std::vector<std::uint8_t>&& storage) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Don't let one oversized message pin its allocation forever: buffers that
  // grew past the retention cap are freed, not recycled.
  if (idle_.size() >= max_idle_ || storage.capacity() > max_buffer_bytes_) {
    ++dropped_;
    return;
  }
  ++returned_;
  idle_.push_back(std::move(storage));
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Stats{reused_, allocated_, returned_, dropped_, idle_.size()};
}

}  // namespace emlio
