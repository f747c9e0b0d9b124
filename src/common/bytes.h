// Byte-buffer primitives shared by the wire format, TFRecord framing and the
// network layer. Little-endian encode/decode helpers operate on raw spans so
// the same code path serves mmap'd files and socket buffers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace emlio {

/// Owning, growable byte buffer with append-style encoding helpers.
/// Used to build msgpack payloads and framed network messages.
class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(std::size_t reserve_bytes) { data_.reserve(reserve_bytes); }
  explicit ByteBuffer(std::vector<std::uint8_t> bytes) : data_(std::move(bytes)) {}

  /// Number of bytes currently stored.
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  const std::uint8_t* data() const noexcept { return data_.data(); }
  std::uint8_t* data() noexcept { return data_.data(); }

  /// Read-only view of the whole buffer.
  std::span<const std::uint8_t> view() const noexcept { return {data_.data(), data_.size()}; }

  /// Drop all contents but keep capacity (buffers are pooled by callers).
  void clear() noexcept { data_.clear(); }
  void reserve(std::size_t n) { data_.reserve(n); }
  void resize(std::size_t n) { data_.resize(n); }

  /// Append a single byte.
  void push_u8(std::uint8_t v) { data_.push_back(v); }

  /// Append fixed-width little-endian integers.
  void push_u16le(std::uint16_t v) { push_raw(&v, sizeof v); }
  void push_u32le(std::uint32_t v) { push_raw(&v, sizeof v); }
  void push_u64le(std::uint64_t v) { push_raw(&v, sizeof v); }

  /// Append fixed-width big-endian integers (msgpack is big-endian).
  void push_u16be(std::uint16_t v);
  void push_u32be(std::uint32_t v);
  void push_u64be(std::uint64_t v);

  /// Append an IEEE-754 double in big-endian byte order.
  void push_f64be(double v);

  /// Append raw bytes.
  void push_bytes(std::span<const std::uint8_t> bytes) {
    data_.insert(data_.end(), bytes.begin(), bytes.end());
  }
  void push_bytes(std::string_view sv) {
    push_raw(sv.data(), sv.size());
  }

  /// Move the underlying storage out (the buffer is left empty).
  std::vector<std::uint8_t> take() noexcept { return std::move(data_); }

 private:
  void push_raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    data_.insert(data_.end(), b, b + n);
  }
  std::vector<std::uint8_t> data_;
};

/// Append-style writer over caller-owned memory of fixed capacity, with
/// ByteBuffer's push interface, so one serializer writes either (the batch
/// codec encodes straight into a transport's slab through one). A push that
/// does not fit throws std::length_error and writes nothing; what was
/// written before stays.
class FixedBuffer {
 public:
  explicit FixedBuffer(std::span<std::uint8_t> memory) noexcept : mem_(memory) {}

  /// Bytes written (or skipped) so far.
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return mem_.size(); }

  void push_u8(std::uint8_t v) { *claim(1) = v; }
  void push_u16be(std::uint16_t v);
  void push_u32be(std::uint32_t v);
  void push_u64be(std::uint64_t v);
  void push_f64be(double v);
  void push_bytes(std::span<const std::uint8_t> bytes) { copy(bytes.data(), bytes.size()); }
  void push_bytes(std::string_view sv) { copy(sv.data(), sv.size()); }

  /// Leave the next `n` bytes unwritten, for the caller to fill later.
  void skip(std::size_t n) { claim(n); }

 private:
  std::uint8_t* claim(std::size_t n) {
    if (n > mem_.size() - size_) {
      throw std::length_error("FixedBuffer: " + std::to_string(n) + " bytes at offset " +
                              std::to_string(size_) + " overflow its " +
                              std::to_string(mem_.size()) + "-byte capacity");
    }
    std::uint8_t* at = mem_.data() + size_;
    size_ += n;
    return at;
  }
  void copy(const void* p, std::size_t n) {
    std::uint8_t* at = claim(n);
    if (n != 0) std::memcpy(at, p, n);
  }

  std::span<std::uint8_t> mem_;
  std::size_t size_ = 0;
};

/// Non-owning cursor over a byte span with bounds-checked decode helpers.
/// Throws std::out_of_range when a read would run past the end, which the
/// deserializers convert into a framing error.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  std::size_t position() const noexcept { return pos_; }
  bool exhausted() const noexcept { return pos_ >= bytes_.size(); }

  std::uint8_t peek_u8() const {
    require(1);
    return bytes_[pos_];
  }
  std::uint8_t read_u8() {
    require(1);
    return bytes_[pos_++];
  }
  std::uint16_t read_u16be();
  std::uint32_t read_u32be();
  std::uint64_t read_u64be();
  std::uint16_t read_u16le();
  std::uint32_t read_u32le();
  std::uint64_t read_u64le();
  double read_f64be();

  /// Return a view of the next n bytes and advance.
  std::span<const std::uint8_t> read_bytes(std::size_t n) {
    require(n);
    auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// Skip n bytes.
  void skip(std::size_t n) {
    require(n);
    pos_ += n;
  }

 private:
  void require(std::size_t n) const {
    if (pos_ + n > bytes_.size()) {
      throw std::out_of_range("ByteReader: truncated input (need " + std::to_string(n) +
                              " bytes at offset " + std::to_string(pos_) + ", have " +
                              std::to_string(bytes_.size() - pos_) + ")");
    }
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Convert a byte span to a std::string (for tests and logging).
std::string to_string(std::span<const std::uint8_t> bytes);

/// Convert a string to an owned byte vector.
std::vector<std::uint8_t> to_bytes(std::string_view sv);

}  // namespace emlio
