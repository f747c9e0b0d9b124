#include "common/bytes.h"

#include <bit>

namespace emlio {

namespace {

template <typename T>
T byteswap_if_le(T v) {
  if constexpr (std::endian::native == std::endian::little) {
    if constexpr (sizeof(T) == 2) return __builtin_bswap16(v);
    if constexpr (sizeof(T) == 4) return __builtin_bswap32(v);
    if constexpr (sizeof(T) == 8) return __builtin_bswap64(v);
  }
  return v;
}

}  // namespace

void ByteBuffer::push_u16be(std::uint16_t v) { push_u16le(byteswap_if_le(v)); }
void ByteBuffer::push_u32be(std::uint32_t v) { push_u32le(byteswap_if_le(v)); }
void ByteBuffer::push_u64be(std::uint64_t v) { push_u64le(byteswap_if_le(v)); }

void ByteBuffer::push_f64be(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  push_u64be(bits);
}

void FixedBuffer::push_u16be(std::uint16_t v) {
  v = byteswap_if_le(v);
  copy(&v, sizeof v);
}
void FixedBuffer::push_u32be(std::uint32_t v) {
  v = byteswap_if_le(v);
  copy(&v, sizeof v);
}
void FixedBuffer::push_u64be(std::uint64_t v) {
  v = byteswap_if_le(v);
  copy(&v, sizeof v);
}

void FixedBuffer::push_f64be(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  push_u64be(bits);
}

std::uint16_t ByteReader::read_u16le() {
  auto b = read_bytes(2);
  std::uint16_t v;
  std::memcpy(&v, b.data(), sizeof v);
  return v;
}
std::uint32_t ByteReader::read_u32le() {
  auto b = read_bytes(4);
  std::uint32_t v;
  std::memcpy(&v, b.data(), sizeof v);
  return v;
}
std::uint64_t ByteReader::read_u64le() {
  auto b = read_bytes(8);
  std::uint64_t v;
  std::memcpy(&v, b.data(), sizeof v);
  return v;
}
std::uint16_t ByteReader::read_u16be() { return byteswap_if_le(read_u16le()); }
std::uint32_t ByteReader::read_u32be() { return byteswap_if_le(read_u32le()); }
std::uint64_t ByteReader::read_u64be() { return byteswap_if_le(read_u64le()); }

double ByteReader::read_f64be() {
  std::uint64_t bits = read_u64be();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string to_string(std::span<const std::uint8_t> bytes) {
  return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

std::vector<std::uint8_t> to_bytes(std::string_view sv) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(sv.data());
  return std::vector<std::uint8_t>(p, p + sv.size());
}

}  // namespace emlio
