#include "common/crc32c.h"

#include <array>
#include <cstddef>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define EMLIO_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace emlio::crc32c {

namespace {

// Two kernels, one result (polynomial 0x1EDC6F41, reflected 0x82F63B78):
//   * portable slicing-by-8: eight 256-entry tables fold eight input bytes
//     per step; builds and runs on any host;
//   * SSE4.2 (x86-64): the `crc32` instruction. It is compiled with a
//     per-function target attribute, so the library itself never needs
//     -msse4.2, and compute() selects it from CPUID once per process.
// Both invert on entry and exit, so a CRC continued from another call is
// exact on either kernel.
constexpr std::uint32_t kPoly = 0x82F63B78u;
constexpr std::uint32_t kMaskDelta = 0xA282EAD8u;

using Table = std::array<std::uint32_t, 256>;

struct SlicingTables {
  std::array<Table, 8> t{};
  SlicingTables() {
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t crc = n;
      for (int j = 0; j < 8; ++j) crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
      t[0][n] = crc;
    }
    // t[k][n]: byte n followed by k zero bytes.
    for (std::size_t k = 1; k < t.size(); ++k) {
      for (std::size_t n = 0; n < 256; ++n) {
        t[k][n] = (t[k - 1][n] >> 8) ^ t[0][t[k - 1][n] & 0xFFu];
      }
    }
  }
};

const SlicingTables& slicing() {
  static const SlicingTables s;
  return s;
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint32_t portable_kernel(std::span<const std::uint8_t> bytes, std::uint32_t crc) {
  const auto& t = slicing().t;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

#if defined(EMLIO_CRC32C_SSE42)

// The instruction has a 3-cycle latency but issues every cycle, so one
// dependency chain runs at a third of its throughput. Inputs of at least
// three blocks are therefore checksummed as three adjacent blocks in one
// interleaved loop, and the three partial CRCs merged by advancing each over
// the blocks after it (Intel's iSCSI method). Long blocks amortize the merge
// on bulk records; short ones let a few hundred bytes interleave too.
constexpr std::size_t kLongBlock = 8192;
constexpr std::size_t kShortBlock = 256;

/// A 32×32 matrix over GF(2); column i is the image of bit i.
using Gf2Matrix = std::array<std::uint32_t, 32>;

std::uint32_t gf2_times(const Gf2Matrix& m, std::uint32_t v) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; v != 0; ++i, v >>= 1) {
    if (v & 1u) sum ^= m[i];
  }
  return sum;
}

/// The linear map "advance a raw CRC register over `bytes` zero bytes"
/// (`bytes` a power of two), tabulated per input byte: four lookups.
class ZeroShift {
 public:
  explicit ZeroShift(std::size_t bytes) {
    Gf2Matrix op{};  // advance over one zero bit
    op[0] = kPoly;
    for (std::size_t i = 1; i < op.size(); ++i) op[i] = 1u << (i - 1);
    for (std::size_t bits = 1; bits < 8 * bytes; bits <<= 1) {  // squaring doubles the zeros
      Gf2Matrix sq{};
      for (std::size_t i = 0; i < op.size(); ++i) sq[i] = gf2_times(op, op[i]);
      op = sq;
    }
    for (std::uint32_t n = 0; n < 256; ++n) {
      for (std::size_t k = 0; k < t_.size(); ++k) t_[k][n] = gf2_times(op, n << (8 * k));
    }
  }

  std::uint32_t operator()(std::uint32_t crc) const {
    return t_[0][crc & 0xFFu] ^ t_[1][(crc >> 8) & 0xFFu] ^ t_[2][(crc >> 16) & 0xFFu] ^
           t_[3][crc >> 24];
  }

 private:
  std::array<Table, 4> t_{};
};

const ZeroShift& long_shift() {
  static const ZeroShift s(kLongBlock);
  return s;
}

const ZeroShift& short_shift() {
  static const ZeroShift s(kShortBlock);
  return s;
}

__attribute__((target("sse4.2"))) inline std::uint64_t crc_word(std::uint64_t crc,
                                                                const std::uint8_t* p) {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof word);  // unaligned-safe load
  return _mm_crc32_u64(crc, word);
}

/// Consume whole triples of `block`-byte blocks from [p, p+n) while at least
/// one remains, as three interleaved streams merged into `crc`.
__attribute__((target("sse4.2"))) std::uint64_t three_streams(const std::uint8_t*& p,
                                                              std::size_t& n, std::uint64_t crc,
                                                              std::size_t block,
                                                              const ZeroShift& shift) {
  while (n >= 3 * block) {
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (const std::uint8_t* end = p + block; p < end; p += 8) {
      crc = crc_word(crc, p);
      crc1 = crc_word(crc1, p + block);
      crc2 = crc_word(crc2, p + 2 * block);
    }
    crc = shift(static_cast<std::uint32_t>(crc)) ^ crc1;
    crc = shift(static_cast<std::uint32_t>(crc)) ^ crc2;
    p += 2 * block;
    n -= 3 * block;
  }
  return crc;
}

__attribute__((target("sse4.2"))) std::uint32_t sse42_kernel(std::span<const std::uint8_t> bytes,
                                                             std::uint32_t crc) {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t reg = ~crc;
  // Bytes up to an 8-byte boundary, so no word load splits a cache line.
  for (; n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0; ++p, --n) {
    reg = _mm_crc32_u8(static_cast<std::uint32_t>(reg), *p);
  }
  reg = three_streams(p, n, reg, kLongBlock, long_shift());
  reg = three_streams(p, n, reg, kShortBlock, short_shift());
  for (; n >= 8; p += 8, n -= 8) reg = crc_word(reg, p);
  for (; n > 0; ++p, --n) reg = _mm_crc32_u8(static_cast<std::uint32_t>(reg), *p);
  return ~static_cast<std::uint32_t>(reg);
}

#endif  // EMLIO_CRC32C_SSE42

using Kernel = std::uint32_t (*)(std::span<const std::uint8_t>, std::uint32_t);

Kernel select_kernel() {
#if defined(EMLIO_CRC32C_SSE42)
  __builtin_cpu_init();  // compute() may run from another static initializer
  if (__builtin_cpu_supports("sse4.2")) return sse42_kernel;
#endif
  return portable_kernel;
}

}  // namespace

std::uint32_t compute(std::span<const std::uint8_t> bytes, std::uint32_t crc) {
  static const Kernel kernel = select_kernel();
  return kernel(bytes, crc);
}

std::uint32_t mask(std::uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

std::uint32_t unmask(std::uint32_t masked_crc) {
  std::uint32_t rot = masked_crc - kMaskDelta;
  return (rot >> 17) | (rot << 15);
}

std::uint32_t masked(std::span<const std::uint8_t> bytes) { return mask(compute(bytes)); }

namespace detail {

std::uint32_t compute_portable(std::span<const std::uint8_t> bytes, std::uint32_t crc) {
  return portable_kernel(bytes, crc);
}

}  // namespace detail

}  // namespace emlio::crc32c
