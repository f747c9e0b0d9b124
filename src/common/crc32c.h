// CRC32-C (Castagnoli) plus the TFRecord "masked" variant.
//
// TFRecord frames every record with masked CRC32-C checksums of the length
// field and the payload; we implement the same masking so our shards are
// byte-compatible with the TensorFlow on-disk format the paper uses.
//
// compute() is dispatched once per process at run time: on x86-64 hosts
// with SSE4.2 it runs the `crc32` instruction over three interleaved
// streams; everywhere else it falls back to portable slicing-by-8. Both
// kernels return identical values, so the library builds for, and its
// shards move between, any host.
#pragma once

#include <cstdint>
#include <span>

namespace emlio::crc32c {

/// Compute CRC32-C over `bytes`, continuing from a previous crc (0 to start):
/// compute(b, compute(a)) == compute(a‖b).
std::uint32_t compute(std::span<const std::uint8_t> bytes, std::uint32_t crc = 0);

/// TFRecord masking: rotate right by 15 and add a constant, so that CRCs of
/// CRC-bearing data don't look like valid CRCs.
std::uint32_t mask(std::uint32_t crc);

/// Inverse of mask().
std::uint32_t unmask(std::uint32_t masked);

/// Masked CRC32-C of `bytes` — the value TFRecord stores on disk.
std::uint32_t masked(std::span<const std::uint8_t> bytes);

namespace detail {

/// The portable slicing-by-8 kernel compute() falls back to. Exposed so the
/// tests, the fuzz harness and the micro bench can check and time the
/// dispatched kernel against it; it is not a run-time switch.
std::uint32_t compute_portable(std::span<const std::uint8_t> bytes, std::uint32_t crc = 0);

}  // namespace detail

}  // namespace emlio::crc32c
