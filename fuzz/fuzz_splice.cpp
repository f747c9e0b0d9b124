// Differential fuzz of the spliced batch encoder.
//
// BatchCodec::encode_spliced writes a pooled head and splices large samples
// in by reference; BatchCodec::encode writes one contiguous buffer. The
// contract: the spliced message, gathered piece by piece the way a sink
// does, is byte-identical to the contiguous encoding and decodes back to the
// same batch; only owning samples at or above the threshold are spliced.
//
// Input layout: byte 0 holds flags (bit 0: trace origin set, bit 1: last,
// bits 2-3: threshold — kSpliceMinBytes, 0, 256 or 65,536); then up to 12
// samples of 3 bytes each: size = a * 512 + b * 2 + (c >> 7), which spans
// both sides of every threshold and every bin header width; c bit 0 makes
// the sample borrowed, c bits 1-6 seed its contents. Any mismatch aborts.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "msgpack/batch_codec.h"

namespace {

using emlio::msgpack::BatchCodec;

void check(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "fuzz_splice: %s\n", what);
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  constexpr std::size_t kMaxSamples = 12;
  constexpr std::size_t kThresholds[] = {BatchCodec::kSpliceMinBytes, 0, 256, 65536};
  if (size == 0) return 0;
  const std::uint8_t flags = data[0];
  const std::size_t splice_min = kThresholds[(flags >> 2) & 3];

  emlio::msgpack::WireBatch batch;
  batch.batch_id = size;
  batch.last = (flags & 2) != 0;
  batch.trace_origin_ns = (flags & 1) ? 0x1122334455ull : 0;
  std::vector<std::vector<std::uint8_t>> borrowed_storage;
  borrowed_storage.reserve(kMaxSamples);
  std::size_t expect_splices = 0;
  for (std::size_t i = 1; i + 3 <= size && batch.samples.size() < kMaxSamples; i += 3) {
    const std::uint8_t a = data[i], b = data[i + 1], c = data[i + 2];
    const std::size_t n = std::size_t{a} * 512 + std::size_t{b} * 2 + (c >> 7);
    std::vector<std::uint8_t> bytes(n);
    for (std::size_t k = 0; k < n; ++k) {
      bytes[k] = static_cast<std::uint8_t>((c >> 1) * 131 + k * 7);
    }
    emlio::msgpack::WireSample s;
    s.index = i;
    s.label = -static_cast<std::int64_t>(a);
    if (c & 1) {
      borrowed_storage.push_back(std::move(bytes));
      s.bytes = std::span<const std::uint8_t>(borrowed_storage.back());
    } else {
      expect_splices += n >= splice_min;
      s.bytes = std::move(bytes);
    }
    batch.samples.push_back(std::move(s));
  }

  auto pool = emlio::BufferPool::create();
  emlio::SplicedPayload message =
      splice_min == BatchCodec::kSpliceMinBytes
          ? BatchCodec::encode_spliced(batch, *pool)
          : emlio::msgpack::detail::encode_spliced(batch, *pool, splice_min);
  const emlio::Payload contiguous = BatchCodec::encode(batch);

  check(message.splices().size() == expect_splices, "wrong samples spliced");
  for (const auto& s : message.splices()) {
    check(s.bytes.empty() || s.bytes.owns_storage(), "borrowed sample spliced");
  }
  check(message.size() == contiguous.size(), "spliced size != contiguous size");
  std::vector<std::uint8_t> gathered;
  gathered.reserve(message.size());
  message.for_each_piece([&](std::span<const std::uint8_t> piece) {
    check(!piece.empty(), "empty piece");
    gathered.insert(gathered.end(), piece.begin(), piece.end());
  });
  check(contiguous == std::span<const std::uint8_t>(gathered), "gathered != contiguous");
  const emlio::Payload flat = std::move(message).flatten(*pool);
  check(flat == contiguous, "flattened != contiguous");
  check(BatchCodec::decode(flat) == batch, "decoded batch differs");
  return 0;
}

#include "fuzz_driver.h"
