// Differential fuzz of the CRC32-C kernels.
//
// compute() runs whichever kernel the host selected at start-up (the SSE4.2
// three-stream kernel on most x86-64 hosts); detail::compute_portable is the
// slicing-by-8 reference. The contract: both return the same value for
// every input, and continuing a CRC across a split equals the one-shot CRC.
//
// Input layout: the first byte picks the split point (as a fraction of the
// remaining bytes, so short and long inputs both get interior splits); the
// rest is the message. Any mismatch aborts.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>

#include "common/crc32c.h"

namespace {

void check(bool ok, const char* what, std::size_t len, std::size_t split) {
  if (ok) return;
  std::fprintf(stderr, "fuzz_crc32c: %s (len %zu, split %zu)\n", what, len, split);
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  using emlio::crc32c::compute;
  using emlio::crc32c::detail::compute_portable;
  if (size == 0) return 0;
  const std::span<const std::uint8_t> msg(data + 1, size - 1);
  const std::size_t split = msg.size() * data[0] / 255;
  const auto head = msg.first(split);
  const auto tail = msg.subspan(split);

  const std::uint32_t whole = compute(msg);
  check(whole == compute_portable(msg), "dispatched != portable", msg.size(), split);
  check(compute(tail, compute(head)) == whole, "continued != one-shot", msg.size(), split);
  check(compute_portable(tail, compute_portable(head)) == whole,
        "portable continued != one-shot", msg.size(), split);
  return 0;
}

#include "fuzz_driver.h"
