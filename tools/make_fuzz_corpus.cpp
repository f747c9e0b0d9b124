// Generate the seed corpus for the fuzz/ harnesses.
//
//   make_fuzz_corpus <outdir>
//
// Writes one subdirectory per harness (msgpack/, framing/, shm_header/,
// json/, crc32c/, splice/, shard_index/), each seeded with REAL wire bytes
// produced by the same code paths the daemon uses — an encoded data batch,
// a sentinel, a valid frame header, a freshly created shm segment header, a
// shard-index-shaped JSON document, a saved shard index — plus a few
// near-miss mutants
// (truncations, flipped magics) so the fuzzers start on both sides of every
// validation branch instead of rediscovering the format from zero. The
// crc32c seeds are sized to reach each path of the hardware kernel (bytes,
// words, short and long three-stream blocks); the splice seeds describe
// batches with samples on both sides of each splice threshold and at every
// bin header edge.
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "json/json.h"
#include "msgpack/batch_codec.h"
#include "net/framing.h"
#include "net/shm_segment.h"
#include "tfrecord/shard_index.h"

namespace fs = std::filesystem;

namespace {

void write_seed(const fs::path& dir, const std::string& name,
                std::span<const std::uint8_t> bytes) {
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write seed " + (dir / name).string());
}

void write_seed(const fs::path& dir, const std::string& name, const std::string& text) {
  write_seed(dir, name,
             std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(text.data()),
                                           text.size()));
}

std::vector<std::uint8_t> encoded_batch(bool sentinel) {
  emlio::msgpack::WireBatch batch;
  if (sentinel) {
    batch = emlio::msgpack::BatchCodec::make_sentinel(/*node_id=*/2, /*epoch=*/1,
                                                      /*sent_count=*/7);
  } else {
    batch.epoch = 1;
    batch.batch_id = 42;
    batch.node_id = 2;
    batch.shard_id = 3;
    static const std::vector<std::uint8_t> sample_a = {0xDE, 0xAD, 0xBE, 0xEF};
    static const std::vector<std::uint8_t> sample_b = {0x01, 0x02, 0x03};
    batch.samples.push_back(
        {100, 7, emlio::PayloadView(std::span<const std::uint8_t>(sample_a))});
    batch.samples.push_back(
        {101, 3, emlio::PayloadView(std::span<const std::uint8_t>(sample_b))});
  }
  emlio::ByteBuffer buf;
  emlio::msgpack::BatchCodec::encode(batch, buf);
  return std::vector<std::uint8_t>(buf.view().begin(), buf.view().end());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: make_fuzz_corpus <outdir>\n";
    return 2;
  }
  const fs::path out(argv[1]);

  // ------------------------------------------------------------- msgpack
  const fs::path mp = out / "msgpack";
  fs::create_directories(mp);
  const std::vector<std::uint8_t> data_batch = encoded_batch(false);
  const std::vector<std::uint8_t> sentinel = encoded_batch(true);
  write_seed(mp, "data_batch.bin", data_batch);
  write_seed(mp, "sentinel.bin", sentinel);
  write_seed(mp, "truncated_batch.bin",
             std::span<const std::uint8_t>(data_batch.data(), data_batch.size() / 2));
  write_seed(mp, "fixmap_nested.bin",
             std::vector<std::uint8_t>{0x81, 0xA1, 'k', 0x91, 0x81, 0xA1, 'v', 0xC0});

  // ------------------------------------------------------------- framing
  const fs::path fr = out / "framing";
  fs::create_directories(fr);
  std::uint8_t header[emlio::net::kFrameHeaderBytes];
  std::uint32_t magic = emlio::net::kFrameMagic;
  std::uint32_t length = static_cast<std::uint32_t>(data_batch.size());
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &length, 4);
  write_seed(fr, "valid_header.bin", std::span<const std::uint8_t>(header, sizeof header));
  header[0] ^= 0xFF;  // flipped magic
  write_seed(fr, "bad_magic.bin", std::span<const std::uint8_t>(header, sizeof header));
  header[0] ^= 0xFF;
  length = emlio::net::kMaxFrameBytes + 1;
  std::memcpy(header + 4, &length, 4);
  write_seed(fr, "oversized.bin", std::span<const std::uint8_t>(header, sizeof header));

  // ---------------------------------------------------------- shm header
  const fs::path sh = out / "shm_header";
  fs::create_directories(sh);
  {
    emlio::net::ShmSegment::Options opts;
    opts.slab_bytes = 1u << 16;
    opts.slab_count = 4;
    const std::string name = "/emlio-fuzz-corpus-" + std::to_string(::getpid());
    auto seg = emlio::net::ShmSegment::create(name, opts);
    // Header bytes + the 8-byte mapped_bytes suffix the harness consumes.
    std::vector<std::uint8_t> seed(sizeof(emlio::net::ShmSegmentHeader) + 8);
    std::memcpy(seed.data(), &seg->header(), sizeof(emlio::net::ShmSegmentHeader));
    const std::uint64_t mapped = seg->header().total_bytes;
    std::memcpy(seed.data() + sizeof(emlio::net::ShmSegmentHeader), &mapped, 8);
    write_seed(sh, "valid_header.bin", seed);
    // Mutants: corrupt geometry (the historical next_pow2 spin), bad magic.
    std::vector<std::uint8_t> corrupt = seed;
    auto* hdr = reinterpret_cast<emlio::net::ShmSegmentHeader*>(corrupt.data());
    hdr->slab_count = 0xFFFFFFFFu;
    write_seed(sh, "huge_slab_count.bin", corrupt);
    std::memcpy(corrupt.data(), seed.data(), seed.size());
    hdr->magic = 0x12345678u;
    write_seed(sh, "bad_magic.bin", corrupt);
  }

  // ---------------------------------------------------------------- json
  const fs::path js = out / "json";
  fs::create_directories(js);
  write_seed(js, "shard_index.json", std::string(R"({
  "shard": 3,
  "num_samples": 2,
  "samples": [
    {"index": 100, "label": 7, "offset": 0, "length": 4},
    {"index": 101, "label": 3, "offset": 4, "length": 3}
  ]
})"));
  write_seed(js, "scalars.json", std::string(R"([null, true, -1.5e3, "aéb", {}])"));
  write_seed(js, "nested.json", std::string("[[[[[[[[{\"k\":[1,2,3]}]]]]]]]]"));

  // --------------------------------------------------------- shard_index
  // A real 3-record index as save() writes it (pretty), the same compact,
  // a truncation, and the keys in another order.
  const fs::path si = out / "shard_index";
  fs::create_directories(si);
  {
    emlio::tfrecord::ShardIndex idx;
    idx.shard_id = 7;
    idx.shard_path = "/data/shard_0007.tfrecord";
    idx.file_bytes = 12384;
    idx.records = {{0, 4112, 3, 7}, {4112, 4112, -1, 15}, {8224, 4160, 999, 23}};
    const fs::path pretty = si / "pretty.json";
    idx.save(pretty.string());
    std::ifstream in(pretty, std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    write_seed(si, "compact.json", emlio::json::parse(text).dump(-1));
    write_seed(si, "truncated.json", text.substr(0, text.size() / 2));
    write_seed(si, "reordered.json",
               std::string(R"({"records": [[0, 4112, 3, 7], [4112, 4112, -1, 15],)"
                           R"( [8224, 4160, 999, 23]], "shard_path": "/data/shard_0007.tfrecord",)"
                           R"( "file_bytes": 12384, "shard_id": 7})"));
  }

  // -------------------------------------------------------------- crc32c
  // First byte = split point (0x80: the middle), then the message. Sizes:
  // below one word, just past three short blocks (768), and just past
  // three long blocks (24 KiB), each off by a few bytes.
  const fs::path cr = out / "crc32c";
  fs::create_directories(cr);
  write_seed(cr, "check_vector.bin", std::string("\x80" "123456789"));
  for (std::size_t len : {std::size_t{7}, std::size_t{3 * 256 + 13}, std::size_t{3 * 8192 + 13}}) {
    std::vector<std::uint8_t> seed(len + 1);
    seed[0] = 0x80;
    for (std::size_t i = 1; i < seed.size(); ++i) seed[i] = static_cast<std::uint8_t>(i * 131);
    write_seed(cr, "pattern_" + std::to_string(len) + ".bin", seed);
  }

  // -------------------------------------------------------------- splice
  // Byte 0 = flags (bit 0 trace origin, bit 1 last, bits 2-3 threshold
  // index), then 3 bytes per sample: size = a * 512 + b * 2 + (c >> 7),
  // c bit 0 = borrowed (see fuzz/fuzz_splice.cpp).
  const fs::path sp = out / "splice";
  fs::create_directories(sp);
  auto sample = [](std::size_t n, bool borrowed) {
    return std::vector<std::uint8_t>{static_cast<std::uint8_t>(n / 512),
                                     static_cast<std::uint8_t>(n % 512 / 2),
                                     static_cast<std::uint8_t>((n % 2) << 7 | 0x2A | borrowed)};
  };
  auto splice_seed = [&](std::uint8_t flags,
                         std::initializer_list<std::pair<std::size_t, bool>> samples) {
    std::vector<std::uint8_t> seed{flags};
    for (auto [n, borrowed] : samples) {
      auto s3 = sample(n, borrowed);
      seed.insert(seed.end(), s3.begin(), s3.end());
    }
    return seed;
  };
  const std::size_t t = emlio::msgpack::BatchCodec::kSpliceMinBytes;
  write_seed(sp, "both_sides_of_threshold.bin",
             splice_seed(0, {{4096, false}, {t - 1, false}, {t, false}, {0, false},
                             {2 * t + 1, false}, {t + 8, true}}));
  write_seed(sp, "all_spliced_traced.bin",
             splice_seed(1 | 1 << 2, {{0, false}, {1, false}, {255, false}, {256, false}}));
  write_seed(sp, "bin16_edges_sentinel_flag.bin",
             splice_seed(2 | 3 << 2, {{65535, false}, {65536, false}, {65537, true}}));
  write_seed(sp, "no_samples.bin", splice_seed(2, {}));

  std::cout << "fuzz corpus written to " << out << "\n";
  return 0;
}
