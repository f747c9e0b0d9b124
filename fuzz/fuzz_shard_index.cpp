// Differential fuzz of the shard index reader (tfrecord/shard_index.h).
//
// ShardIndex::parse reads a mapping_shard_*.json document in one pass; the
// tree path it replaced (json::parse plus field extraction, kept in
// tests/shard_index_dom.h) is the reference. On every input:
//   1. if parse() returns an index, the tree path returns the same one;
//   2. if the tree path returns an index whose integer fields all held
//      integer tokens, parse() returns the same one;
//   3. an index parse() accepts round-trips through save() and load().
// A disagreement aborts, which libFuzzer and the standalone driver both
// report as a crash.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "../tests/shard_index_dom.h"
#include "tfrecord/shard_index.h"

namespace {

using emlio::tfrecord::ShardIndex;
using emlio::tfrecord::reference::DomIndex;

/// The round-trip file, one per process, removed at exit.
struct ScratchFile {
  std::string path = (std::filesystem::temp_directory_path() /
                      ("fuzz_shard_index_" + std::to_string(::getpid()) + ".json"))
                         .string();
  ~ScratchFile() { std::remove(path.c_str()); }
};

[[noreturn]] void mismatch(const char* what) {
  std::fprintf(stderr, "fuzz_shard_index: %s\n", what);
  std::abort();
}

std::optional<ShardIndex> one_pass(std::string_view text) {
  try {
    return ShardIndex::parse(text);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

std::optional<DomIndex> tree(std::string_view text) {
  try {
    return emlio::tfrecord::reference::dom_parse(text);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  const auto fast = one_pass(text);
  const auto slow = tree(text);
  if (fast && (!slow || slow->index != *fast)) {
    mismatch("parse() accepted a document the tree path rejects or reads differently");
  }
  if (slow && slow->integer_tokens && (!fast || *fast != slow->index)) {
    mismatch("parse() rejected or misread a document the tree path reads");
  }
  if (fast) {
    static const ScratchFile file;
    fast->save(file.path);
    if (ShardIndex::load(file.path) != *fast) mismatch("save() then load() changed the index");
  }
  return 0;
}

#include "fuzz_driver.h"
