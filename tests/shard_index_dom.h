// The tree path that ShardIndex::load used before its one-pass reader:
// json::parse, then this field extraction. tests/test_tfrecord.cpp and
// fuzz/fuzz_shard_index.cpp compare ShardIndex::parse against it.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string_view>

#include "json/json.h"
#include "tfrecord/shard_index.h"

namespace emlio::tfrecord::reference {

struct DomIndex {
  ShardIndex index;
  /// False if an integer field held a fraction or exponent token, which the
  /// tree path truncated and ShardIndex::parse rejects.
  bool integer_tokens = true;
};

/// Throws std::runtime_error wherever the tree path threw.
inline DomIndex dom_parse(std::string_view text) {
  const json::Value root = json::parse(text);
  DomIndex out;
  // Value::as_int casts a double, which is undefined past int64; the value is
  // moot then anyway, since parse() rejects the token.
  const auto as_int = [&out](const json::Value& v) -> std::int64_t {
    if (!v.is_double()) return v.as_int();
    out.integer_tokens = false;
    return 0;
  };
  ShardIndex& idx = out.index;
  idx.shard_id = static_cast<std::uint32_t>(as_int(root.at("shard_id")));
  idx.shard_path = root.at("shard_path").as_string();
  idx.file_bytes = static_cast<std::uint64_t>(as_int(root.at("file_bytes")));
  for (const auto& row : root.at("records").as_array()) {
    const auto& tuple = row.as_array();
    if (tuple.size() != 4) throw std::runtime_error("shard index: record arity != 4");
    RecordEntry e;
    e.offset = static_cast<std::uint64_t>(as_int(tuple[0]));
    e.framed_size = static_cast<std::uint64_t>(as_int(tuple[1]));
    e.label = as_int(tuple[2]);
    e.sample_index = static_cast<std::uint64_t>(as_int(tuple[3]));
    idx.records.push_back(e);
  }
  return out;
}

}  // namespace emlio::tfrecord::reference
