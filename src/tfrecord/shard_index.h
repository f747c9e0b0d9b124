// Shard index — the paper's `mapping_shard_*.json` files.
//
// Algorithm 2 line 1: "parse mapping_shard_*.json to get offsets/sizes" and
// line 2 builds "a global label map from all shards". Each shard's index
// stores, per record: byte offset in the shard file, framed size, label, and
// the dataset-global sample index. Those records are the label map: the
// Planner maps contiguous offset ranges to batches from their counts without
// touching the data files, and the daemon reads each sample's label from its
// own record.
//
// Reading. `parse` steps once through the document with a json::Reader
// (json::parse's own lexical rules) and fills RecordEntrys as it goes, with
// no JSON tree; `load` maps the file (MmapFile) and parses it. Against the
// tree path it replaces (json::parse, then field extraction):
//   * accepted: the same documents: any key order and whitespace, the same
//     string escapes, and unknown keys, whose values are skipped but must
//     still be valid JSON. A repeated key takes its last value.
//   * rejected, as before: a syntax error (with its byte offset), a missing
//     key, a value of the wrong type, a record whose arity is not 4, and a
//     number outside int64.
//   * rejected, newly: a fraction or exponent in an integer field ("4112.7",
//     "1e3"), which the tree path truncated. Integer fields take integer
//     tokens only, read as int64 and cast to the field's type, as `save`
//     writes them. A number token must convert in full ("1-2" is an error).
//   `load` puts the file's path in every error it throws.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace emlio::tfrecord {

/// Index entry for one record in a shard file.
struct RecordEntry {
  std::uint64_t offset = 0;       ///< byte offset of the framed record
  std::uint64_t framed_size = 0;  ///< bytes on disk including framing
  std::int64_t label = 0;         ///< training label
  std::uint64_t sample_index = 0; ///< dataset-global sample id

  bool operator==(const RecordEntry&) const = default;
};

/// Index for one shard file.
struct ShardIndex {
  std::uint32_t shard_id = 0;
  std::string shard_path;          ///< path of the .tfrecord data file
  std::uint64_t file_bytes = 0;    ///< total shard file size
  std::vector<RecordEntry> records;

  bool operator==(const ShardIndex&) const = default;

  std::size_t num_records() const { return records.size(); }

  /// Total payload bytes (excluding framing) across all records.
  std::uint64_t payload_bytes() const;

  /// Contiguous byte range [begin_offset, end_offset) covering records
  /// [first, first+count). Throws std::out_of_range if the range is invalid.
  std::pair<std::uint64_t, std::uint64_t> byte_range(std::size_t first, std::size_t count) const;

  /// Serialize to the mapping_shard JSON schema.
  void save(const std::string& json_path) const;

  /// Read one mapping_shard document (see the contract above). Throws
  /// std::runtime_error on any violation.
  static ShardIndex parse(std::string_view text);

  /// Map `json_path` and parse it; every error names the file.
  static ShardIndex load(const std::string& json_path);

  /// Conventional index filename for a shard id ("mapping_shard_0007.json").
  static std::string index_filename(std::uint32_t shard_id);
  /// Conventional data filename ("shard_0007.tfrecord").
  static std::string shard_filename(std::uint32_t shard_id);
};

/// Load every mapping_shard_*.json in a directory, sorted by shard id.
///
/// The files are parsed on the calling thread plus helper threads named
/// emlio-index<i>: one thread in all per whole MiB of index, capped at the
/// core count and the file count, so an index set under 2 MiB starts no
/// helper. Every helper is joined before this returns or throws. A file that
/// fails throws its own error, the first such file in name order; two files
/// holding the same shard id throw an error that names both.
std::vector<ShardIndex> load_all_indexes(const std::string& directory);

}  // namespace emlio::tfrecord
