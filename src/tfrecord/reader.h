// TFRecord shard reader over an mmap.
//
// Supports the two access patterns the system needs:
//   * sequential iteration (index building, verification), and
//   * contiguous *slice* reads — grab records [first, first+count) as one
//     byte range and split it into payload views with zero copies. This is
//     the daemon's hot path (§4.1/§4.3).
//
// The mapping is shared-owned: every record view the reader hands out keeps
// it mapped, so a batch message that splices records in by reference stays
// readable after the reader (and the daemon that owned it) is gone.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/payload.h"
#include "tfrecord/mmap_file.h"
#include "tfrecord/record_io.h"
#include "tfrecord/shard_index.h"

namespace emlio::tfrecord {

class ShardReader {
 public:
  /// Map the shard file named by `index`. Validates file size against the
  /// index. Throws std::runtime_error on mismatch.
  explicit ShardReader(ShardIndex index);

  /// Map a shard file at an explicit path with its index.
  ShardReader(ShardIndex index, const std::string& path_override);

  const ShardIndex& index() const noexcept { return index_; }
  std::size_t num_records() const noexcept { return index_.records.size(); }

  /// Payload view of record i (zero-copy; shares ownership of the
  /// mapping). CRC-verified when `verify` is true. The daemon reads its
  /// cache misses this way, so each is checked once, right before its cache
  /// insert.
  PayloadView record(std::size_t i, bool verify = false) const;

  /// Zero-copy payload views, each sharing ownership of the mapping, for
  /// the contiguous record range [first, first+count) — one bounds check,
  /// no per-record syscalls.
  std::vector<PayloadView> slice(std::size_t first, std::size_t count,
                                 bool verify = false) const;

  /// Scan the whole file sequentially, verifying every CRC.
  /// Returns the number of records seen; throws on corruption.
  std::size_t verify_all() const;

  /// Rebuild an index by scanning a shard file (recovery path when the
  /// mapping JSON is lost). Labels/sample ids are not recoverable from the
  /// framing alone and are set to 0 / position.
  static ShardIndex rebuild_index(std::uint32_t shard_id, const std::string& shard_path);

 private:
  ShardIndex index_;
  /// Owning handle on the whole mapped file; the mapping is unmapped when
  /// the reader and every record view of it are gone.
  Payload file_;
};

}  // namespace emlio::tfrecord
