#include "tfrecord/reader.h"

#include <memory>
#include <stdexcept>

namespace emlio::tfrecord {

ShardReader::ShardReader(ShardIndex index) : ShardReader(std::move(index), std::string()) {}

ShardReader::ShardReader(ShardIndex index, const std::string& path_override)
    : index_(std::move(index)) {
  auto map = std::make_shared<const MmapFile>(path_override.empty() ? index_.shard_path
                                                                   : path_override);
  if (map->size() != index_.file_bytes) {
    throw std::runtime_error("tfrecord reader: file size " + std::to_string(map->size()) +
                             " does not match index (" + std::to_string(index_.file_bytes) +
                             ") for " + map->path());
  }
  map->advise_sequential();
  const auto bytes = map->view();
  // The release closure holds the mapping: it is unmapped with the last
  // handle — this reader or any record view it handed out.
  file_ = Payload::wrap_external(bytes.data(), bytes.size(), [map = std::move(map)] {});
}

PayloadView ShardReader::record(std::size_t i, bool verify) const {
  if (i >= index_.records.size()) {
    throw std::out_of_range("tfrecord reader: record " + std::to_string(i) + " out of range");
  }
  const auto& e = index_.records[i];
  auto view = file_.view().subspan(e.offset, e.framed_size);
  auto parsed = verify ? read_record(view) : read_record_unchecked(view);
  return file_.slice(static_cast<std::size_t>(parsed.payload.data() - file_.data()),
                     parsed.payload.size());
}

std::vector<PayloadView> ShardReader::slice(std::size_t first, std::size_t count,
                                            bool verify) const {
  auto [begin, end] = index_.byte_range(first, count);
  auto range = file_.view().subspan(begin, end - begin);
  // The range's own handle on the mapping: its record views count their
  // references on this call's private block rather than each on the
  // mapping's, whose one cache line every encode thread would then bounce.
  const Payload owner = Payload::wrap_external(range.data(), range.size(), [file = file_] {});
  std::vector<PayloadView> out;
  out.reserve(count);
  std::size_t pos = 0;
  for (std::size_t i = 0; i < count; ++i) {
    auto parsed = verify ? read_record(range.subspan(pos)) : read_record_unchecked(range.subspan(pos));
    out.push_back(owner.slice(static_cast<std::size_t>(parsed.payload.data() - range.data()),
                              parsed.payload.size()));
    pos += parsed.framed_size;
  }
  return out;
}

std::size_t ShardReader::verify_all() const {
  auto view = file_.view();
  std::size_t pos = 0;
  std::size_t count = 0;
  while (pos < view.size()) {
    auto parsed = read_record(view.subspan(pos));
    pos += parsed.framed_size;
    ++count;
  }
  if (count != index_.records.size()) {
    throw std::runtime_error("tfrecord reader: scanned " + std::to_string(count) +
                             " records, index claims " + std::to_string(index_.records.size()));
  }
  return count;
}

ShardIndex ShardReader::rebuild_index(std::uint32_t shard_id, const std::string& shard_path) {
  MmapFile map(shard_path);
  ShardIndex idx;
  idx.shard_id = shard_id;
  idx.shard_path = shard_path;
  idx.file_bytes = map.size();
  auto view = map.view();
  std::size_t pos = 0;
  std::uint64_t i = 0;
  while (pos < view.size()) {
    auto parsed = read_record(view.subspan(pos));
    RecordEntry e;
    e.offset = pos;
    e.framed_size = parsed.framed_size;
    e.label = 0;
    e.sample_index = i++;
    idx.records.push_back(e);
    pos += parsed.framed_size;
  }
  return idx;
}

}  // namespace emlio::tfrecord
