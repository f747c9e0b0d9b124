#include "tfrecord/shard_index.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/thread_name.h"
#include "json/json.h"
#include "tfrecord/mmap_file.h"
#include "tfrecord/record_io.h"

namespace emlio::tfrecord {

namespace {

/// A schema violation in well-formed JSON: a wrong type, an arity other than
/// 4, or (newly) a fraction in an integer field. The reader notes it and
/// reads on, since a later copy of the key may replace the value and a later
/// syntax error must still win, as on the tree path.
struct SchemaError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

enum Field : std::size_t { kShardId, kShardPath, kFileBytes, kRecords, kNumFields };
constexpr const char* kFieldNames[kNumFields] = {"shard_id", "shard_path", "file_bytes",
                                                 "records"};

/// ShardIndex::parse: one pass of a json::Reader over the document, filling
/// the index as it goes.
class IndexReader {
 public:
  explicit IndexReader(std::string_view text) : in_(text) {}

  ShardIndex read() {
    ShardIndex idx;
    // Per field: unset until seen, then its last value's error ("" if none).
    std::optional<std::string> status[kNumFields];
    in_.skip_ws();
    if (in_.peek() != '{') {
      in_.value(0);
      in_.finish();
      throw std::runtime_error("shard index: the document is not an object");
    }
    in_.next();
    in_.skip_ws();
    if (in_.peek() == '}') {
      in_.next();
    } else {
      for (;;) {
        in_.skip_ws();
        const std::size_t field = field_of(in_.string());
        in_.skip_ws();
        in_.expect(':');
        const std::size_t value = in_.offset();
        if (field == kNumFields) {
          in_.value(1);  // an unknown key's value: checked, then dropped
        } else {
          try {
            read_field(field, idx);
            status[field] = std::string();
          } catch (const SchemaError& e) {
            in_.seek(value);
            in_.value(1);
            status[field] = e.what();
          }
        }
        in_.skip_ws();
        const char c = in_.next();
        if (c == '}') break;
        if (c != ',') in_.fail("expected ',' or '}' in object");
      }
    }
    in_.finish();
    for (std::size_t f = 0; f < kNumFields; ++f) {
      if (!status[f]) {
        throw std::runtime_error(std::string("shard index: missing key '") + kFieldNames[f] +
                                 "'");
      }
      if (!status[f]->empty()) throw std::runtime_error(*status[f]);
    }
    return idx;
  }

 private:
  [[noreturn]] void schema_error(const std::string& msg) const {
    throw SchemaError("shard index: at offset " + std::to_string(in_.offset()) + ": " + msg);
  }

  static std::size_t field_of(const std::string& key) {
    for (std::size_t f = 0; f < kNumFields; ++f) {
      if (key == kFieldNames[f]) return f;
    }
    return kNumFields;
  }

  void read_field(std::size_t field, ShardIndex& idx) {
    switch (field) {
      case kShardId: idx.shard_id = static_cast<std::uint32_t>(read_int("'shard_id'")); break;
      case kFileBytes:
        idx.file_bytes = static_cast<std::uint64_t>(read_int("'file_bytes'"));
        break;
      case kShardPath:
        in_.skip_ws();
        if (in_.peek() != '"') schema_error("'shard_path' is not a string");
        idx.shard_path = in_.string();
        break;
      default: read_records(idx.records); break;
    }
  }

  void read_records(std::vector<RecordEntry>& records) {
    records.clear();
    in_.skip_ws();
    if (in_.peek() != '[') schema_error("'records' is not an array");
    in_.next();
    in_.skip_ws();
    if (in_.peek() == ']') {
      in_.next();
      return;
    }
    for (;;) {
      in_.skip_ws();
      const auto record = [&records] { return "record " + std::to_string(records.size()); };
      if (in_.peek() != '[') schema_error(record() + " is not an array");
      in_.next();
      std::int64_t f[4] = {};
      std::size_t n = 0;
      in_.skip_ws();
      bool closed = in_.peek() == ']';
      if (closed) in_.next();
      while (!closed && n < 4) {
        f[n++] = read_int("a record field");
        in_.skip_ws();
        const char c = in_.next();
        closed = c == ']';
        if (!closed && c != ',') in_.fail("expected ',' or ']' in array");
      }
      if (!closed || n != 4) schema_error(record() + ": arity != 4");
      records.push_back({static_cast<std::uint64_t>(f[0]), static_cast<std::uint64_t>(f[1]),
                         f[2], static_cast<std::uint64_t>(f[3])});
      in_.skip_ws();
      const char c = in_.next();
      if (c == ']') return;
      if (c != ',') in_.fail("expected ',' or ']' in array");
    }
  }

  std::int64_t read_int(const char* what) {
    in_.skip_ws();
    // Fast path, the form save() writes: an optional '-' and 1 to 18 digits
    // (no overflow), then a byte that cannot continue a number token.
    const std::string_view text = in_.text();
    std::size_t i = in_.offset();
    const bool negative = i < text.size() && text[i] == '-';
    i += negative;
    const std::size_t digits = i;
    std::uint64_t v = 0;
    while (i < text.size() && static_cast<unsigned>(text[i] - '0') < 10u) {
      v = v * 10 + static_cast<unsigned>(text[i++] - '0');
    }
    if (i != digits && i - digits <= 18 && (i == text.size() || !json::in_number(text[i]))) {
      in_.seek(i);
      return negative ? -static_cast<std::int64_t>(v) : static_cast<std::int64_t>(v);
    }
    switch (in_.peek()) {
      case '{': case '[': case '"': case 't': case 'f': case 'n':
        schema_error(std::string(what) + " is not an integer");
      default: break;
    }
    const std::size_t token = in_.offset();
    const json::Value number = in_.number();
    if (!number.is_int()) {
      const std::size_t end = in_.offset();
      in_.seek(token);
      schema_error(std::string(what) + " takes an integer, not " +
                   std::string(text.substr(token, end - token)));
    }
    return number.as_int();
  }

  json::Reader in_;
};

/// Threads for `bytes` of index in `files` files: one per whole MiB, at most
/// one per core and one per file, and always the caller's own.
std::size_t index_threads(std::uintmax_t bytes, std::size_t files) {
  const std::uintmax_t cores = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<std::size_t>(
      std::max<std::uintmax_t>(1, std::min({bytes >> 20, cores, std::uintmax_t{files}})));
}

}  // namespace

std::uint64_t ShardIndex::payload_bytes() const {
  std::uint64_t total = 0;
  for (const auto& r : records) total += r.framed_size - kFrameOverhead;
  return total;
}

std::pair<std::uint64_t, std::uint64_t> ShardIndex::byte_range(std::size_t first,
                                                               std::size_t count) const {
  if (count == 0 || first + count > records.size()) {
    throw std::out_of_range("shard index: record range [" + std::to_string(first) + ", +" +
                            std::to_string(count) + ") out of bounds (have " +
                            std::to_string(records.size()) + ")");
  }
  const auto& lo = records[first];
  const auto& hi = records[first + count - 1];
  return {lo.offset, hi.offset + hi.framed_size};
}

void ShardIndex::save(const std::string& json_path) const {
  json::Object root;
  root["shard_id"] = json::Value(static_cast<std::int64_t>(shard_id));
  root["shard_path"] = json::Value(shard_path);
  root["file_bytes"] = json::Value(static_cast<std::int64_t>(file_bytes));
  json::Array recs;
  recs.reserve(records.size());
  for (const auto& r : records) {
    json::Array row;
    row.emplace_back(static_cast<std::int64_t>(r.offset));
    row.emplace_back(static_cast<std::int64_t>(r.framed_size));
    row.emplace_back(r.label);
    row.emplace_back(static_cast<std::int64_t>(r.sample_index));
    recs.emplace_back(std::move(row));
  }
  root["records"] = json::Value(std::move(recs));
  json::write_file(json_path, json::Value(std::move(root)));
}

ShardIndex ShardIndex::parse(std::string_view text) { return IndexReader(text).read(); }

ShardIndex ShardIndex::load(const std::string& json_path) {
  const MmapFile file(json_path);  // its errors name the file
  const auto bytes = file.view();
  try {
    return parse({reinterpret_cast<const char*>(bytes.data()), bytes.size()});
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(json_path + ": " + e.what());
  }
}

std::string ShardIndex::index_filename(std::uint32_t shard_id) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "mapping_shard_%04u.json", shard_id);
  return buf;
}

std::string ShardIndex::shard_filename(std::uint32_t shard_id) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "shard_%04u.tfrecord", shard_id);
  return buf;
}

std::vector<ShardIndex> load_all_indexes(const std::string& directory) {
  namespace fs = std::filesystem;
  if (!fs::exists(directory)) {
    throw std::runtime_error("shard index: directory does not exist: " + directory);
  }
  std::vector<std::string> paths;
  std::uintmax_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(directory)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("mapping_shard_", 0) == 0 && name.size() > 5 &&
        name.substr(name.size() - 5) == ".json") {
      paths.push_back(entry.path().string());
      std::error_code ec;  // an unreadable entry fails in load() instead
      const std::uintmax_t size = entry.file_size(ec);
      if (!ec) bytes += size;
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<ShardIndex> out(paths.size());
  std::vector<std::exception_ptr> errors(paths.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < paths.size(); i = next++) {
      try {
        out[i] = ShardIndex::load(paths[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> helpers;  // joined as this scope ends, on every path
    const std::size_t threads = index_threads(bytes, paths.size());
    for (std::size_t t = 1; t < threads; ++t) {
      helpers.emplace_back([&work, name = "emlio-index" + std::to_string(t)] {
        set_thread_name(name);
        work();
      });
    }
    work();
  }
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  std::map<std::uint32_t, std::size_t> holder;  // shard id -> first file holding it
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto [it, fresh] = holder.emplace(out[i].shard_id, i);
    if (!fresh) {
      throw std::runtime_error("shard index: " + paths[it->second] + " and " + paths[i] +
                               " both hold shard " + std::to_string(out[i].shard_id));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ShardIndex& a, const ShardIndex& b) { return a.shard_id < b.shard_id; });
  return out;
}

}  // namespace emlio::tfrecord
