// Unit tests for TFRecord framing, writer/reader, shard index and builder.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "json/json.h"
#include "shard_index_dom.h"
#include "tfrecord/dataset_builder.h"
#include "tfrecord/reader.h"
#include "tfrecord/record_io.h"
#include "tfrecord/shard_index.h"
#include "tfrecord/writer.h"
#include "workload/materialize.h"

namespace emlio::tfrecord {
namespace {

namespace fs = std::filesystem;

class TfrecordTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("emlio_tfr_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

std::vector<std::uint8_t> payload(std::size_t n, std::uint8_t fill) {
  return std::vector<std::uint8_t>(n, fill);
}

TEST(RecordIo, FramedSizeAddsOverhead) {
  EXPECT_EQ(framed_size(0), 16u);
  EXPECT_EQ(framed_size(100), 116u);
}

TEST(RecordIo, WriteReadRoundTrip) {
  ByteBuffer buf;
  auto data = payload(37, 0xAB);
  write_record(data, buf);
  auto parsed = read_record(buf.view());
  EXPECT_EQ(parsed.framed_size, framed_size(37));
  EXPECT_EQ(std::vector<std::uint8_t>(parsed.payload.begin(), parsed.payload.end()), data);
}

TEST(RecordIo, DetectsPayloadCorruption) {
  ByteBuffer buf;
  write_record(payload(32, 1), buf);
  buf.data()[20] ^= 0xFF;  // flip a payload byte
  EXPECT_THROW(read_record(buf.view()), std::runtime_error);
  // Unchecked read skips CRC verification by design.
  EXPECT_NO_THROW(read_record_unchecked(buf.view()));
}

TEST(RecordIo, DetectsLengthCorruption) {
  ByteBuffer buf;
  write_record(payload(32, 1), buf);
  buf.data()[0] ^= 0x01;  // flip a length byte
  EXPECT_THROW(read_record(buf.view()), std::runtime_error);
}

TEST(RecordIo, TruncatedInputThrows) {
  ByteBuffer buf;
  write_record(payload(32, 1), buf);
  auto view = buf.view().subspan(0, buf.size() - 4);
  EXPECT_THROW(read_record(view), std::out_of_range);
}

TEST(RecordIo, BackToBackRecordsParseSequentially) {
  ByteBuffer buf;
  write_record(payload(10, 1), buf);
  write_record(payload(20, 2), buf);
  auto first = read_record(buf.view());
  auto second = read_record(buf.view().subspan(first.framed_size));
  EXPECT_EQ(first.payload.size(), 10u);
  EXPECT_EQ(second.payload.size(), 20u);
  EXPECT_EQ(second.payload[0], 2);
}

TEST_F(TfrecordTest, WriterProducesIndexAndFile) {
  ShardWriter w(3, path("s.tfrecord"));
  auto e0 = w.append(payload(100, 7), 42, 1000);
  auto e1 = w.append(payload(50, 8), 43, 1001);
  EXPECT_EQ(e0.offset, 0u);
  EXPECT_EQ(e1.offset, framed_size(100));
  auto idx = w.finish();
  EXPECT_EQ(idx.shard_id, 3u);
  EXPECT_EQ(idx.num_records(), 2u);
  EXPECT_EQ(idx.file_bytes, framed_size(100) + framed_size(50));
  EXPECT_EQ(fs::file_size(path("s.tfrecord")), idx.file_bytes);
}

TEST_F(TfrecordTest, WriterRejectsUseAfterFinish) {
  ShardWriter w(0, path("s.tfrecord"));
  w.append(payload(1, 0), 0, 0);
  w.finish();
  EXPECT_THROW(w.append(payload(1, 0), 0, 1), std::runtime_error);
  EXPECT_THROW(w.finish(), std::runtime_error);
}

TEST_F(TfrecordTest, ReaderReadsRecordsAndSlices) {
  ShardWriter w(0, path("s.tfrecord"));
  for (int i = 0; i < 10; ++i) {
    w.append(payload(10 + static_cast<std::size_t>(i), static_cast<std::uint8_t>(i)), i, 100 + i);
  }
  ShardReader reader(w.finish());
  EXPECT_EQ(reader.num_records(), 10u);
  auto r3 = reader.record(3, /*verify=*/true);
  EXPECT_EQ(r3.size(), 13u);
  EXPECT_EQ(r3[0], 3);

  auto views = reader.slice(2, 5, /*verify=*/true);
  ASSERT_EQ(views.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(views[static_cast<std::size_t>(i)][0], i + 2);
    EXPECT_EQ(views[static_cast<std::size_t>(i)].size(), 12u + static_cast<std::size_t>(i));
  }
}

TEST_F(TfrecordTest, SliceBoundsChecked) {
  ShardWriter w(0, path("s.tfrecord"));
  for (int i = 0; i < 4; ++i) w.append(payload(8, 0), 0, static_cast<std::uint64_t>(i));
  ShardReader reader(w.finish());
  EXPECT_THROW(reader.slice(2, 3), std::out_of_range);
  EXPECT_THROW(reader.slice(0, 0), std::out_of_range);
  EXPECT_THROW(reader.record(4), std::out_of_range);
}

TEST_F(TfrecordTest, ReaderRejectsSizeMismatch) {
  ShardWriter w(0, path("s.tfrecord"));
  w.append(payload(8, 0), 0, 0);
  auto idx = w.finish();
  idx.file_bytes += 1;
  EXPECT_THROW(ShardReader{idx}, std::runtime_error);
}

TEST_F(TfrecordTest, VerifyAllCatchesCorruption) {
  ShardWriter w(0, path("s.tfrecord"));
  for (int i = 0; i < 5; ++i) w.append(payload(64, 1), 0, static_cast<std::uint64_t>(i));
  auto idx = w.finish();
  {
    ShardReader reader(idx);
    EXPECT_EQ(reader.verify_all(), 5u);
  }
  // Corrupt one payload byte on disk.
  std::fstream f(path("s.tfrecord"), std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(20);
  f.put('\x7f');
  f.close();
  ShardReader reader(idx);
  EXPECT_THROW(reader.verify_all(), std::runtime_error);
}

TEST_F(TfrecordTest, RebuildIndexFromFile) {
  ShardWriter w(9, path("s.tfrecord"));
  for (int i = 0; i < 7; ++i)
    w.append(payload(32 + static_cast<std::size_t>(i), 0), i, static_cast<std::uint64_t>(i));
  auto idx = w.finish();
  auto rebuilt = ShardReader::rebuild_index(9, path("s.tfrecord"));
  ASSERT_EQ(rebuilt.num_records(), idx.num_records());
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(rebuilt.records[i].offset, idx.records[i].offset);
    EXPECT_EQ(rebuilt.records[i].framed_size, idx.records[i].framed_size);
  }
}

TEST_F(TfrecordTest, ShardIndexJsonRoundTrip) {
  ShardIndex idx;
  idx.shard_id = 12;
  idx.shard_path = path("s.tfrecord");
  idx.file_bytes = 12345;
  idx.records.push_back({0, 116, -7, 42});
  idx.records.push_back({116, 66, 3, 43});
  idx.save(path("mapping_shard_0012.json"));
  auto loaded = ShardIndex::load(path("mapping_shard_0012.json"));
  EXPECT_EQ(loaded.shard_id, 12u);
  EXPECT_EQ(loaded.file_bytes, 12345u);
  ASSERT_EQ(loaded.records.size(), 2u);
  EXPECT_EQ(loaded.records[0].label, -7);
  EXPECT_EQ(loaded.records[1].sample_index, 43u);
}

TEST_F(TfrecordTest, ByteRangeCoversContiguousRecords) {
  ShardIndex idx;
  idx.records.push_back({0, 100, 0, 0});
  idx.records.push_back({100, 50, 0, 1});
  idx.records.push_back({150, 25, 0, 2});
  auto [lo, hi] = idx.byte_range(0, 3);
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 175u);
  auto [lo2, hi2] = idx.byte_range(1, 1);
  EXPECT_EQ(lo2, 100u);
  EXPECT_EQ(hi2, 150u);
  EXPECT_THROW(idx.byte_range(2, 2), std::out_of_range);
}

TEST_F(TfrecordTest, IndexFilenameConvention) {
  EXPECT_EQ(ShardIndex::index_filename(7), "mapping_shard_0007.json");
  EXPECT_EQ(ShardIndex::shard_filename(12), "shard_0012.tfrecord");
}

TEST_F(TfrecordTest, DatasetBuilderRoundRobinAndIndexes) {
  DatasetBuilderOptions opt;
  opt.num_shards = 3;
  opt.directory = (dir_ / "ds").string();
  auto built = build_dataset(opt, 10, [](std::uint64_t i) {
    RawSample s;
    s.bytes = payload(16 + i, static_cast<std::uint8_t>(i));
    s.label = static_cast<std::int64_t>(i * 2);
    return s;
  });
  EXPECT_EQ(built.shards.size(), 3u);
  EXPECT_EQ(built.total_records(), 10u);
  // Round-robin: shard 0 gets samples 0,3,6,9 → 4 records.
  EXPECT_EQ(built.shards[0].num_records(), 4u);
  EXPECT_EQ(built.shards[1].num_records(), 3u);
  EXPECT_EQ(built.shards[2].num_records(), 3u);
  // Labels and sample ids preserved.
  EXPECT_EQ(built.shards[1].records[0].sample_index, 1u);
  EXPECT_EQ(built.shards[1].records[0].label, 2);

  auto loaded = load_all_indexes(opt.directory);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[2].shard_id, 2u);

  // Every record readable and CRC-clean.
  for (const auto& idx : loaded) {
    ShardReader reader(idx);
    EXPECT_EQ(reader.verify_all(), idx.num_records());
  }
}

TEST_F(TfrecordTest, LoadAllIndexesMissingDirThrows) {
  EXPECT_THROW(load_all_indexes((dir_ / "missing").string()), std::runtime_error);
}

TEST_F(TfrecordTest, BuilderValidatesOptions) {
  DatasetBuilderOptions opt;
  opt.num_shards = 0;
  opt.directory = (dir_ / "x").string();
  EXPECT_THROW(build_dataset(opt, 1, [](std::uint64_t) { return RawSample{}; }),
               std::runtime_error);
  opt.num_shards = 1;
  opt.directory = "";
  EXPECT_THROW(build_dataset(opt, 1, [](std::uint64_t) { return RawSample{}; }),
               std::runtime_error);
}

TEST_F(TfrecordTest, EmptyFileMmapAndZeroRecords) {
  ShardWriter w(0, path("empty.tfrecord"));
  auto idx = w.finish();
  ShardReader reader(idx);
  EXPECT_EQ(reader.verify_all(), 0u);
}

// ------------------------------------------------------ shard index reader

/// A two-record index document, as a tree so a test can drop or change one
/// field before dumping it.
json::Object index_doc() {
  json::Object root;
  root["shard_id"] = json::Value(3);
  root["shard_path"] = json::Value("/data/shard_0003.tfrecord");
  root["file_bytes"] = json::Value(8224);
  json::Array records;
  records.emplace_back(json::Array{json::Value(0), json::Value(4112), json::Value(7),
                                   json::Value(3)});
  records.emplace_back(json::Array{json::Value(4112), json::Value(4112), json::Value(-2),
                                   json::Value(11)});
  root["records"] = json::Value(std::move(records));
  return root;
}

/// What index_doc() reads as.
ShardIndex doc_index() {
  ShardIndex idx;
  idx.shard_id = 3;
  idx.shard_path = "/data/shard_0003.tfrecord";
  idx.file_bytes = 8224;
  idx.records = {{0, 4112, 7, 3}, {4112, 4112, -2, 11}};
  return idx;
}

/// index_doc() with one record replaced by `row` (pretty-printed).
std::string doc_with_record(json::Array row) {
  json::Object doc = index_doc();
  doc["records"].as_array()[1] = json::Value(std::move(row));
  return json::Value(std::move(doc)).dump(2);
}

std::string read_text(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Write `text` to `file` and load it; the error message, or "" if it loaded.
std::string load_error(const std::string& file, std::string_view text) {
  std::ofstream(file, std::ios::binary | std::ios::trunc) << text;
  try {
    ShardIndex::load(file);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST_F(TfrecordTest, ShardIndexErrorsNameTheFile) {
  const std::string file = path("mapping_shard_0003.json");
  const std::string pretty = json::Value(index_doc()).dump(2);
  // (document, a fragment its error must contain)
  std::vector<std::pair<std::string, std::string>> cases;
  for (const char* key : {"shard_id", "shard_path", "file_bytes", "records"}) {
    json::Object doc = index_doc();
    doc.erase(key);
    cases.emplace_back(json::Value(std::move(doc)).dump(2),
                       std::string("missing key '") + key + "'");
  }
  cases.emplace_back(doc_with_record({json::Value(1), json::Value(2), json::Value(3)}),
                     "arity != 4");
  cases.emplace_back(doc_with_record({json::Value(1), json::Value(2), json::Value(3),
                                      json::Value(4), json::Value(5)}),
                     "arity != 4");
  cases.emplace_back(doc_with_record({json::Value(1), json::Value("4112"), json::Value(3),
                                      json::Value(4)}),
                     "not an integer");
  {
    json::Object doc = index_doc();
    doc["shard_id"] = json::Value("3");
    cases.emplace_back(json::Value(std::move(doc)).dump(2), "'shard_id' is not an integer");
  }
  {
    json::Object doc = index_doc();
    doc["records"] = json::Value(json::Object{{"0", json::Value(1)}});
    cases.emplace_back(json::Value(std::move(doc)).dump(2), "'records' is not an array");
  }
  for (std::size_t cut : {std::size_t{1}, std::size_t{17}, pretty.size() / 3, pretty.size() / 2,
                          pretty.size() - 2, pretty.size() - 1}) {
    cases.emplace_back(pretty.substr(0, cut), "json parse error at offset");
  }
  cases.emplace_back("", "unexpected end of input");
  cases.emplace_back(pretty + " }", "trailing characters");
  // The tree path took the next two and truncated the number.
  std::vector<std::string> truncated(2, pretty);
  truncated[0].replace(truncated[0].find("4112,"), 4, "4112.7");
  truncated[1].replace(truncated[1].find("8224"), 4, "1e3");
  cases.emplace_back(truncated[0], "a record field takes an integer, not 4112.7");
  cases.emplace_back(truncated[1], "'file_bytes' takes an integer, not 1e3");
  {
    std::string text = pretty;
    text.replace(text.find("8224"), 4, "9223372036854775808");
    cases.emplace_back(text, "number out of range");
  }
  for (const auto& [text, fragment] : cases) {
    SCOPED_TRACE(text);
    const std::string msg = load_error(file, text);
    EXPECT_NE(msg.find(file), std::string::npos) << "no error naming the file: " << msg;
    EXPECT_NE(msg.find(fragment), std::string::npos) << msg;
  }
  for (const auto& text : truncated) EXPECT_FALSE(reference::dom_parse(text).integer_tokens);
}

TEST(ShardIndexParse, AcceptsEveryFormTheTreePathAccepts) {
  const json::Value doc(index_doc());
  const std::vector<std::string> texts = {
      doc.dump(-1),
      doc.dump(2),
      // Keys in another order, odd whitespace, escapes that decode to ASCII.
      "\r\n{ \"records\" :[[0,4112 ,7,3],\t[ 4112,4112,-2,11 ]],\"shard\\u005fid\":3,"
      "\"file_bytes\":8224,\n\"shard_path\":\"\\/data\\/shard_0003.tfrecord\"}  \n",
      // Unknown keys with nested values, and a repeated key whose last value wins.
      R"({"version": {"a": [1, -2.5e3, {"b": null}], "c": "x\"y"}, "shard_id": 9,
          "shard_path": "/data/shard_0003.tfrecord", "file_bytes": 8224, "flags": [true, false],
          "records": [[0, 4112, 7, 3], [4112, 4112, -2, 11]], "shard_id": 3})",
  };
  for (const auto& text : texts) {
    SCOPED_TRACE(text);
    EXPECT_EQ(ShardIndex::parse(text), doc_index());
    EXPECT_EQ(reference::dom_parse(text).index, doc_index());
  }
}

TEST_F(TfrecordTest, ShardIndexRoundTripsEscapesAndExtremes) {
  constexpr auto kMax = static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  ShardIndex idx;
  idx.shard_id = std::numeric_limits<std::uint32_t>::max();
  idx.shard_path = "/data/a\"b\\c\xC3\xA9\n.tfrecord";
  idx.file_bytes = kMax;
  idx.records = {{kMax, kMax, std::numeric_limits<std::int64_t>::max(), kMax},
                 {0, 16, -1, 0},
                 {16, 16, std::numeric_limits<std::int64_t>::min(), 1}};
  idx.save(path("mapping_shard_x.json"));
  EXPECT_EQ(ShardIndex::load(path("mapping_shard_x.json")), idx);
  // A \u escape decodes to the same UTF-8 bytes as the raw character.
  EXPECT_EQ(ShardIndex::parse(R"({"shard_id": 0, "shard_path": "é€", "file_bytes": 0,
                                  "records": []})")
                .shard_path,
            "\xC3\xA9\xE2\x82\xAC");
}

/// load_all_indexes against the tree path, file by file, field by field.
void expect_same_as_tree_path(const fs::path& dir) {
  const auto loaded = load_all_indexes(dir.string());
  ASSERT_FALSE(loaded.empty());
  for (const auto& idx : loaded) {
    const std::string file = (dir / ShardIndex::index_filename(idx.shard_id)).string();
    const auto tree = reference::dom_parse(read_text(file));
    ASSERT_TRUE(tree.integer_tokens) << file;
    EXPECT_EQ(idx.shard_id, tree.index.shard_id) << file;
    EXPECT_EQ(idx.shard_path, tree.index.shard_path) << file;
    EXPECT_EQ(idx.file_bytes, tree.index.file_bytes) << file;
    ASSERT_EQ(idx.records.size(), tree.index.records.size()) << file;
    for (std::size_t i = 0; i < idx.records.size(); ++i) {
      const auto& a = idx.records[i];
      const auto& b = tree.index.records[i];
      ASSERT_TRUE(a.offset == b.offset && a.framed_size == b.framed_size &&
                  a.label == b.label && a.sample_index == b.sample_index)
          << file << " record " << i;
    }
  }
}

/// Bytes of every mapping_shard_*.json in `dir`.
std::uintmax_t index_bytes(const fs::path& dir) {
  std::uintmax_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") bytes += entry.file_size();
  }
  return bytes;
}

/// Names of this process's threads that start with `prefix`.
std::vector<std::string> threads_named(const std::string& prefix) {
  std::vector<std::string> names;
  for (const auto& task : fs::directory_iterator("/proc/self/task")) {
    std::string name;
    std::getline(std::ifstream(task.path() / "comm"), name);
    if (name.rfind(prefix, 0) == 0) names.push_back(name);
  }
  return names;
}

/// Enough records for at least 2 MiB of index in 8 files, so that
/// load_all_indexes starts helper threads on any host with 2 or more cores.
constexpr std::uint64_t kTwoMiBOfIndexSamples = 40000;

TEST_F(TfrecordTest, LoadAllIndexesMatchesTheTreePath) {
  workload::materialize_tfrecord(workload::presets::tiny(64, 512), (dir_ / "tiny").string(), 2);
  expect_same_as_tree_path(dir_ / "tiny");

  workload::materialize_tfrecord(workload::presets::tiny(kTwoMiBOfIndexSamples, 32),
                                 (dir_ / "big").string(), 8);
  ASSERT_GE(index_bytes(dir_ / "big"), std::uintmax_t{2} << 20);
  expect_same_as_tree_path(dir_ / "big");
}

TEST_F(TfrecordTest, LoadAllIndexesThrowsTheFirstBadFileAndJoinsItsHelpers) {
  const fs::path big = dir_ / "big";
  workload::materialize_tfrecord(workload::presets::tiny(kTwoMiBOfIndexSamples, 32),
                                 big.string(), 8);
  ASSERT_GE(index_bytes(big), std::uintmax_t{2} << 20);
  const auto truncate = [&](std::uint32_t shard) {
    const fs::path file = big / ShardIndex::index_filename(shard);
    fs::resize_file(file, fs::file_size(file) / 2);
    return file.string();
  };
  const auto expect_error_of = [&](const std::string& file) {
    try {
      load_all_indexes(big.string());
      ADD_FAILURE() << "loaded a truncated index";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(file), std::string::npos) << e.what();
    }
    EXPECT_EQ(threads_named("emlio-index"), std::vector<std::string>{});
  };
  expect_error_of(truncate(6));
  // With two bad files, the error is the first one's in name order.
  expect_error_of(truncate(2));
}

TEST_F(TfrecordTest, LoadAllIndexesRejectsTwoFilesForOneShard) {
  workload::materialize_tfrecord(workload::presets::tiny(64, 512), dir_.string(), 2);
  fs::copy_file(dir_ / ShardIndex::index_filename(0), dir_ / "mapping_shard_0000.bak.json");
  try {
    load_all_indexes(dir_.string());
    ADD_FAILURE() << "two files for shard 0 were accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path(ShardIndex::index_filename(0))), std::string::npos) << msg;
    EXPECT_NE(msg.find(path("mapping_shard_0000.bak.json")), std::string::npos) << msg;
  }
}

// Parameterized slice property: for random record layouts, any in-bounds
// slice returns payloads identical to per-record reads.
class SliceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SliceProperty, SliceEqualsPerRecordReads) {
  auto dir = fs::temp_directory_path() / ("emlio_slice_" + std::to_string(GetParam()));
  fs::create_directories(dir);
  Rng rng(GetParam());
  ShardWriter w(0, (dir / "s.tfrecord").string());
  std::size_t n = 20 + rng.uniform(30);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint8_t> data(1 + rng.uniform(200));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    w.append(data, 0, i);
  }
  ShardReader reader(w.finish());
  for (int trial = 0; trial < 20; ++trial) {
    std::size_t first = rng.uniform(n);
    std::size_t count = 1 + rng.uniform(n - first);
    auto views = reader.slice(first, count, true);
    for (std::size_t i = 0; i < count; ++i) {
      auto single = reader.record(first + i, true);
      EXPECT_TRUE(std::equal(views[i].begin(), views[i].end(), single.begin(), single.end()));
    }
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SliceProperty, ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace emlio::tfrecord
