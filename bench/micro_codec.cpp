// google-benchmark microbenches for the hot paths: CRC32C (dispatched and
// portable kernels), TFRecord framing and slicing, msgpack batch
// encode/decode, the splice-threshold sweep, sample generation and set-up's
// shard index load — plus a
// decode-path allocation audit that quantifies the zero-copy Payload
// refactor (per-sample heap allocations and bytes copied, view decode vs the
// old materializing decode), appended as JSON via bench_common.h.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <new>

#include "bench_common.h"
#include "common/crc32c.h"
#include "common/payload.h"
#include "common/thread_pool.h"
#include "json/json.h"
#include "msgpack/batch_codec.h"
#include "tfrecord/reader.h"
#include "tfrecord/shard_index.h"
#include "workload/materialize.h"

// ------------------------------------------------------------------------
// Global allocation counters: every heap allocation in this binary is
// tallied so the decode-path audit reports *measured* allocations, not
// estimates. Benchmarks themselves are unaffected (counting is two relaxed
// atomic adds).
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<std::uint64_t> g_heap_bytes{0};

void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace emlio;

namespace {

struct HeapSnapshot {
  std::uint64_t allocs;
  std::uint64_t bytes;
};

HeapSnapshot heap_now() {
  return {g_heap_allocs.load(std::memory_order_relaxed),
          g_heap_bytes.load(std::memory_order_relaxed)};
}

std::vector<std::uint8_t> payload(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  Rng rng(7);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

msgpack::WireBatch sample_batch(std::size_t samples, std::size_t bytes_each) {
  msgpack::WireBatch batch;
  for (std::size_t i = 0; i < samples; ++i) {
    msgpack::WireSample s;
    s.index = i;
    s.label = static_cast<std::int64_t>(i);
    s.bytes = payload(bytes_each);
    batch.samples.push_back(std::move(s));
  }
  return batch;
}

// The dispatched kernel (hardware where the host has it) vs the portable
// slicing-by-8 fallback, at the workloads' record sizes: 4 KiB, 100 KiB
// (ImageNet-like) and 2 MiB (synthetic).
void BM_Crc32c(benchmark::State& state) {
  auto data = payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::masked(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4 * 1024)->Arg(100 * 1024)->Arg(2 * 1024 * 1024);

void BM_Crc32cPortable(benchmark::State& state) {
  auto data = payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::detail::compute_portable(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32cPortable)->Arg(4 * 1024)->Arg(100 * 1024)->Arg(2 * 1024 * 1024);

void BM_BatchEncode(benchmark::State& state) {
  auto batch = sample_batch(static_cast<std::size_t>(state.range(0)),
                            100 * 1024);  // ImageNet-sized samples
  for (auto _ : state) {
    benchmark::DoNotOptimize(msgpack::BatchCodec::encode(batch));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.payload_bytes()));
}
BENCHMARK(BM_BatchEncode)->Arg(8)->Arg(32)->Arg(128);

void BM_BatchEncodePooled(benchmark::State& state) {
  auto batch = sample_batch(static_cast<std::size_t>(state.range(0)), 100 * 1024);
  auto pool = BufferPool::create();
  for (auto _ : state) {
    benchmark::DoNotOptimize(msgpack::BatchCodec::encode(batch, *pool));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.payload_bytes()));
}
BENCHMARK(BM_BatchEncodePooled)->Arg(8)->Arg(32)->Arg(128);

void BM_BatchEncodePooledParallel(benchmark::State& state) {
  // The daemon's pipelined engine fans encode jobs across a shared
  // ThreadPool into one shared BufferPool (DaemonConfig::pool_threads);
  // this measures how that hot stage scales with the pool size.
  auto batch = sample_batch(32, 100 * 1024);
  auto pool = BufferPool::create();
  ThreadPool workers(static_cast<std::size_t>(state.range(0)));
  constexpr int kBatchesPerIter = 16;
  for (auto _ : state) {
    for (int i = 0; i < kBatchesPerIter; ++i) {
      workers.post([&] { benchmark::DoNotOptimize(msgpack::BatchCodec::encode(batch, *pool)); });
    }
    workers.wait_idle();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kBatchesPerIter *
                          static_cast<std::int64_t>(batch.payload_bytes()));
}
BENCHMARK(BM_BatchEncodePooledParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// The splice-threshold sweep behind BatchCodec::kSpliceMinBytes. Per
// 16-sample batch it times the two stages a sample's bytes cross on the shm
// lane: the encode (run on the daemon's encode pool) and the sink's gather
// into a slab (run on the lane's single sender thread). Inline copies every
// sample into the head and gathers one piece; spliced writes only headers
// and gathers the samples from their own storage. Samples are views into a
// 64 MiB arena, cycled so they arrive cold like mmap'd records, and each
// message is gathered 8 batches after its encode, as if it had waited in
// the sink's queue. Args: sample bytes, spliced (0/1). Counters per batch:
// encode_ns and gather_ns. Splicing pays where the CPU it saves (inline
// encode + gather minus spliced encode + gather) clearly exceeds what it
// adds to the serial sender (spliced gather minus inline gather).
void BM_SpliceGather(benchmark::State& state) {
  constexpr std::size_t kSamples = 16;
  constexpr std::size_t kQueued = 8;
  constexpr std::size_t kArenaBytes = 64u << 20;
  const auto sample_bytes = static_cast<std::size_t>(state.range(0));
  const bool spliced = state.range(1) != 0;
  const Payload arena(payload(kArenaBytes));
  const std::size_t batches = kArenaBytes / (kSamples * sample_bytes);
  auto pool = BufferPool::create();
  std::vector<std::uint8_t> slab(kSamples * (sample_bytes + 64) + 256);
  std::vector<SplicedPayload> queued(kQueued);
  double encode_s = 0, gather_s = 0;
  std::size_t next = 0;
  msgpack::WireBatch batch;
  batch.samples.resize(kSamples);
  for (auto _ : state) {
    const std::size_t base = (next % batches) * kSamples * sample_bytes;
    for (std::size_t i = 0; i < kSamples; ++i) {
      batch.samples[i].index = base + i;
      batch.samples[i].bytes = arena.slice(base + i * sample_bytes, sample_bytes);
    }
    SplicedPayload& slot = queued[next++ % kQueued];
    auto t0 = std::chrono::steady_clock::now();
    std::uint8_t* out = slab.data();
    slot.for_each_piece([&](std::span<const std::uint8_t> piece) {
      std::memcpy(out, piece.data(), piece.size());
      out += piece.size();
    });
    benchmark::DoNotOptimize(slab.data());
    benchmark::ClobberMemory();
    auto t1 = std::chrono::steady_clock::now();
    slot = spliced ? msgpack::detail::encode_spliced(batch, *pool, 0)
                   : SplicedPayload(msgpack::BatchCodec::encode(batch, *pool));
    auto t2 = std::chrono::steady_clock::now();
    gather_s += std::chrono::duration<double>(t1 - t0).count();
    encode_s += std::chrono::duration<double>(t2 - t1).count();
  }
  const auto n = static_cast<double>(state.iterations());
  state.counters["encode_ns"] = encode_s * 1e9 / n;
  state.counters["gather_ns"] = gather_s * 1e9 / n;
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSamples * sample_bytes));
}
BENCHMARK(BM_SpliceGather)
    ->ArgsProduct({{4 << 10, 8 << 10, 16 << 10, 32 << 10, 48 << 10, 64 << 10, 100 << 10},
                   {0, 1}});

void BM_BatchDecode(benchmark::State& state) {
  auto encoded =
      msgpack::BatchCodec::encode(sample_batch(32, static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(msgpack::BatchCodec::decode(encoded));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(encoded.size()));
}
BENCHMARK(BM_BatchDecode)->Arg(100 * 1024)->Arg(2 * 1024 * 1024);

void BM_BatchDecodeMaterialized(benchmark::State& state) {
  // The pre-refactor decode behaviour: one owned vector per sample. Kept as
  // the baseline the zero-copy path is measured against.
  auto encoded =
      msgpack::BatchCodec::encode(sample_batch(32, static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    auto batch = msgpack::BatchCodec::decode(encoded);
    for (auto& s : batch.samples) {
      benchmark::DoNotOptimize(s.bytes.to_vector());
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(encoded.size()));
}
BENCHMARK(BM_BatchDecodeMaterialized)->Arg(100 * 1024)->Arg(2 * 1024 * 1024);

void BM_TfrecordSlice(benchmark::State& state) {
  namespace fs = std::filesystem;
  auto dir = fs::temp_directory_path() / "emlio_micro_codec";
  fs::remove_all(dir);
  auto spec = workload::presets::tiny(256, 16 * 1024);
  auto built = workload::materialize_tfrecord(spec, dir.string(), 1);
  tfrecord::ShardReader reader(built.shards[0]);
  auto batch = static_cast<std::size_t>(state.range(0));
  std::size_t pos = 0;
  for (auto _ : state) {
    if (pos + batch > reader.num_records()) pos = 0;
    benchmark::DoNotOptimize(reader.slice(pos, batch));
    pos += batch;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
  fs::remove_all(dir);
}
BENCHMARK(BM_TfrecordSlice)->Arg(8)->Arg(64);

void BM_SampleGenerate(benchmark::State& state) {
  workload::SampleGenerator gen(workload::presets::tiny(1024, 100 * 1024));
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate(i++ % 1024));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 100 * 1024);
}
BENCHMARK(BM_SampleGenerate);

/// Eight mapping_shard files of `records_per_file` records each, laid out as
/// 4 KiB samples dealt round-robin (8 x 8,192 is the benchmark's small-4k
/// dataset). Written once per process, removed at exit.
struct IndexSet {
  explicit IndexSet(std::uint64_t records_per_file)
      : dir(std::filesystem::temp_directory_path() /
            ("emlio_micro_index_" + std::to_string(::getpid()) + "_" +
             std::to_string(records_per_file))) {
    std::filesystem::create_directories(dir);
    Rng rng(11);
    for (std::uint32_t shard = 0; shard < 8; ++shard) {
      tfrecord::ShardIndex idx;
      idx.shard_id = shard;
      idx.shard_path = (dir / tfrecord::ShardIndex::shard_filename(shard)).string();
      for (std::uint64_t i = 0; i < records_per_file; ++i) {
        idx.records.push_back({i * 4112, 4112, static_cast<std::int64_t>(rng.uniform(1000)),
                               i * 8 + shard});
      }
      idx.file_bytes = records_per_file * 4112;
      const auto file = dir / tfrecord::ShardIndex::index_filename(shard);
      idx.save(file.string());
      bytes += std::filesystem::file_size(file);
    }
  }
  ~IndexSet() { std::filesystem::remove_all(dir); }
  IndexSet(const IndexSet&) = delete;
  IndexSet& operator=(const IndexSet&) = delete;

  std::filesystem::path dir;
  std::uintmax_t bytes = 0;
};

// Set-up's index read: load_all_indexes over 8 files of Arg records. Wall
// time, since helper threads may share the files.
void BM_ShardIndexLoad(benchmark::State& state) {
  static std::map<std::int64_t, IndexSet> sets;
  const auto& set =
      sets.try_emplace(state.range(0), static_cast<std::uint64_t>(state.range(0))).first->second;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tfrecord::load_all_indexes(set.dir.string()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8 * state.range(0));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(set.bytes));
}
BENCHMARK(BM_ShardIndexLoad)->Arg(512)->Arg(8192)->Unit(benchmark::kMillisecond)->UseRealTime();

// ------------------------------------------------------------------------
// Decode-path allocation audit. Measures, for one received batch:
//   * view path (current): BatchCodec::decode — samples are refcounted
//     views into the shared received Payload,
//   * materialize path (pre-refactor equivalent): decode + one owned
//     vector per sample.
// Reports measured heap allocations/bytes and the payload layer's explicit
// copy counter, then appends a JSON row through bench_common.h.
json::Value audit_decode_path(std::size_t samples, std::size_t bytes_each) {
  Payload encoded = msgpack::BatchCodec::encode(sample_batch(samples, bytes_each));

  PayloadCounters::reset();
  auto before_view = heap_now();
  auto view_batch = msgpack::BatchCodec::decode(encoded);
  auto after_view = heap_now();
  std::size_t sharing = 0;
  for (const auto& s : view_batch.samples) {
    if (s.bytes.shares_storage_with(encoded)) ++sharing;
  }
  std::uint64_t view_payload_copies = PayloadCounters::bytes_copied.load();

  PayloadCounters::reset();
  auto before_mat = heap_now();
  auto mat_batch = msgpack::BatchCodec::decode(encoded);
  std::vector<std::vector<std::uint8_t>> owned;
  owned.reserve(mat_batch.samples.size());
  for (const auto& s : mat_batch.samples) owned.push_back(s.bytes.to_vector());
  auto after_mat = heap_now();

  json::Object row;
  row["bench"] = "micro_codec_decode_path";
  row["samples"] = static_cast<std::int64_t>(samples);
  row["sample_bytes"] = static_cast<std::int64_t>(bytes_each);
  row["encoded_bytes"] = static_cast<std::int64_t>(encoded.size());
  json::Object view;
  view["heap_allocs"] = static_cast<std::int64_t>(after_view.allocs - before_view.allocs);
  view["heap_bytes"] = static_cast<std::int64_t>(after_view.bytes - before_view.bytes);
  view["payload_bytes_copied"] = static_cast<std::int64_t>(view_payload_copies);
  view["samples_sharing_received_storage"] = static_cast<std::int64_t>(sharing);
  row["view_decode"] = json::Value(std::move(view));
  json::Object mat;
  mat["heap_allocs"] = static_cast<std::int64_t>(after_mat.allocs - before_mat.allocs);
  mat["heap_bytes"] = static_cast<std::int64_t>(after_mat.bytes - before_mat.bytes);
  row["materializing_decode"] = json::Value(std::move(mat));
  return json::Value(std::move(row));
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\ndecode-path allocation audit (zero-copy view decode vs materializing "
              "decode):\n");
  bench::append_json_line(audit_decode_path(32, 100 * 1024));
  bench::append_json_line(audit_decode_path(128, 16 * 1024));
  return 0;
}
