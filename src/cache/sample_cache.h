// Daemon-side sample cache — memory-bounded, refcount-pinned reuse of
// record payloads across epochs.
//
// Every epoch the daemon re-reads and re-parses the same shard records.
// Epoch 1 pays that cost once; epochs 2..N touch the exact same bytes. The
// SampleCache sits between the shard read and the encode stage of
// Daemon::build_batch: a cold read populates it (one deep copy out of the
// mmap, so the entry owns its bytes), a warm hit hands the encoder a
// ref-counted PayloadView of the cached bytes and skips the storage read —
// and the CRC/framing parse — entirely. This is the cross-epoch caching of
// sample-caching loaders (CoorDL's MinIO cache) grafted onto the EMLIO
// storage daemon.
//
// Guarantees:
//   * memory-bounded — resident cached bytes never exceed the configured
//     byte budget (entries larger than a shard's slice of the budget are
//     simply not cached);
//   * pin-safe — an entry whose bytes are still referenced outside the
//     cache (an encode job building a batch, a Payload queued in a sender
//     lane, a receiver-held view) is *pinned*: eviction skips it, so the
//     byte budget stays an honest bound on what the cache can actually
//     release. Even if policy and accounting were wrong, the backing
//     storage is a shared_ptr — dropping the cache's handle can never free
//     bytes another handle still sees;
//   * sharded — the key space is split across independently locked shards
//     (LevelDB-cache style), so the daemon's encode pool threads do not
//     serialize on one mutex.
//
// Two eviction policies, selectable at construction:
//   * CLOCK (default) — second-chance ring: a hit sets a reference bit
//     (no list splice, cheapest under concurrency); the eviction hand
//     clears bits until it finds a cold, unpinned victim.
//   * LRU — strict recency list: a hit splices the entry to the MRU head;
//     eviction walks from the LRU tail, skipping pinned entries.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/payload.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace emlio::cache {

enum class CachePolicy {
  kClock,  ///< second-chance ring (default)
  kLru,    ///< strict recency order
};

/// Parse "clock" / "lru" (case-sensitive). nullopt on anything else.
std::optional<CachePolicy> parse_policy(std::string_view name);
const char* policy_name(CachePolicy policy);

/// Cache key: one sample of one dataset. The daemon keys by
/// (shard_id, dataset-global sample index) — unique across everything a
/// daemon serves, stable across epochs regardless of shuffling.
struct SampleKey {
  std::uint32_t dataset_id = 0;
  std::uint64_t sample_index = 0;

  bool operator==(const SampleKey&) const = default;
};

struct SampleKeyHash {
  std::size_t operator()(const SampleKey& k) const noexcept {
    // splitmix64 over the packed key: cheap and well distributed, and the
    // low bits (which pick the cache shard) see the whole key.
    std::uint64_t x = (static_cast<std::uint64_t>(k.dataset_id) << 48) ^ k.sample_index;
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

struct SampleCacheConfig {
  /// Total byte budget across all shards (payload bytes; bookkeeping
  /// overhead is not charged). Must be > 0 — a zero-budget cache is
  /// expressed by not constructing one (DaemonConfig::cache_bytes == 0).
  std::size_t capacity_bytes = 64u << 20;
  CachePolicy policy = CachePolicy::kClock;
  /// Lock shards. The budget is split evenly across them; the constructor
  /// collapses to fewer shards when the budget is small, so every shard's
  /// slice can hold real entries. Clamped to >= 1.
  std::size_t shards = 8;
};

// SampleCacheStats' metrics (obs/metrics.h).
#define EMLIO_SAMPLE_CACHE_STATS(M)                                                           \
  M(std::uint64_t, hits, kCounter)                /* find() served from cache */              \
  M(std::uint64_t, misses, kCounter)              /* find() that found nothing */             \
  M(std::uint64_t, inserts, kCounter)             /* entries admitted */                      \
  M(std::uint64_t, evictions, kCounter)           /* entries evicted to make room */          \
  M(std::uint64_t, pinned_skips, kCounter)        /* eviction candidates skipped because */   \
                                                  /* outside handles still pin their bytes */ \
  M(std::uint64_t, rejected, kCounter)            /* inserts refused (oversized, or every */  \
                                                  /* candidate pinned) */                     \
  M(std::uint64_t, resident_bytes, kGauge)        /* bytes currently cached */                \
  M(std::uint64_t, resident_bytes_peak, kGauge)   /* high-water mark of the above */          \
  M(std::uint64_t, entries, kGauge)               /* entries currently cached */

/// Surfaced through DaemonStats::cache (JSON keys `cache_<name>`).
struct SampleCacheStats {
  EMLIO_METRICS(EMLIO_SAMPLE_CACHE_STATS)
};

class SampleCache {
 public:
  explicit SampleCache(SampleCacheConfig config);

  /// Audits per-shard conservation at teardown (audited builds):
  /// inserts == evictions + resident entries.
  ~SampleCache();

  SampleCache(const SampleCache&) = delete;
  SampleCache& operator=(const SampleCache&) = delete;

  /// Look up `key`. On a hit, returns an owning view that shares the cached
  /// storage (refcount bump, no byte copy) — holding it pins the entry
  /// against eviction-triggered reuse for as long as the view lives.
  std::optional<PayloadView> find(const SampleKey& key);

  /// Admit a copy of `bytes` under `key`, evicting cold unpinned entries as
  /// needed. Returns an owning view of the cached copy, or nullopt when the
  /// entry cannot be admitted (bigger than a shard's budget slice, or every
  /// resident candidate is pinned) — the caller then uses its own view of
  /// the source bytes and the cache stays within budget. Inserting an
  /// existing key returns the resident entry (no overwrite: shard records
  /// are immutable).
  std::optional<PayloadView> insert(const SampleKey& key, std::span<const std::uint8_t> bytes);

  SampleCacheStats stats() const;
  std::size_t capacity_bytes() const noexcept { return config_.capacity_bytes; }
  CachePolicy policy() const noexcept { return config_.policy; }

  /// Drop every unpinned entry (tests; pinned entries stay resident and
  /// tracked so the budget remains honest).
  void clear();

 private:
  struct Entry {
    SampleKey key;
    Payload payload;   ///< the cache's owning handle; use_count()>1 == pinned
    bool referenced = false;  ///< CLOCK second-chance bit
  };

  struct Shard {
    mutable Mutex mu;
    /// LRU: front = MRU, back = LRU. CLOCK: insertion ring walked by `hand`.
    std::list<Entry> entries EMLIO_GUARDED_BY(mu);
    std::unordered_map<SampleKey, std::list<Entry>::iterator, SampleKeyHash> map
        EMLIO_GUARDED_BY(mu);
    std::list<Entry>::iterator hand EMLIO_GUARDED_BY(mu) = entries.end();  ///< CLOCK hand
    std::size_t bytes EMLIO_GUARDED_BY(mu) = 0;

    // Per-shard counters, summed by stats().
    std::uint64_t hits EMLIO_GUARDED_BY(mu) = 0;
    std::uint64_t misses EMLIO_GUARDED_BY(mu) = 0;
    std::uint64_t inserts EMLIO_GUARDED_BY(mu) = 0;
    std::uint64_t evictions EMLIO_GUARDED_BY(mu) = 0;
    std::uint64_t pinned_skips EMLIO_GUARDED_BY(mu) = 0;
    std::uint64_t rejected EMLIO_GUARDED_BY(mu) = 0;
  };

  Shard& shard_for(const SampleKey& key);
  /// Evict until `need` more bytes fit in `shard`'s budget slice. Returns
  /// false when it cannot (every scanned candidate pinned).
  bool make_room(Shard& shard, std::size_t need) EMLIO_REQUIRES(shard.mu);
  void evict_entry(Shard& shard, std::list<Entry>::iterator it) EMLIO_REQUIRES(shard.mu);
  void note_resident(std::int64_t delta);

  SampleCacheConfig config_;
  std::size_t shard_budget_ = 0;  ///< capacity_bytes / shards.size()
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> resident_bytes_{0};
  std::atomic<std::uint64_t> resident_peak_{0};
};

}  // namespace emlio::cache
