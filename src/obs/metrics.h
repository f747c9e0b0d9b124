// One declaration per stats metric.
//
// Each exported stats struct (LaneStats, cache::SampleCacheStats,
// core::DaemonStats, core::ReceiverStats) lists its scalar metrics once, as a
// list macro of M(type, name, kind) entries beside the struct. The expanders
// below generate the struct's plain fields, the engines' relaxed-atomic
// counter blocks, the stats JSON and the StatsStreamer gauge sets from that
// one list. A metric's JSON key is its field name, so adding one is one line.
//
// Kinds: a counter is monotone and streams as a per-window delta; a gauge is
// a point-in-time value (a width, a peak, resident bytes) and streams as-is;
// a label is a string naming a row (the lane name) and never streams.
//
// Counter convention (daemon and receiver alike): every hot-path counter is
// an independent relaxed std::atomic. (A lane's queue counters are the
// exception: plain fields inside the critical sections its queue — a
// BoundedQueue, or the daemon lane's reorder buffer — already takes, read
// under the same lock.) Writers use fetch_add, store
// or compare_exchange with memory_order_relaxed; snapshot readers (stats(),
// via load_into) use relaxed loads. No counter is used to publish other data,
// so no acquire/release pairing is needed; cross-counter invariants (samples
// vs batches, received vs delivered + dropped) settle once the stream is
// drained and the worker threads are joined.
//
// Document each entry in a /* */ comment on its list line: a // comment would
// swallow the line's `\` continuation.
#pragma once

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "json/json.h"

namespace emlio::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kLabel };

#define EMLIO_METRIC_FIELD(type, name, kind) type name{};
#define EMLIO_METRIC_VISIT(type, name, kind) f(#name, ::emlio::obs::MetricKind::kind, name);
#define EMLIO_METRIC_ATOMIC(type, name, kind) std::atomic<type> name = 0;
#define EMLIO_METRIC_LOAD(type, name, kind) \
  into.name = this->name.load(std::memory_order_relaxed);

/// Inside a stats struct: the plain fields of LIST plus for_each_metric(f),
/// which calls f(name, kind, value) for each entry in list order.
#define EMLIO_METRICS(LIST) \
  LIST(EMLIO_METRIC_FIELD)  \
  template <typename F>     \
  void for_each_metric(F&& f) const { LIST(EMLIO_METRIC_VISIT) }

/// Inside an engine's counter struct: one relaxed atomic per entry of LIST
/// plus load_into(stats), which copies each into the stats field of the
/// same name.
#define EMLIO_COUNTER_BLOCK(LIST) \
  LIST(EMLIO_METRIC_ATOMIC)       \
  template <typename Stats>       \
  void load_into(Stats& into) const { LIST(EMLIO_METRIC_LOAD) }

/// Put every metric of `stats` into `out`, keyed "<prefix><name>":
/// integers as ints, bool as bool, strings as strings.
template <typename Stats>
void put_metrics(json::Object& out, const Stats& stats, const std::string& prefix = {}) {
  stats.for_each_metric([&](const char* name, MetricKind, const auto& value) {
    using T = std::decay_t<decltype(value)>;
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
      out[prefix + name] = static_cast<std::uint64_t>(value);
    } else {
      out[prefix + name] = value;
    }
  });
}

/// One JSON object of metrics per row.
template <typename Stats>
json::Value metrics_array(const std::vector<Stats>& rows) {
  json::Array array;
  array.reserve(rows.size());
  for (const auto& row : rows) {
    json::Object o;
    put_metrics(o, row);
    array.emplace_back(std::move(o));
  }
  return json::Value(std::move(array));
}

/// Add the names of `Stats`'s gauges, as "<prefix><name>", to `out`.
template <typename Stats>
void collect_gauges(std::set<std::string>& out, const std::string& prefix = {}) {
  Stats{}.for_each_metric([&](const char* name, MetricKind kind, const auto&) {
    if (kind == MetricKind::kGauge) out.insert(prefix + name);
  });
}

}  // namespace emlio::obs
