#include "obs/trace.h"

#include <algorithm>

namespace emlio::obs {

const char* to_string(Stage s) {
  switch (s) {
    case Stage::kRead:
      return "read";
    case Stage::kEncode:
      return "encode";
    case Stage::kLaneWait:
      return "lane_wait";
    case Stage::kWire:
      return "wire";
    case Stage::kIngest:
      return "ingest";
    case Stage::kDecode:
      return "decode";
    case Stage::kDeliver:
      return "deliver";
  }
  return "unknown";
}

json::Value to_json(const BatchTrace& t) {
  json::Object o;
  o["epoch"] = static_cast<std::uint64_t>(t.epoch);
  o["batch"] = t.batch_id;
  o["node"] = static_cast<std::uint64_t>(t.node_id);
  o["shard"] = static_cast<std::uint64_t>(t.shard_id);
  o["bytes"] = t.wire_bytes;
  o["samples"] = t.nsamples;
  o["total_ns"] = static_cast<std::int64_t>(t.total_ns);
  json::Object stages;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    if (t.stage_ns[i] > 0) {
      stages[to_string(static_cast<Stage>(i))] = t.stage_ns[i];
    }
  }
  o["stages"] = json::Value(std::move(stages));
  return json::Value(std::move(o));
}

namespace {
struct SlowerThan {
  bool operator()(const BatchTrace& a, const BatchTrace& b) const {
    return a.total_ns > b.total_ns;  // min-heap on total_ns
  }
};
}  // namespace

void TraceRing::offer(const BatchTrace& t) {
  if (capacity_ == 0) return;
  // Fast path: once full, anything at or below the current floor can
  // never displace a resident trace.
  if (t.total_ns <= floor_ns_.load(std::memory_order_relaxed)) return;
  MutexLock lock(mu_);
  if (heap_.size() < capacity_) {
    heap_.push_back(t);
    std::push_heap(heap_.begin(), heap_.end(), SlowerThan{});
  } else {
    if (t.total_ns <= heap_.front().total_ns) return;
    std::pop_heap(heap_.begin(), heap_.end(), SlowerThan{});
    heap_.back() = t;
    std::push_heap(heap_.begin(), heap_.end(), SlowerThan{});
  }
  if (heap_.size() == capacity_) {
    floor_ns_.store(heap_.front().total_ns, std::memory_order_relaxed);
  }
}

std::vector<BatchTrace> TraceRing::slowest() const {
  std::vector<BatchTrace> out;
  {
    MutexLock lock(mu_);
    out = heap_;
  }
  std::sort(out.begin(), out.end(), [](const BatchTrace& a, const BatchTrace& b) {
    return a.total_ns > b.total_ns;
  });
  return out;
}

json::Value to_json(const std::vector<StageSummary>& summaries) {
  json::Object o;
  for (const auto& s : summaries) {
    json::Object row;
    row["count"] = s.count;
    row["p50"] = s.p50_ns;
    row["p95"] = s.p95_ns;
    row["p99"] = s.p99_ns;
    row["max"] = s.max_ns;
    o[s.stage] = json::Value(std::move(row));
  }
  return json::Value(std::move(o));
}

void Tracer::complete(const BatchTrace& t) {
  if (!t.active()) return;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    if (t.stage_ns[i] > 0) stage_[i].record(t.stage_ns[i]);
  }
  e2e_.record(t.total_ns);
  ring_.offer(t);
}

std::vector<StageSummary> Tracer::summaries() const {
  std::vector<StageSummary> out;
  auto fold = [&out](const char* name, const LatencyHistogram& h) {
    const auto snap = h.snapshot();
    if (snap.count == 0) return;
    StageSummary s;
    s.stage = name;
    s.count = snap.count;
    s.p50_ns = snap.quantile(0.50);
    s.p95_ns = snap.quantile(0.95);
    s.p99_ns = snap.quantile(0.99);
    s.max_ns = static_cast<double>(snap.max);
    out.push_back(std::move(s));
  };
  for (std::size_t i = 0; i < kStageCount; ++i) {
    fold(to_string(static_cast<Stage>(i)), stage_[i]);
  }
  fold("e2e", e2e_);
  return out;
}

json::Value Tracer::ring_json() const {
  json::Object o;
  o["ring_capacity"] = static_cast<std::uint64_t>(ring_.capacity());
  o["completed"] = e2e_.count();
  json::Array slow;
  for (const auto& t : ring_.slowest()) slow.push_back(to_json(t));
  o["slowest"] = json::Value(std::move(slow));
  o["latency"] = to_json(summaries());
  return json::Value(std::move(o));
}

}  // namespace emlio::obs
