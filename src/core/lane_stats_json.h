// LaneStats → JSON, shared by core::to_json(DaemonStats) and
// core::to_json(ReceiverStats) so the per-lane breakdown serializes
// identically on both ends of the wire (one schema for dashboards to parse).
#pragma once

#include <vector>

#include "common/lane.h"
#include "json/json.h"

namespace emlio::core {

inline json::Value to_json(const LaneStats& lane) {
  json::Object o;
  o["name"] = lane.name;
  o["weight"] = static_cast<std::uint64_t>(lane.weight);
  o["rate_per_sec"] = lane.rate_per_sec;
  o["delivered_items"] = lane.delivered_items;
  o["delivered_bytes"] = lane.delivered_bytes;
  o["enqueue_stalls"] = lane.enqueue_stalls;
  o["dequeue_stalls"] = lane.dequeue_stalls;
  o["queue_peak_depth"] = lane.queue_peak_depth;
  o["closed"] = lane.closed;
  return json::Value(std::move(o));
}

inline json::Value to_json(const std::vector<LaneStats>& lanes) {
  json::Array a;
  a.reserve(lanes.size());
  for (const auto& lane : lanes) a.push_back(to_json(lane));
  return json::Value(std::move(a));
}

}  // namespace emlio::core
