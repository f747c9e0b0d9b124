// Shared helpers for the figure-reproduction benches: the Table-1 header
// every binary prints, the results-file plumbing, and the spread summary the
// repeated micro-bench sweeps report.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "eval/scenario.h"
#include "sim/testbed.h"

namespace emlio::bench {

/// Print the Table-1 testbed header (hardware the simulator models).
inline void print_testbed_header(const std::string& title) {
  std::printf("================================================================\n");
  std::printf("EMLIO reproduction bench: %s\n", title.c_str());
  std::printf("Testbed (paper Table 1):\n");
  std::printf("  %s\n", sim::describe(sim::presets::uc_compute()).c_str());
  std::printf("  %s\n", sim::describe(sim::presets::uc_storage()).c_str());
  std::printf("  %s\n", sim::describe(sim::presets::tacc_compute()).c_str());
  std::printf("  %s\n", sim::describe(sim::presets::tacc_storage()).c_str());
  std::printf("================================================================\n");
}

/// Where benches append machine-readable rows (one JSON doc per line).
inline const char* results_path() { return "emlio_bench_results.jsonl"; }

inline void finish(const eval::FigureTable& table) {
  std::fputs(table.render().c_str(), stdout);
  eval::append_results(table, results_path());
}

/// Append one machine-readable JSON row to `path` and echo it to stdout —
/// for micro-benches whose output is not a figure table.
inline void append_json_line(const json::Value& row, const char* path = results_path()) {
  std::string line = row.dump();
  if (std::FILE* f = std::fopen(path, "a")) {
    std::fputs(line.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  std::printf("%s\n", line.c_str());
}

/// Median, min and max of repeated measurements.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

inline Spread spread(std::vector<double> xs) {
  Spread s;
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  s.median = n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
  s.min = xs.front();
  s.max = xs.back();
  return s;
}

inline json::Value to_json(const Spread& s) {
  json::Object o;
  o["median"] = s.median;
  o["min"] = s.min;
  o["max"] = s.max;
  return json::Value(std::move(o));
}

}  // namespace emlio::bench
