// Shared helpers for the figure-reproduction benches: the Table-1 header
// every binary prints, the results-file plumbing, the spread summary the
// repeated micro-bench sweeps report, and the micro benches' one core-count
// SKIP policy.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
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

/// One round of an A/B pair timed over alternating rounds: both sides back
/// to back, `a` first in even rounds and `b` first in odd ones, so drift
/// within a round falls on both sides alike. Gate on the median of the
/// per-round ratios (spread()).
template <typename A, typename B>
void run_pair(int round, A&& a, B&& b) {
  if (round % 2 == 0) {
    a();
    b();
  } else {
    b();
    a();
  }
}

/// The micro benches' core-count policy, for a timing assertion that needs
/// `min_cores` hardware threads. With fewer, the timed threads would share
/// cores, so the bench prints an explicit SKIP saying what the timing
/// would measure instead (`measures`), appends a skipped JSON row and exits
/// 0 — unless `force_env` is set, in which case it runs as a plumbing
/// smoke without the timing assertion. An unknown core count (0) runs and
/// asserts.
struct CoreGate {
  unsigned cores = 0;
  bool skip = false;          ///< SKIP printed and recorded: return 0 now
  bool assert_timing = true;  ///< enough cores for the timing assertion
};

inline CoreGate core_gate(const char* bench, unsigned min_cores, const char* force_env,
                          const char* measures) {
  CoreGate g;
  g.cores = std::thread::hardware_concurrency();
  g.assert_timing = g.cores == 0 || g.cores >= min_cores;
  if (g.assert_timing || std::getenv(force_env) != nullptr) return g;
  g.skip = true;
  std::printf("%s: SKIP — %u hardware thread(s); the timing would measure %s. Run on a "
              ">=%u-core host for the timing assertion (or %s=1 for a smoke run).\n",
              bench, g.cores, measures, min_cores, force_env);
  json::Object row;
  row["bench"] = std::string(bench);
  row["skipped"] = true;
  row["reason"] = "fewer than " + std::to_string(min_cores) +
                  " hardware threads: the timing would measure " + measures;
  row["cores"] = static_cast<std::int64_t>(g.cores);
  append_json_line(json::Value(std::move(row)));
  return g;
}

}  // namespace emlio::bench
