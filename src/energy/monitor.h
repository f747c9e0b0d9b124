// EnergyMonitor — the paper's distributed energy-measurement framework
// (Section 3, Algorithm 1, Figure 2), implemented with the same thread
// structure:
//
//   * a CPU/DRAM sampler thread and an optional GPU sampler thread,
//     synchronized on a barrier so every round k yields a coherent energy
//     tuple for one timestamp t_k;
//   * a 100 ms default sampling interval δ;
//   * an Accumulator that merges per-component queues by t_k and
//     *interpolates* holes when a round overruns its interval, keeping the
//     time series gapless;
//   * a Batch Writer that tags tuples with the node id and writes batches of
//     up to N points to the TSDB (write_points()).
//
// The clock is injected, so the exact same monitor runs under real time
// (tests, examples) and under the simulator's virtual time.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/barrier.h"
#include "common/bounded_queue.h"
#include "common/clock.h"
#include "energy/power_source.h"
#include "tsdb/tsdb.h"

namespace emlio::energy {

struct MonitorOptions {
  std::string node_id = "node0";
  Nanos interval = from_millis(100);  ///< δ — the paper's 100 ms
  std::size_t write_batch_size = 64;  ///< N — writer batch cap
  std::string measurement = "energy"; ///< TSDB measurement name
};

/// Counters exposed for observability and tests.
struct MonitorStats {
  std::uint64_t rounds = 0;          ///< barrier-aligned sampling rounds
  std::uint64_t interpolated = 0;    ///< tuples synthesized for missed ticks
  std::uint64_t points_written = 0;  ///< points delivered to the TSDB
};

class EnergyMonitor {
 public:
  /// `cpu` and `dram` are required (the CPU/DRAM sampler reads both);
  /// `gpu` may be null (storage nodes have no GPU — Table 1).
  EnergyMonitor(MonitorOptions options, const Clock& clock, tsdb::Database& db,
                std::shared_ptr<PowerSource> cpu, std::shared_ptr<PowerSource> dram,
                std::shared_ptr<PowerSource> gpu = nullptr);

  /// Joins all threads; flushes pending points.
  ~EnergyMonitor();

  EnergyMonitor(const EnergyMonitor&) = delete;
  EnergyMonitor& operator=(const EnergyMonitor&) = delete;

  /// Launch sampler/accumulator/writer threads (Algorithm 1 line 2). A
  /// monitor runs once: start() while running does nothing, and start()
  /// after stop() throws std::logic_error.
  void start();

  /// Stop all threads and flush (Algorithm 1 line 17). Idempotent.
  void stop();

  bool running() const noexcept { return running_.load(std::memory_order_acquire); }

  MonitorStats stats() const;

 private:
  struct Reading {
    std::uint64_t round;
    Nanos t_k;
    // Joules over the round's interval per component; a negative value means
    // the component was not sampled this round.
    double cpu = -1.0;
    double dram = -1.0;
    double gpu = -1.0;
  };

  void cpu_dram_sampler();
  void gpu_sampler();
  void accumulator();
  void writer();
  Nanos tick_time(std::uint64_t round) const { return start_time_ + static_cast<Nanos>(round) * options_.interval; }

  MonitorOptions options_;
  const Clock* clock_;
  tsdb::Database* db_;
  std::shared_ptr<PowerSource> cpu_;
  std::shared_ptr<PowerSource> dram_;
  std::shared_ptr<PowerSource> gpu_;

  CyclicBarrier barrier_;
  Nanos start_time_ = 0;
  /// The leader's decision for the current cycle: its round, or kStopRound.
  static constexpr std::uint64_t kStopRound = UINT64_MAX;
  std::atomic<std::uint64_t> leader_round_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};

  BoundedQueue<Reading> cpu_queue_{256};
  BoundedQueue<Reading> gpu_queue_{256};
  BoundedQueue<tsdb::Point> write_queue_{1024};

  std::vector<std::thread> threads_;

  mutable std::mutex stats_mutex_;
  MonitorStats stats_;
};

}  // namespace emlio::energy
