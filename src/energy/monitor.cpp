#include "energy/monitor.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "common/log.h"
#include "common/thread_name.h"

namespace emlio::energy {

EnergyMonitor::EnergyMonitor(MonitorOptions options, const Clock& clock, tsdb::Database& db,
                             std::shared_ptr<PowerSource> cpu, std::shared_ptr<PowerSource> dram,
                             std::shared_ptr<PowerSource> gpu)
    : options_(std::move(options)),
      clock_(&clock),
      db_(&db),
      cpu_(std::move(cpu)),
      dram_(std::move(dram)),
      gpu_(std::move(gpu)),
      barrier_(gpu_ ? 2 : 1) {
  if (!cpu_ || !dram_) {
    throw std::invalid_argument("EnergyMonitor requires cpu and dram power sources");
  }
}

EnergyMonitor::~EnergyMonitor() { stop(); }

void EnergyMonitor::start() {
  // The threads close the queues on their way out, so a stopped monitor
  // would run with nowhere to put its readings.
  if (stop_.load(std::memory_order_acquire)) {
    throw std::logic_error("EnergyMonitor::start: a monitor runs once, and this one stopped");
  }
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  start_time_ = clock_->now();
  // Algorithm 1 line 2: CPU/DRAM sampler, optional GPU sampler, accumulator,
  // writer.
  auto spawn = [this](const char* name, void (EnergyMonitor::*role)()) {
    threads_.emplace_back([this, name, role] {
      set_thread_name(name);
      (this->*role)();
    });
  };
  spawn("emlio-mon-cpu", &EnergyMonitor::cpu_dram_sampler);
  if (gpu_) spawn("emlio-mon-gpu", &EnergyMonitor::gpu_sampler);
  spawn("emlio-mon-acc", &EnergyMonitor::accumulator);
  spawn("emlio-mon-write", &EnergyMonitor::writer);
}

void EnergyMonitor::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  running_.store(false, std::memory_order_release);
}

MonitorStats EnergyMonitor::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void EnergyMonitor::cpu_dram_sampler() {
  // The CPU/DRAM sampler is the leader: it decides each round's index so
  // both samplers stamp the identical t_k (Algorithm 1's aligned timestamp).
  std::uint64_t round = 0;
  for (;;) {
    barrier_.arrive_and_wait();  // phase 1: align arrival
    // Leader decides the cycle: stop, or the round computed from the clock,
    // skipping ticks if the previous cycle overran δ (the "missed interval"
    // case). It reads stop_ once, here, and publishes the decision with the
    // round, so both samplers leave together: were each to read stop_ after
    // phase 2, a stop() between the two reads would strand one sampler at
    // the next phase 1.
    if (stop_.load(std::memory_order_acquire)) {
      leader_round_ = kStopRound;
    } else {
      Nanos now = clock_->now();
      auto elapsed_ticks =
          static_cast<std::uint64_t>(std::max<Nanos>(0, now - start_time_) / options_.interval);
      leader_round_ = std::max(round, elapsed_ticks);
    }
    barrier_.arrive_and_wait();  // phase 2: publish the decision
    round = leader_round_;
    if (round == kStopRound) break;

    Reading r;
    r.round = round;
    r.t_k = tick_time(round);
    // perf stat -e power/energy-pkg/,power/energy-ram/ sleep δ  (line 6)
    r.cpu = cpu_->read_joules();
    r.dram = dram_->read_joules();
    if (!cpu_queue_.push(r)) break;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.rounds;
    }

    ++round;
    Nanos next = tick_time(round);
    Nanos wait = next - clock_->now();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
  }
  cpu_queue_.close();
}

void EnergyMonitor::gpu_sampler() {
  for (;;) {
    barrier_.arrive_and_wait();  // phase 1
    barrier_.arrive_and_wait();  // phase 2: leader published the decision
    std::uint64_t round = leader_round_;
    if (round == kStopRound) break;

    Reading r;
    r.round = round;
    r.t_k = tick_time(round);
    // NVML power read, E_gpu = Σ P_i · δ  (line 11)
    r.gpu = gpu_->read_joules();
    if (!gpu_queue_.push(r)) break;

    Nanos next = tick_time(round + 1);
    Nanos wait = next - clock_->now();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
  }
  gpu_queue_.close();
}

void EnergyMonitor::accumulator() {
  // Merge CPU/DRAM + GPU tuples by t_k, interpolate holes, forward (line 14).
  std::int64_t last_round = -1;
  for (;;) {
    auto c = cpu_queue_.pop();
    if (!c) break;
    Reading merged = *c;
    if (gpu_) {
      auto g = gpu_queue_.pop();
      if (g) {
        // Barrier alignment guarantees FIFO rounds match.
        merged.gpu = g->gpu;
      }
    }

    // A round overrun shows up as a jump in the round index. The energy
    // sources integrate since their previous read, so the current reading
    // covers the whole gap: spread it across the missing ticks to keep the
    // series gapless and energy-conserving. The first reading is no
    // exception: samplers that start late begin at round r0 > 0, and that
    // reading spreads over ticks 0..r0 (last_round starts at -1).
    std::uint64_t gap = merged.round - static_cast<std::uint64_t>(last_round);
    if (gap == 0) gap = 1;
    auto scale = 1.0 / static_cast<double>(gap);
    for (std::uint64_t k = 1; k <= gap; ++k) {
      std::uint64_t round = static_cast<std::uint64_t>(last_round) + k;
      tsdb::Point p;
      p.measurement = options_.measurement;
      p.tags["node_id"] = options_.node_id;
      p.timestamp = tick_time(round);
      p.fields["cpu_energy"] = merged.cpu * scale;
      p.fields["memory_energy"] = merged.dram * scale;
      if (gpu_ && merged.gpu >= 0.0) p.fields["gpu_energy"] = merged.gpu * scale;
      if (k < gap) {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.interpolated;
      }
      if (!write_queue_.push(std::move(p))) break;
    }
    last_round = static_cast<std::int64_t>(merged.round);
  }
  write_queue_.close();
}

void EnergyMonitor::writer() {
  // Batch up to N tuples, tag with node_id, write_points() (line 15).
  std::vector<tsdb::Point> batch;
  batch.reserve(options_.write_batch_size);
  auto flush = [&] {
    if (batch.empty()) return;
    std::size_t n = batch.size();
    db_->write_points(std::move(batch));
    batch.clear();
    batch.reserve(options_.write_batch_size);
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.points_written += n;
  };
  for (;;) {
    auto p = write_queue_.pop();
    if (!p) break;
    batch.push_back(std::move(*p));
    if (batch.size() >= options_.write_batch_size) flush();
  }
  flush();
}

}  // namespace emlio::energy
