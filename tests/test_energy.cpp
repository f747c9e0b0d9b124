// Tests for power models/sources, the Algorithm-1 EnergyMonitor, and reports.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <stdexcept>
#include <thread>

#include "energy/monitor.h"
#include "energy/power_model.h"
#include "energy/power_source.h"
#include "energy/report.h"
#include "watchdog.h"

namespace emlio::energy {
namespace {

TEST(PowerModel, AffineInUtilization) {
  PowerModel m{"cpu", 50.0, 250.0};
  EXPECT_DOUBLE_EQ(m.watts(0.0), 50.0);
  EXPECT_DOUBLE_EQ(m.watts(1.0), 250.0);
  EXPECT_DOUBLE_EQ(m.watts(0.5), 150.0);
}

TEST(PowerModel, UtilizationClamped) {
  PowerModel m{"cpu", 50.0, 250.0};
  EXPECT_DOUBLE_EQ(m.watts(-1.0), 50.0);
  EXPECT_DOUBLE_EQ(m.watts(2.0), 250.0);
}

TEST(PowerModel, JoulesIntegratesTime) {
  PowerModel m{"gpu", 55.0, 260.0};
  EXPECT_DOUBLE_EQ(m.joules(0.0, 10.0), 550.0);
  EXPECT_NEAR(m.joules(0.561, 156.0), 26471.0, 100.0);  // EMLIO's GPU figure
}

TEST(PowerModel, PresetsHaveSaneOrdering) {
  for (const auto& m :
       {presets::xeon_gold_6126_dual(), presets::xeon_e5_2650v3_dual(), presets::ddr4_192gib(),
        presets::ddr4_64gib(), presets::quadro_rtx_6000(), presets::tesla_p100()}) {
    EXPECT_GT(m.peak_watts, m.idle_watts) << m.component;
    EXPECT_GT(m.idle_watts, 0.0) << m.component;
  }
}

TEST(SyntheticPowerSource, IntegratesAgainstClock) {
  ManualClock clock;
  SyntheticPowerSource src("cpu", clock, 100.0);
  clock.advance(from_seconds(2));
  EXPECT_NEAR(src.read_joules(), 200.0, 1e-9);
  // After a read the accumulator resets.
  clock.advance(from_seconds(1));
  EXPECT_NEAR(src.read_joules(), 100.0, 1e-9);
}

TEST(SyntheticPowerSource, SetWattsSplitsInterval) {
  ManualClock clock;
  SyntheticPowerSource src("cpu", clock, 100.0);
  clock.advance(from_seconds(1));
  src.set_watts(300.0);  // 100 J so far
  clock.advance(from_seconds(1));
  EXPECT_NEAR(src.read_joules(), 400.0, 1e-9);
  EXPECT_DOUBLE_EQ(src.watts(), 300.0);
}

TEST(UtilizationPowerSource, UsesModelAndCallback) {
  ManualClock clock;
  double util = 0.5;
  UtilizationPowerSource src(PowerModel{"gpu", 50, 250}, clock, [&] { return util; });
  clock.advance(from_seconds(2));
  EXPECT_NEAR(src.read_joules(), 300.0, 1e-9);  // 150 W × 2 s
  util = 1.0;
  clock.advance(from_seconds(1));
  EXPECT_NEAR(src.read_joules(), 250.0, 1e-9);
}

TEST(EnergyMonitor, RequiresCpuAndDram) {
  tsdb::Database db;
  const auto& clock = SteadyClock::instance();
  auto cpu = std::make_shared<SyntheticPowerSource>("cpu", clock, 10.0);
  EXPECT_THROW(EnergyMonitor(MonitorOptions{}, clock, db, cpu, nullptr), std::invalid_argument);
}

TEST(EnergyMonitor, CollectsBarrierAlignedTuples) {
  tsdb::Database db;
  const auto& clock = SteadyClock::instance();
  auto cpu = std::make_shared<SyntheticPowerSource>("cpu", clock, 50.0);
  auto dram = std::make_shared<SyntheticPowerSource>("memory", clock, 5.0);
  auto gpu = std::make_shared<SyntheticPowerSource>("gpu", clock, 100.0);

  MonitorOptions opt;
  opt.node_id = "nodeA";
  opt.interval = from_millis(5);
  opt.write_batch_size = 4;
  EnergyMonitor monitor(opt, clock, db, cpu, dram, gpu);
  monitor.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  monitor.stop();

  auto stats = monitor.stats();
  EXPECT_GE(stats.rounds, 10u);
  EXPECT_GE(stats.points_written, 10u);

  tsdb::Query q;
  q.measurement = "energy";
  q.tag_filter["node_id"] = "nodeA";
  auto rows = db.select(q);
  ASSERT_GE(rows.size(), 10u);
  // Every tuple is coherent: all three components present at one t_k.
  for (const auto& p : rows) {
    EXPECT_TRUE(p.fields.count("cpu_energy"));
    EXPECT_TRUE(p.fields.count("memory_energy"));
    EXPECT_TRUE(p.fields.count("gpu_energy"));
  }
  // Timestamps form a gapless, strictly increasing δ-grid.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].timestamp - rows[i - 1].timestamp, opt.interval);
  }
}

TEST(EnergyMonitor, EnergyConservedWithinTolerance) {
  // Total Joules recorded must match watts × wall time regardless of how
  // samples were sliced or interpolated.
  tsdb::Database db;
  const auto& clock = SteadyClock::instance();
  auto cpu = std::make_shared<SyntheticPowerSource>("cpu", clock, 40.0);
  auto dram = std::make_shared<SyntheticPowerSource>("memory", clock, 4.0);

  MonitorOptions opt;
  opt.interval = from_millis(4);
  EnergyMonitor monitor(opt, clock, db, cpu, dram);
  Nanos start = clock.now();
  monitor.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  monitor.stop();
  Nanos end = clock.now();

  tsdb::Query q;
  q.measurement = "energy";
  double recorded = db.sum(q, "cpu_energy");
  double truth = 40.0 * to_seconds(end - start);
  EXPECT_NEAR(recorded, truth, truth * 0.25);  // sampling edges allow slack
}

TEST(EnergyMonitor, WorksWithoutGpu) {
  tsdb::Database db;
  const auto& clock = SteadyClock::instance();
  auto cpu = std::make_shared<SyntheticPowerSource>("cpu", clock, 10.0);
  auto dram = std::make_shared<SyntheticPowerSource>("memory", clock, 1.0);
  MonitorOptions opt;
  opt.interval = from_millis(3);
  EnergyMonitor monitor(opt, clock, db, cpu, dram, nullptr);
  monitor.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  monitor.stop();
  tsdb::Query q;
  q.measurement = "energy";
  auto rows = db.select(q);
  ASSERT_FALSE(rows.empty());
  EXPECT_FALSE(rows[0].fields.count("gpu_energy"));
}

TEST(EnergyMonitor, StartStopIdempotent) {
  tsdb::Database db;
  const auto& clock = SteadyClock::instance();
  auto cpu = std::make_shared<SyntheticPowerSource>("cpu", clock, 10.0);
  auto dram = std::make_shared<SyntheticPowerSource>("memory", clock, 1.0);
  MonitorOptions opt;
  opt.interval = from_millis(2);
  EnergyMonitor monitor(opt, clock, db, cpu, dram);
  monitor.start();
  monitor.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  monitor.stop();
  monitor.stop();
  EXPECT_FALSE(monitor.running());
}

// A monitor runs once. Its threads close the reading and write queues on
// their way out, so a restarted monitor used to run and record nothing: no
// round after the restart reached the database. start() after stop() now
// throws instead.
TEST(EnergyMonitor, StartAfterStopThrows) {
  tsdb::Database db;
  const auto& clock = SteadyClock::instance();
  auto cpu = std::make_shared<SyntheticPowerSource>("cpu", clock, 10.0);
  auto dram = std::make_shared<SyntheticPowerSource>("memory", clock, 1.0);
  MonitorOptions opt;
  opt.interval = from_millis(2);
  EnergyMonitor monitor(opt, clock, db, cpu, dram);
  monitor.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  monitor.stop();
  // Not EXPECT_THROW: in this file it trips a g++ 12 -Wrestrict false
  // positive (in EnergyReport.WindowRestrictsAggregation) at -O3.
  bool threw = false;
  try {
    monitor.start();
  } catch (const std::logic_error&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
  EXPECT_FALSE(monitor.running());
}

// Regression: both samplers used to read stop_ on their own after the
// phase-2 barrier, so a stop() landing between the two reads let one leave
// while the other waited at the next phase 1 forever, and stop() joined it.
// Each cycle stops a GPU-enabled monitor at a random point of its 1 ms
// rounds; a hang trips the watchdog (exit 1) instead of holding ctest.
TEST(EnergyMonitor, StopNeverStrandsASampler) {
  emlio::testing::Watchdog watchdog(std::chrono::seconds(10),
                                    "EnergyMonitor start/stop cycles (a sampler was stranded)");
  tsdb::Database db;
  const auto& clock = SteadyClock::instance();
  auto cpu = std::make_shared<SyntheticPowerSource>("cpu", clock, 10.0);
  auto dram = std::make_shared<SyntheticPowerSource>("memory", clock, 1.0);
  auto gpu = std::make_shared<SyntheticPowerSource>("gpu", clock, 20.0);
  MonitorOptions opt;
  opt.interval = from_millis(1);
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> run_us(0, 3000);
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(3);
  int cycles = 0;
  for (; cycles < 2000 && std::chrono::steady_clock::now() < until; ++cycles) {
    EnergyMonitor monitor(opt, clock, db, cpu, dram, gpu);
    monitor.start();
    std::this_thread::sleep_for(std::chrono::microseconds(run_us(rng)));
    monitor.stop();
    ASSERT_FALSE(monitor.running());
  }
  EXPECT_GT(cycles, 100);
}

namespace {

/// A power source whose read occasionally stalls longer than the sampling
/// interval — forces the monitor's missed-interval path.
class SlowPowerSource final : public PowerSource {
 public:
  SlowPowerSource(std::string component, Nanos stall_every_n_reads, Nanos stall)
      : component_(std::move(component)), every_(stall_every_n_reads), stall_(stall) {}
  const std::string& component() const override { return component_; }
  double read_joules() override {
    if (++reads_ % every_ == 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(stall_));
    }
    return 1.0;
  }

 private:
  std::string component_;
  Nanos every_;
  Nanos stall_;
  std::int64_t reads_ = 0;
};

}  // namespace

TEST(EnergyMonitor, InterpolatesMissedIntervals) {
  // Every 3rd read stalls 4× the interval → rounds are skipped; Algorithm 1
  // interpolates the holes so the series stays gapless on the δ-grid.
  tsdb::Database db;
  const auto& clock = SteadyClock::instance();
  auto cpu = std::make_shared<SlowPowerSource>("cpu", 3, from_millis(12));
  auto dram = std::make_shared<SyntheticPowerSource>("memory", clock, 1.0);
  MonitorOptions opt;
  opt.interval = from_millis(3);
  EnergyMonitor monitor(opt, clock, db, cpu, dram);
  monitor.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  monitor.stop();

  EXPECT_GT(monitor.stats().interpolated, 0u);
  tsdb::Query q;
  q.measurement = "energy";
  auto rows = db.select(q);
  ASSERT_GE(rows.size(), 10u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].timestamp - rows[i - 1].timestamp, opt.interval) << i;
  }
}

namespace {

/// Reads the steady clock on time once — start()'s read of t_0 — and `lag`
/// late ever after, as if the samplers had started `lag` after start().
class LateAfterFirstReadClock final : public Clock {
 public:
  explicit LateAfterFirstReadClock(Nanos lag) : lag_(lag) {}
  Nanos now() const override {
    const Nanos t = SteadyClock::instance().now();
    return first_read_.exchange(false, std::memory_order_acq_rel) ? t : t + lag_;
  }

 private:
  Nanos lag_;
  mutable std::atomic<bool> first_read_{true};
};

}  // namespace

TEST(EnergyMonitor, LateFirstRoundSpreadsOverTheTicksBeforeIt) {
  // The samplers' first round lands at tick 3, not 0. Its reading covers
  // ticks 0..3, so the series must still start on the grid with no hole:
  // ticks 0..2 are interpolated, as for any later overrun.
  tsdb::Database db;
  MonitorOptions opt;
  opt.interval = from_millis(5);
  LateAfterFirstReadClock clock(3 * opt.interval);
  const auto& steady = SteadyClock::instance();
  auto cpu = std::make_shared<SyntheticPowerSource>("cpu", steady, 50.0);
  auto dram = std::make_shared<SyntheticPowerSource>("memory", steady, 5.0);
  EnergyMonitor monitor(opt, clock, db, cpu, dram);
  monitor.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  monitor.stop();

  EXPECT_GE(monitor.stats().interpolated, 3u);
  tsdb::Query q;
  q.measurement = "energy";
  auto rows = db.select(q);
  ASSERT_GE(rows.size(), 4u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].timestamp - rows[i - 1].timestamp, opt.interval) << i;
  }
}

TEST(EnergyReport, AggregatesPerNodeAndTotal) {
  tsdb::Database db;
  auto add = [&](const std::string& node, Nanos ts, double cpu, double dram, double gpu) {
    tsdb::Point p;
    p.measurement = "energy";
    p.tags["node_id"] = node;
    p.timestamp = ts;
    p.fields["cpu_energy"] = cpu;
    p.fields["memory_energy"] = dram;
    p.fields["gpu_energy"] = gpu;
    db.write(std::move(p));
  };
  for (int i = 0; i < 10; ++i) {
    add("compute0", i * 100, 5.0, 0.5, 12.0);
    add("storage0", i * 100, 3.0, 0.3, 0.0);
  }
  auto report = make_report(db, 0, 1000);
  ASSERT_EQ(report.nodes.size(), 2u);
  EXPECT_DOUBLE_EQ(report.cpu_joules(), 80.0);
  EXPECT_DOUBLE_EQ(report.dram_joules(), 8.0);
  EXPECT_DOUBLE_EQ(report.gpu_joules(), 120.0);
  EXPECT_DOUBLE_EQ(report.total_joules(), 208.0);
  auto text = report.to_string();
  EXPECT_NE(text.find("compute0"), std::string::npos);
  EXPECT_NE(text.find("TOTAL"), std::string::npos);
}

TEST(EnergyReport, WindowRestrictsAggregation) {
  tsdb::Database db;
  for (int i = 0; i < 10; ++i) {
    tsdb::Point p;
    p.measurement = "energy";
    p.tags["node_id"] = "n";
    p.timestamp = i * 100;
    p.fields["cpu_energy"] = 1.0;
    db.write(std::move(p));
  }
  auto report = make_report(db, 200, 600);
  EXPECT_DOUBLE_EQ(report.cpu_joules(), 4.0);  // ts 200,300,400,500
}

}  // namespace
}  // namespace emlio::energy
