// Figure 8: the Figure-7 experiment repeated with the daemon at concurrency
// T=2 (two parallel batch-serialize + send threads) at 0.1 and 1 ms RTT.
// The paper: concurrency amortizes the fixed serialization cost and EMLIO
// "regains a consistent lead" — 2–3× higher throughput, 3–5× lower energy
// across all RTTs.
#include "bench_common.h"
#include "eval/loader_models.h"

using namespace emlio;

int main() {
  bench::print_testbed_header("Figure 8 — synthetic 2 MB records, daemon concurrency T=2");

  auto dataset = workload::presets::synthetic_2mb();
  auto model = train::presets::resnet50_synthetic();
  sim::NetworkRegime regimes[] = {sim::presets::lan_01ms(), sim::presets::lan_1ms()};

  eval::FigureTable table("fig8", "synthetic 2 MB, DALI vs EMLIO(T=2) x 2 RTTs");
  for (const auto& regime : regimes) {
    for (auto kind : {eval::LoaderKind::kDali, eval::LoaderKind::kEmlio}) {
      auto cfg = eval::centralized(kind, dataset, model, regime);
      cfg.params.batch_size = 32;
      cfg.params.emlio_daemon_threads = 2;  // the Figure-8 configuration
      cfg.params.emlio_decode_threads = 4;  // modelled receiver decode fan-out
      cfg.params.dali_prefetch_streams = 1;  // 2 MB records defeat read-ahead
      eval::FigureRow row;
      row.regime = regime.name;
      row.method = kind == eval::LoaderKind::kDali ? "DALI" : "EMLIO(T=2)";
      row.result = eval::run_scenario(cfg);
      table.add(std::move(row));
    }
  }
  bench::finish(table);
  std::printf("   expectation: EMLIO(T=2) at least matches DALI at low RTT "
              "(Figure 7's crossover removed)\n");
  return 0;
}
