// Figure 7: DALI vs EMLIO on the synthetic 2 MB-record workload with the
// EMLIO daemon at concurrency T=1, across 0.1 / 1 / 10 / 30 ms RTT.
// The paper's point: with one serialize+send thread, the daemon's
// serialization overhead makes EMLIO *slower* than DALI at 0.1 ms and 1 ms,
// while it still wins decisively at 10 ms and 30 ms.
#include "bench_common.h"
#include "eval/loader_models.h"

using namespace emlio;

int main() {
  bench::print_testbed_header("Figure 7 — synthetic 2 MB records, daemon concurrency T=1");

  auto dataset = workload::presets::synthetic_2mb();
  auto model = train::presets::resnet50_synthetic();
  sim::NetworkRegime regimes[] = {sim::presets::lan_01ms(), sim::presets::lan_1ms(),
                                  sim::presets::lan_10ms(), sim::presets::wan_30ms()};

  eval::FigureTable table("fig7", "synthetic 2 MB, DALI vs EMLIO(T=1) x 4 RTTs");
  for (const auto& regime : regimes) {
    for (auto kind : {eval::LoaderKind::kDali, eval::LoaderKind::kEmlio}) {
      auto cfg = eval::centralized(kind, dataset, model, regime);
      cfg.params.batch_size = 32;  // 2 MB records → 64 MB payload batches
      cfg.params.emlio_daemon_threads = 1;  // the Figure-7 configuration
      // The modelled receiver decodes on 4 threads
      // (LoaderParams::emlio_decode_threads) — the width the paper's host
      // deserialize stage already ran.
      cfg.params.emlio_decode_threads = 4;
      cfg.params.dali_prefetch_streams = 1;  // 2 MB records defeat read-ahead
      eval::FigureRow row;
      row.regime = regime.name;
      row.method = kind == eval::LoaderKind::kDali ? "DALI" : "EMLIO(T=1)";
      row.result = eval::run_scenario(cfg);
      table.add(std::move(row));
    }
  }
  bench::finish(table);
  std::printf("   expectation: DALI wins at 0.1/1 ms (serialization overhead), "
              "EMLIO wins at 10/30 ms\n");
  return 0;
}
