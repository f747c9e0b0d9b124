// Figure 10 (Scenario 2): fully sharded dataset — every compute node stores
// half the data locally and streams the other half from its peer — with DDP
// across 2 nodes, at 0.1 / 10 / 30 ms RTT. Paper values: DALI 230.9 /
// 1422.5 / 4154.7 s vs EMLIO 222.5 / 221.6 / 221.8 s; EMLIO's *duration*
// stays flat but its *energy* rises with RTT (allreduce busy-polling), e.g.
// at 30 ms CPU 1.06e5 J vs DALI's 1.80e5 J.
#include "bench_common.h"
#include "eval/loader_models.h"

using namespace emlio;

namespace {
struct PaperCell {
  double duration, cpu_j, dram_j, gpu_j;
};
constexpr PaperCell kDali[] = {{230.9, 2.22e4, 2.08e3, 4.38e4},
                               {1422.5, 6.07e4, 5.03e3, 9.08e4},
                               {4154.7, 1.80e5, 1.42e4, 2.35e5}};
constexpr PaperCell kEmlio[] = {{222.5, 1.97e4, 2.03e3, 4.17e4},
                                {221.6, 5.25e4, 4.96e3, 7.20e4},
                                {221.8, 1.06e5, 9.01e3, 1.26e5}};
}  // namespace

int main() {
  bench::print_testbed_header("Figure 10 — sharded (local half + remote half), 2-node DDP");

  auto dataset = workload::presets::imagenet_10gb();
  auto model = train::presets::resnet50();
  sim::NetworkRegime regimes[] = {sim::presets::lan_01ms(), sim::presets::lan_10ms(),
                                  sim::presets::wan_30ms()};

  eval::FigureTable table("fig10", "sharded scenario, DALI vs EMLIO x 3 RTTs (2 compute nodes)");
  for (int r = 0; r < 3; ++r) {
    for (auto kind : {eval::LoaderKind::kDali, eval::LoaderKind::kEmlio}) {
      auto cfg = eval::sharded(kind, dataset, model, regimes[r]);
      if (kind == eval::LoaderKind::kEmlio) {
        // Model the pipelined storage engine the real daemon now runs:
        // a read+encode pool wider than the single SendWorker, feeding a
        // bounded per-sink lane (DaemonConfig::pool_threads /
        // ::prefetch_depth).
        cfg.params.emlio_pool_threads = 4;
        cfg.params.emlio_prefetch_depth = 16;
        // ...and the modelled receiver decoding the 2-daemon fan-in on 4
        // threads.
        cfg.params.emlio_decode_threads = 4;
      }
      const PaperCell& cell = kind == eval::LoaderKind::kDali ? kDali[r] : kEmlio[r];
      eval::FigureRow row;
      row.regime = regimes[r].name;
      row.method = kind == eval::LoaderKind::kDali ? "DALI" : "EMLIO";
      row.result = eval::run_scenario(cfg);
      row.paper_duration_s = cell.duration;
      row.paper_cpu_j = cell.cpu_j;
      row.paper_dram_j = cell.dram_j;
      row.paper_gpu_j = cell.gpu_j;
      table.add(std::move(row));
    }
    // Beyond the paper: warm-epoch EMLIO with each node's daemon cache
    // holding its half of the dataset — the remote half still crosses the
    // peer link, but neither daemon touches its disks again.
    {
      auto cfg = eval::sharded(eval::LoaderKind::kEmlio, dataset, model, regimes[r]);
      cfg.name += "_cache_warm";
      cfg.params.emlio_pool_threads = 4;
      cfg.params.emlio_prefetch_depth = 16;
      cfg.params.emlio_decode_threads = 4;
      cfg.params.emlio_cache_mb = dataset.total_bytes() / (1u << 20) + 1;
      cfg.params.emlio_cache_warm = true;
      eval::FigureRow row;
      row.regime = regimes[r].name;
      row.method = "EMLIO+cache";
      row.result = eval::run_scenario(cfg);
      table.add(std::move(row));
    }
  }
  bench::finish(table);
  std::printf("   expectation: EMLIO duration flat across RTTs while its energy rises "
              "(sync busy-poll); DALI blows up in both\n");
  return 0;
}
