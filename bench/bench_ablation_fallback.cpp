// Ablation: leaf-lock vs global HTM fallback under a capacity-abort storm
// (the paper's global-lock ablation; see DESIGN.md §9).
//
// Deterministic DES: 16 simulated threads, update-only, with 30% of traffic
// skewed onto a hot leaf set (every 64th leaf, in step with the storm key's
// leaf).
// Hot publishes capacity-abort at permille 800 and, after two aborts, run
// under their fallback lock.  As built that is the leaf lock the writer
// already holds, so the storm holds no lock any other leaf's publish waits
// for.  With the global lock every cold publish subscribes to the lock the
// hot publishes hold across their slot flush, and throughput collapses.
// The cold-op ratio (storm / calm) of each leg is exported as
// meta.storm_cold_ratio_{leaf,global}; tools/bench_smoke.py
// --fallback-storm asserts leaf >= 0.5 and global strictly worse —
// deterministic, so it holds on any host.
#include "bench_common.hpp"
#include "sim/models.hpp"

namespace {

using namespace rnt;
using namespace rnt::bench;

// Calm legs run the SAME storm config (hot set + 30% hot-set traffic skew
// stay identical) with permille = 0, so the only difference between calm
// and storm is the injected capacity aborts.
sim::SimResult storm_run(const BenchOptions& opt, bool global, bool storm) {
  sim::SimConfig cfg;
  cfg.model = sim::TreeModel::kRNTreeDS;
  cfg.threads = 16;
  cfg.keys = opt.hot_keys;
  cfg.keys_per_leaf = 48;
  cfg.update_pct = 100;
  cfg.horizon_ns = 20'000'000;
  cfg.seed = opt.seed;
  cfg.global_fallback = global;
  cfg.storm.enabled = true;
  cfg.storm.key = 7;
  cfg.storm.permille = storm ? 800 : 0;
  return sim::run_simulation(cfg);
}

double cold_ratio(const sim::SimResult& storm, const sim::SimResult& calm) {
  const double calm_cold = static_cast<double>(calm.cold_ops);
  return calm_cold > 0.0 ? static_cast<double>(storm.cold_ops) / calm_cold
                         : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opt = BenchOptions::parse(argc, argv);
  opt.apply_nvm_config();

  const sim::SimResult g_calm = storm_run(opt, true, false);
  const sim::SimResult g_storm = storm_run(opt, true, true);
  const sim::SimResult l_calm = storm_run(opt, false, false);
  const sim::SimResult l_storm = storm_run(opt, false, true);
  const double ratio_global = cold_ratio(g_storm, g_calm);
  const double ratio_leaf = cold_ratio(l_storm, l_calm);

  print_header("Simulated permille-800 capacity-abort storm on a hot leaf set",
               {"calm-cold", "storm-cold", "ratio", "fallbacks"});
  print_row("global",
            {static_cast<double>(g_calm.cold_ops),
             static_cast<double>(g_storm.cold_ops), ratio_global,
             static_cast<double>(g_storm.htm_fallbacks)},
            "%14.2f");
  print_row("leaf lock",
            {static_cast<double>(l_calm.cold_ops),
             static_cast<double>(l_storm.cold_ops), ratio_leaf,
             static_cast<double>(l_storm.htm_fallbacks)},
            "%14.2f");
  print_note("cold = ops outside the hot leaf set (every 64th leaf)");
  print_note("leaf lock keeps cold traffic >= 0.5x calm; global collapses");

  auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    return std::string(buf);
  };
  export_stats(opt, "ablation_fallback",
               {{"storm_cold_ratio_leaf", num(ratio_leaf), true},
                {"storm_cold_ratio_global", num(ratio_global), true}});
  return 0;
}
