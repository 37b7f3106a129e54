// Ablation: striped vs global HTM fallback locking under a capacity-abort
// storm (the paper's global-lock ablation; see DESIGN.md §9).
//
// Deterministic DES: 16 simulated threads, update-only, with 30% of traffic
// skewed onto one hot leaf set (the leaves sharing the storm key's stripe
// under the fixed 64-way reference mapping).  Hot publishes capacity-abort
// at permille 800 and escalate to the CONFIGURED stripe's fallback lock,
// held across the slot flush.  With one global stripe every cold publish
// subscribes to that same lock and throughput collapses; with 64 stripes
// only the hot set serializes.  The cold-op ratio (storm / calm) for each
// configuration is exported as meta.storm_cold_ratio_{striped,global};
// tools/bench_smoke.py --fallback-storm asserts striped >= 0.5 and global
// strictly worse — deterministic, so it holds on any host.
//
// The real tree has no striped table to compare: its publishes fall back
// under the leaf's own version lock, so a storm on one leaf never holds a
// lock any other leaf's publish waits for.
#include "bench_common.hpp"
#include "sim/models.hpp"

namespace {

using namespace rnt;
using namespace rnt::bench;

// Calm legs run the SAME storm config (classification + 30% hot-set traffic
// skew stay identical) with permille = 0, so the only difference between
// calm and storm is the injected capacity aborts.
sim::SimResult storm_run(const BenchOptions& opt, int stripes, bool storm) {
  sim::SimConfig cfg;
  cfg.model = sim::TreeModel::kRNTreeDS;
  cfg.threads = 16;
  cfg.keys = opt.hot_keys;
  cfg.keys_per_leaf = 48;
  cfg.update_pct = 100;
  cfg.horizon_ns = 20'000'000;
  cfg.seed = opt.seed;
  cfg.fallback_stripes = stripes;
  cfg.storm.enabled = true;
  cfg.storm.key = 7;
  cfg.storm.permille = storm ? 800 : 0;
  return sim::run_simulation(cfg);
}

/// Cold ops completed in a calm run: every op, classified by the same hot
/// set the storm run uses (re-run the classification-only config).
double cold_ratio(const sim::SimResult& storm, const sim::SimResult& calm) {
  const double calm_cold = static_cast<double>(calm.cold_stripe_ops);
  return calm_cold > 0.0
             ? static_cast<double>(storm.cold_stripe_ops) / calm_cold
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opt = BenchOptions::parse(argc, argv);
  opt.apply_nvm_config();
  const unsigned striped = opt.stripes != 0 ? opt.stripes : 64u;

  const sim::SimResult g_calm = storm_run(opt, 1, false);
  const sim::SimResult g_storm = storm_run(opt, 1, true);
  const sim::SimResult s_calm =
      storm_run(opt, static_cast<int>(striped), false);
  const sim::SimResult s_storm =
      storm_run(opt, static_cast<int>(striped), true);
  const double ratio_global = cold_ratio(g_storm, g_calm);
  const double ratio_striped = cold_ratio(s_storm, s_calm);

  print_header("Simulated permille-800 capacity-abort storm on one stripe",
               {"calm-cold", "storm-cold", "ratio", "fallbacks"});
  print_row("global (1)",
            {static_cast<double>(g_calm.cold_stripe_ops),
             static_cast<double>(g_storm.cold_stripe_ops), ratio_global,
             static_cast<double>(g_storm.htm_fallbacks)},
            "%14.2f");
  print_row("striped (" + std::to_string(striped) + ")",
            {static_cast<double>(s_calm.cold_stripe_ops),
             static_cast<double>(s_storm.cold_stripe_ops), ratio_striped,
             static_cast<double>(s_storm.htm_fallbacks)},
            "%14.2f");
  print_note("cold = ops outside the hot leaf set (fixed 64-way reference)");
  print_note("striped keeps cold traffic >= 0.5x calm; global collapses");

  auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    return std::string(buf);
  };
  export_stats(opt, "ablation_fallback",
               {{"storm_cold_ratio_striped", num(ratio_striped), true},
                {"storm_cold_ratio_global", num(ratio_global), true},
                {"storm_stripes", std::to_string(striped), true}});
  return 0;
}
