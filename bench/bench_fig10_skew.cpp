// Figure 10: YCSB-A throughput at 8 threads as contention grows with the
// Zipfian coefficient (0.5 .. 0.99).  Paper shape: FPTree's throughput
// drops sharply past theta ~0.7; RNTree is far less sensitive and ends up
// to 2.3x faster.
#include "bench_common.hpp"
#include "sim/models.hpp"

int main(int argc, char** argv) {
  using namespace rnt::bench;
  using namespace rnt::sim;
  BenchOptions opt = BenchOptions::parse(argc, argv);

  const std::uint64_t keys = opt.paper ? 16'000'000 : opt.hot_keys;

  // --heatmap-buckets: narrow the bucketing to this bench's key space and
  // script a conflict storm on the Zipfian's rank-0 (hottest) key, so the
  // heatmap's top bucket is known a priori — the smoke test asserts that
  // "heatmap_expected_bucket" ranks first by conflict-abort count.
  std::uint64_t inject_key = 0;
  if (opt.heatmap_buckets != 0) {
    rnt::obs::heatmap_configure(
        {.buckets = opt.heatmap_buckets, .key_space = keys});
    inject_key = rnt::mix64(0) % keys;  // ScrambledZipfian's hottest item
  }

  const double thetas[] = {0.5, 0.6, 0.7, 0.8, 0.9, 0.99};
  print_header("Figure 10: YCSB-A @8 threads (Mops/s) vs Zipfian coefficient",
               {"0.5", "0.6", "0.7", "0.8", "0.9", "0.99"});

  const TreeModel models[] = {TreeModel::kRNTree, TreeModel::kRNTreeDS,
                              TreeModel::kFPTree};
  const char* names[] = {"RNTree", "RNTree+DS", "FPTree"};
  std::vector<std::vector<double>> rows;
  for (int m = 0; m < 3; ++m) {
    std::vector<double> row;
    for (const double theta : thetas) {
      SimConfig cfg;
      cfg.model = models[m];
      cfg.threads = 8;
      cfg.zipf_theta = theta;
      cfg.update_pct = 50;
      cfg.keys = keys;
      cfg.horizon_ns = opt.paper ? 200'000'000 : 50'000'000;
      if (opt.heatmap_buckets != 0)
        cfg.inject = {.enabled = true, .key = inject_key, .aborts = 3};
      row.push_back(run_simulation(cfg).mops);
    }
    print_row(names[m], row);
    rows.push_back(std::move(row));
  }
  const std::size_t last = sizeof(thetas) / sizeof(thetas[0]) - 1;
  print_note("RNTree/FPTree at theta=0.99: %.2fx (paper: up to 2.3x)",
             rows[0][last] / rows[2][last]);
  print_note("paper shape: FPTree drops sharply past 0.7; RNTree insensitive");
  std::vector<rnt::obs::MetaField> extra;
  if (opt.heatmap_buckets != 0) {
    extra.push_back({"heatmap_inject_key", std::to_string(inject_key), true});
    extra.push_back(
        {"heatmap_expected_bucket",
         std::to_string(rnt::obs::heatmap_bucket_of(inject_key)), true});
  }
  export_stats(opt, "fig10_skew", extra);
  return 0;
}
