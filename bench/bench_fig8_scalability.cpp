// Figure 8: throughput vs thread count (simulated multicore; see DESIGN.md
// for why the scalability experiments run on the DES substrate).
//
//   (a) YCSB-A, uniform keys      — every tree scales near-linearly
//   (b) YCSB-A, Zipfian theta=0.8 — FPTree stops scaling after a few
//       threads; RNTree ~1.8x ahead at 24 threads
//   (c) 90% read / 10% update, Zipfian 0.8 — RNTree+DS near-linear
//
// Beyond the paper: a sharded panel (--shards=N --batch=K) extends the DES
// sweep to 16-256 simulated cores with per-shard fallback locks and group
// persistency, and a real single-thread ShardedTree segment measures
// fences-per-op at batch 1 vs batch K (exported as gp_* meta fields so the
// amortization claim is machine-checkable).
#include "bench_common.hpp"
#include "obs/struct_audit.hpp"
#include "shard/sharded_tree.hpp"
#include "sim/models.hpp"

namespace {

using namespace rnt::bench;
using namespace rnt::sim;

void run_panel(const char* title, double theta, int update_pct,
               std::uint64_t keys, std::uint64_t horizon) {
  const int thread_counts[] = {1, 2, 4, 8, 12, 16, 20, 24};
  print_header(title, {"1", "2", "4", "8", "12", "16", "20", "24"});
  const TreeModel models[] = {TreeModel::kRNTree, TreeModel::kRNTreeDS,
                              TreeModel::kFPTree};
  const char* names[] = {"RNTree", "RNTree+DS", "FPTree"};
  for (int m = 0; m < 3; ++m) {
    std::vector<double> row;
    for (const int t : thread_counts) {
      SimConfig cfg;
      cfg.model = models[m];
      cfg.threads = t;
      cfg.zipf_theta = theta;
      cfg.update_pct = update_pct;
      cfg.keys = keys;
      cfg.horizon_ns = horizon;
      row.push_back(run_simulation(cfg).mops);
    }
    print_row(names[m], row);
  }
}

// Sharded DES sweep at service-scale core counts.  FPTree's fallback lock is
// per-shard here, so the Zipfian storm that flattens panel (b) stays local;
// the RNTree+DS rows additionally amortize slot fences over --batch.
void run_sharded_panel(const BenchOptions& opt, std::uint64_t keys,
                       std::uint64_t horizon) {
  const int thread_counts[] = {16, 32, 64, 128, 256};
  char title[128];
  std::snprintf(title, sizeof(title),
                "Figure 8(d): sharded DES (shards=%u, batch=%u), Zipfian 0.8",
                opt.shards, opt.batch);
  print_header(title, {"16", "32", "64", "128", "256"});
  const TreeModel models[] = {TreeModel::kRNTreeDS, TreeModel::kFPTree};
  const char* names[] = {"RNTree+DS", "FPTree"};
  for (int m = 0; m < 2; ++m) {
    std::vector<double> row;
    for (const int t : thread_counts) {
      SimConfig cfg;
      cfg.model = models[m];
      cfg.threads = t;
      cfg.zipf_theta = 0.8;
      cfg.update_pct = 50;
      cfg.keys = keys;
      // Shorter horizon: this panel runs up to 256 workers.
      cfg.horizon_ns = horizon / 8;
      cfg.shards = static_cast<int>(opt.shards);
      cfg.batch = static_cast<int>(opt.batch);
      row.push_back(run_simulation(cfg).mops);
    }
    print_row(names[m], row);
  }
}

// Real-implementation segment: one thread, one ShardedTree, measure fences
// per modify with eager persists vs a ModifyBatch of --batch ops.  Table-1
// single-op persist counts are untouched by construction (batch_persist /
// batch_fence are separate counters); this reports the end-to-end fence
// amortization 2 -> 1 + 1/K.
void run_group_persistency_segment(const BenchOptions& opt,
                                   std::vector<rnt::obs::MetaField>& extra) {
  namespace nvm = rnt::nvm;
  namespace obs = rnt::obs;
  using Sharded = rnt::shard::ShardedTree<>;

  nvm::PmemPool pool(std::size_t{64} << 20);
  Sharded::Options topt;
  topt.shards = static_cast<int>(opt.shards);
  Sharded tree(pool, topt);

  const std::uint64_t n = std::min<std::uint64_t>(opt.warm, 20'000);
  for (std::uint64_t i = 0; i < n; ++i) (void)tree.upsert(nth_key(i), i);

  const auto total_fences = [] {
    const nvm::PersistCounters& c = nvm::persist_counters();
    return c.fence.local() + c.batch_fence.local();
  };

  // Eager pass: one update per key, per-op fences (the paper's 2/modify).
  std::uint64_t f0 = total_fences();
  for (std::uint64_t i = 0; i < n; ++i) (void)tree.update(nth_key(i), i + 1);
  const double eager =
      static_cast<double>(total_fences() - f0) / static_cast<double>(n);

  // Batched pass: same updates through a ModifyBatch of --batch ops.
  f0 = total_fences();
  {
    Sharded::ModifyBatch batch(tree, opt.batch);
    for (std::uint64_t i = 0; i < n; ++i) (void)batch.update(nth_key(i), i + 2);
  }
  const double batched =
      static_cast<double>(total_fences() - f0) / static_cast<double>(n);

  print_header("Group persistency (real ShardedTree, 1 thread)",
               {"fences/op"});
  print_row("eager (K=1)", {eager});
  char name[32];
  std::snprintf(name, sizeof(name), "batched (K=%u)", opt.batch);
  print_row(name, {batched});
  print_note("expected: eager ~2.0, batched ~1 + 1/K (+ split/compact noise)");

  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", eager);
  extra.push_back({"gp_fences_per_op_eager", buf, true});
  std::snprintf(buf, sizeof(buf), "%.4f", batched);
  extra.push_back({"gp_fences_per_op_batched", buf, true});
  extra.push_back({"gp_keys", std::to_string(n), true});

  // Per-shard structural audit of the worked-over facade.
  rnt::obs::StructureReport rep = obs::audit_tree(tree, pool);
  rep.tree = "ShardedTree";
  obs::set_structure_section(obs::structure_json(rep));
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opt = BenchOptions::parse(argc, argv);
  const std::uint64_t keys = opt.paper ? 16'000'000 : opt.hot_keys;
  const std::uint64_t horizon = opt.paper ? 200'000'000 : 50'000'000;

  run_panel("Figure 8(a): YCSB-A uniform - throughput (Mops/s) vs threads",
            0.0, 50, keys, horizon);
  print_note("paper shape: both FPTree and RNTree scale linearly");

  run_panel("Figure 8(b): YCSB-A Zipfian 0.8 - throughput (Mops/s) vs threads",
            0.8, 50, keys, horizon);
  print_note("paper shape: FPTree scales only to ~4 threads; RNTree[+DS]");
  print_note("~1.8x higher than FPTree at 24 threads");

  run_panel(
      "Figure 8(c): skewed read-intensive (90/10) - throughput (Mops/s)",
      0.8, 10, keys, horizon);
  print_note("paper shape: RNTree+DS near-linear; RNTree better than FPTree");

  run_sharded_panel(opt, keys, horizon);
  print_note("per-shard fallback locks keep FPTree's abort storms local;");
  print_note("batch>1 amortizes RNTree slot fences (nvm.batch_* counters)");

  std::vector<rnt::obs::MetaField> extra;
  run_group_persistency_segment(opt, extra);

  export_stats(opt, "fig8_scalability", extra);
  return 0;
}
