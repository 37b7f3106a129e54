// Table 1: persistent instructions per modify operation, measured.
//
//   Tree        Writes   Sorted   Concurrency
//   CDDS        L        yes      no          (write-amplified node copies)
//   NVTree      2        no       no
//   wB+tree     4        yes      no
//   FPTree      3        no       coarse-grained
//   RNTree      2        yes      fine-grained
//
// This bench measures the Writes column directly with the persist-
// instruction counters, averaged over many operations on warmed trees
// (split costs amortise in; the steady-state average should sit just above
// the per-op count).
#include "tree_zoo.hpp"

namespace rnt::bench {
namespace {

struct Table1Runner {
  const BenchOptions& opt;

  template <typename Factory>
  void operator()() const {
    nvm::PmemPool pool(opt.pool_size());
    auto tree = Factory::make(pool);
    warm_tree(*tree, opt.warm);
    Xoshiro256 rng(opt.seed);
    constexpr std::uint64_t kOps = 4000;

    std::uint64_t fresh = opt.warm;
    auto persists_per_op = [&](auto&& fn) {
      const obs::Counter& persists = nvm::persist_counters().persist;
      const std::uint64_t before = persists.local();
      for (std::uint64_t i = 0; i < kOps; ++i) fn();
      return static_cast<double>(persists.local() - before) / kOps;
    };

    const double ins = persists_per_op([&] { (void)tree->insert(nth_key(fresh++), 1); });
    const double upd = persists_per_op(
        [&] { (void)tree->update(nth_key(rng.next_below(opt.warm)), 2); });
    const double rem = persists_per_op(
        [&] { (void)tree->remove(nth_key(rng.next_below(opt.warm))); });
    const double fnd = persists_per_op(
        [&] { (void)tree->find(nth_key(rng.next_below(opt.warm))); });
    print_row(Factory::kName, {ins, upd, rem, fnd});
  }
};

}  // namespace
}  // namespace rnt::bench

int main(int argc, char** argv) {
  using namespace rnt::bench;
  BenchOptions opt = BenchOptions::parse(argc, argv);
  opt.warm = std::min<std::uint64_t>(opt.warm, 200'000);
  opt.apply_nvm_config();

  print_header("Table 1: measured persistent instructions per operation",
               {"insert", "update", "remove", "find"});
  Table1Runner runner{opt};
  runner.operator()<MakeRNTreeDS>();
  runner.operator()<MakeNVTree>();
  runner.operator()<MakeWBTree>();
  runner.operator()<MakeWBTreeSO>();
  runner.operator()<MakeFPTree>();
  runner.operator()<MakeCDDS>();
  print_note("paper Table 1 Writes column: RNTree=2, NVTree=2, wB+tree=4,");
  print_note("FPTree=3 (remove=1), CDDS=L (sorted multi-version array:");
  print_note("every shifted entry is flushed, ~L/2 per modify on average).");
  print_note("Values sit slightly above the per-op count because split/");
  print_note("compaction persists amortise into the average.");
  export_stats(opt, "table1_persists");
  return 0;
}
