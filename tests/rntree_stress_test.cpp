// Multi-threaded RNTree stress test, written to run under ThreadSanitizer.
//
// CI builds it twice: in the normal test suite, and in a dedicated TSan
// build (-DRNTREE_TSAN=ON -DRNTREE_ENABLE_RTM=OFF) that exercises the
// software fallback-lock path only — CI machines have no TSX, and RTM
// transactions are invisible to TSan anyway.  The seqlock read side
// (find/scan/snapshot_slot) is deliberately uninstrumented via
// RNT_NO_SANITIZE_THREAD (see common/hints.hpp): its races are resolved by
// version validation.  Everything else — leaf version locks, log-entry
// allocation, split quiescing, EBR, the sharded pool allocator — runs fully
// instrumented, so a synchronization bug anywhere on the writer side or in
// the allocator is a TSan report here.
//
// Fixed op counts (no wall-clock phases) keep the run deterministic in
// length: TSan's ~10x slowdown stretches time, not work.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/rntree.hpp"
#include "htm/abort_inject.hpp"
#include "htm/smo.hpp"
#include "nvm/pool.hpp"

namespace rnt::core {
namespace {

using Tree = RNTree<std::uint64_t, std::uint64_t>;

class RNTreeStressTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    saved_ = nvm::config();
    nvm::config().write_latency_ns = 0;
    nvm::config().per_line_ns = 0;
    pool_ = std::make_unique<nvm::PmemPool>(std::size_t{512} << 20);
    tree_ = std::make_unique<Tree>(*pool_, Tree::Options{.dual_slot = GetParam()});
  }
  void TearDown() override { nvm::config() = saved_; }

  nvm::NvmConfig saved_;
  std::unique_ptr<nvm::PmemPool> pool_;
  std::unique_ptr<Tree> tree_;
};

INSTANTIATE_TEST_SUITE_P(SlotModes, RNTreeStressTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "DualSlot" : "SingleSlot";
                         });

// Values always encode their key in the high bits so a reader can tell a
// consistent snapshot from a torn one without knowing which write it raced.
constexpr std::uint64_t kKeys = 6000;  // ~100+ leaves: plenty of splits
std::uint64_t encode(std::uint64_t key, std::uint64_t seq) {
  return (key << 16) | (seq & 0xFFFF);
}

TEST_P(RNTreeStressTest, WritersReadersScannersThenRecovery) {
  // 2 writers on disjoint key shards (mirrored into private oracles),
  // 1 point reader, 1 scanner — all running through leaf splits and the
  // b-link chase windows they open.
  constexpr int kWriters = 2;
  constexpr int kOpsPerWriter = 12000;
  const obs::Counter splits("tree.leaf_splits");
  const std::uint64_t splits0 = splits.value();

  std::atomic<int> writers_done{0};
  std::atomic<std::uint64_t> reader_violations{0};
  std::atomic<std::uint64_t> scan_violations{0};
  std::vector<std::map<std::uint64_t, std::uint64_t>> oracles(kWriters);

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto& oracle = oracles[w];
      Xoshiro256 rng(static_cast<std::uint64_t>(w) * 77 + 13);
      for (int i = 0; i < kOpsPerWriter; ++i) {
        // Shard by parity: writer w touches only keys with k % 2 == w.
        const std::uint64_t k = rng.next_below(kKeys / 2) * 2 + w;
        const std::uint64_t v = encode(k, static_cast<std::uint64_t>(i));
        switch (rng.next_below(8)) {
          case 0:
          case 1:
            ASSERT_EQ(tree_->insert(k, v), oracle.emplace(k, v).second);
            break;
          case 2: {
            auto it = oracle.find(k);
            ASSERT_EQ(tree_->update(k, v), it != oracle.end());
            if (it != oracle.end()) it->second = v;
            break;
          }
          case 3:
            ASSERT_EQ(tree_->remove(k), oracle.erase(k) > 0);
            break;
          default:
            tree_->upsert(k, v);
            oracle[k] = v;
        }
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }

  // Point reader: every observed value must encode the key it was found
  // under — a torn or misrouted read would break the encoding.
  threads.emplace_back([&] {
    Xoshiro256 rng(991);
    while (writers_done.load(std::memory_order_acquire) < kWriters) {
      const std::uint64_t k = rng.next_below(kKeys);
      const auto v = tree_->find(k);
      if (v.has_value() && (*v >> 16) != k) reader_violations.fetch_add(1);
    }
  });

  // Scanner: keys strictly increasing, every value encoding intact.
  threads.emplace_back([&] {
    Xoshiro256 rng(1993);
    while (writers_done.load(std::memory_order_acquire) < kWriters) {
      std::uint64_t prev = 0;
      bool first = true;
      std::size_t seen = 0;
      tree_->scan(rng.next_below(kKeys), [&](std::uint64_t k, std::uint64_t v) {
        if (!first && k <= prev) scan_violations.fetch_add(1);
        if ((v >> 16) != k) scan_violations.fetch_add(1);
        first = false;
        prev = k;
        return ++seen < 256;
      });
    }
  });

  for (auto& t : threads) t.join();
  EXPECT_EQ(reader_violations.load(), 0u);
  EXPECT_EQ(scan_violations.load(), 0u);

  // Quiescent state must equal the union of the writers' disjoint oracles.
  std::map<std::uint64_t, std::uint64_t> merged;
  for (auto& o : oracles) merged.insert(o.begin(), o.end());
  EXPECT_EQ(tree_->size(), merged.size());
  for (const auto& [k, v] : merged)
    ASSERT_EQ(tree_->find(k), std::optional(v)) << k;
  tree_->check_invariants();
  EXPECT_GT(splits.value() - splits0, 0u)
      << "stress run never split a leaf; sizing is wrong";

  // Clean close + recovery: the rebuilt tree (inner nodes, fingerprints)
  // must reproduce the oracle exactly.
  tree_->close();
  tree_.reset();
  pool_->reopen_volatile();
  Tree recovered(Tree::recover_t{}, *pool_,
                 Tree::Options{.dual_slot = GetParam()});
  EXPECT_EQ(recovered.size(), merged.size());
  for (const auto& [k, v] : merged)
    ASSERT_EQ(recovered.find(k), std::optional(v)) << k;
  recovered.check_invariants();
}

TEST_P(RNTreeStressTest, SplitStormWithTrailingReaders) {
  // One writer inserts scrambled fresh keys as fast as possible (every 32nd
  // op lands a leaf split on average); three readers chase keys that were
  // just inserted, maximizing reads that overlap a split of their leaf.
  constexpr std::uint64_t kInserts = 20000;
  std::atomic<std::uint64_t> published{0};
  std::atomic<std::uint64_t> lost_keys{0};

  std::thread writer([&] {
    for (std::uint64_t i = 0; i < kInserts; ++i) {
      const std::uint64_t k = mix64(i);
      ASSERT_TRUE(tree_->insert(k, encode(k & 0xFFFFFFFFFFFFull, i)));
      published.store(i + 1, std::memory_order_release);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(static_cast<std::uint64_t>(r) * 5 + 1);
      for (;;) {
        const std::uint64_t n = published.load(std::memory_order_acquire);
        if (n == 0) continue;
        // A key published before this load must be findable: inserts are
        // never lost across the split that may be moving its leaf.
        const std::uint64_t k = mix64(n - 1 - rng.next_below(std::min<std::uint64_t>(n, 64)));
        if (!tree_->find(k).has_value()) lost_keys.fetch_add(1);
        if (n == kInserts) break;
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(lost_keys.load(), 0u);
  EXPECT_EQ(tree_->size(), kInserts);
  tree_->check_invariants();
}

TEST_P(RNTreeStressTest, PublishStormSplitHeavy) {
  // Publish fallbacks at their most frequent: a seeded 800-permille abort
  // storm on every transaction outside an SMO install, so most publishes
  // fall back and run under their leaf lock alone, while splits rewrite
  // the same slot lines and the SMO installs commit untouched.  Two
  // writers insert disjoint scrambled keyspaces (split-heavy), one writer
  // hammers updates on a settled prefix (publish-heavy), one reader
  // sweeps.  Run under TSan this is the check that the leaf lock alone
  // orders every slot-line writer; under a plain build it is a
  // lost-key/invariant check.
  nvm::PmemPool pool(std::size_t{512} << 20);
  Tree tree(pool, Tree::Options{.dual_slot = GetParam()});
  constexpr std::uint64_t kSettled = 2000;
  for (std::uint64_t i = 0; i < kSettled; ++i)
    ASSERT_TRUE(tree.upsert(mix64(i), encode(mix64(i) & 0xFFFFFFFFFFFFull, 0)));

  htm::RandomAbortInjector storm(/*seed=*/0x5107, /*abort_permille=*/800);
  htm::PublishTargetedInjector publishes_only(storm);
  const std::uint64_t fallbacks0 = htm::htm_counters().fallbacks.value();
  htm::ScopedAbortInjector scope(&publishes_only);

  constexpr std::uint64_t kInsertsPerWriter = 8000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn_reads{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kInsertsPerWriter; ++i) {
        const std::uint64_t k = mix64((w + 1) * 0x100000000ull + i);
        ASSERT_TRUE(tree.insert(k, encode(k & 0xFFFFFFFFFFFFull, i)));
      }
    });
  }
  threads.emplace_back([&] {
    std::uint64_t seq = 1;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t k = mix64(seq % kSettled);
      ASSERT_TRUE(tree.update(k, encode(k & 0xFFFFFFFFFFFFull, seq)));
      ++seq;
    }
  });
  threads.emplace_back([&] {
    Xoshiro256 rng(99);
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t k = mix64(rng.next_below(kSettled));
      const auto v = tree.find(k);
      if (!v.has_value() || (*v >> 16) != (k & 0xFFFFFFFFFFFFull))
        torn_reads.fetch_add(1);
    }
  });
  threads[0].join();
  threads[1].join();
  stop.store(true, std::memory_order_release);
  threads[2].join();
  threads[3].join();

  EXPECT_GT(htm::htm_counters().fallbacks.value(), fallbacks0)
      << "the storm never drove a publish onto its fallback";
  EXPECT_EQ(torn_reads.load(), 0u);
  EXPECT_EQ(tree.size(), kSettled + 2 * kInsertsPerWriter);
  tree.check_invariants();
  for (std::uint64_t i = 0; i < kInsertsPerWriter; ++i) {
    for (int w = 0; w < 2; ++w) {
      const std::uint64_t k = mix64((w + 1) * 0x100000000ull + i);
      ASSERT_TRUE(tree.find(k).has_value()) << "lost key, writer " << w;
    }
  }
}

}  // namespace
}  // namespace rnt::core
