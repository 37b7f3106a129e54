// Single-threaded functional tests for RNTree: basic operations, conditional
// write semantics, splits/compaction, range queries, persist counts (the
// paper's Table 1 claim of 2 persistent instructions per modify), recovery.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "common/rng.hpp"
#include "core/rntree.hpp"
#include "nvm/pool.hpp"

namespace rnt::core {
namespace {

using Tree = RNTree<std::uint64_t, std::uint64_t>;

class RNTreeTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    saved_ = nvm::config();
    nvm::config().write_latency_ns = 0;
    nvm::config().per_line_ns = 0;
    pool_ = std::make_unique<nvm::PmemPool>(std::size_t{256} << 20);
    tree_ = std::make_unique<Tree>(*pool_, Tree::Options{.dual_slot = GetParam()});
  }
  void TearDown() override { nvm::config() = saved_; }

  nvm::NvmConfig saved_;
  std::unique_ptr<nvm::PmemPool> pool_;
  std::unique_ptr<Tree> tree_;
};

INSTANTIATE_TEST_SUITE_P(SlotModes, RNTreeTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "DualSlot" : "SingleSlot";
                         });

TEST_P(RNTreeTest, EmptyTreeFindsNothing) {
  EXPECT_FALSE(tree_->find(42).has_value());
  EXPECT_EQ(tree_->size(), 0u);
}

TEST_P(RNTreeTest, InsertThenFind) {
  EXPECT_TRUE(tree_->insert(1, 100));
  EXPECT_TRUE(tree_->insert(2, 200));
  EXPECT_EQ(tree_->find(1), std::optional<std::uint64_t>(100));
  EXPECT_EQ(tree_->find(2), std::optional<std::uint64_t>(200));
  EXPECT_FALSE(tree_->find(3).has_value());
  EXPECT_EQ(tree_->size(), 2u);
}

TEST_P(RNTreeTest, ConditionalInsertFailsOnDuplicate) {
  EXPECT_TRUE(tree_->insert(7, 1));
  EXPECT_FALSE(tree_->insert(7, 2));
  EXPECT_EQ(tree_->find(7), std::optional<std::uint64_t>(1));
  EXPECT_EQ(tree_->size(), 1u);
}

TEST_P(RNTreeTest, ConditionalUpdateFailsOnMissing) {
  EXPECT_FALSE(tree_->update(9, 1));
  EXPECT_TRUE(tree_->insert(9, 1));
  EXPECT_TRUE(tree_->update(9, 2));
  EXPECT_EQ(tree_->find(9), std::optional<std::uint64_t>(2));
}

TEST_P(RNTreeTest, UpsertInsertsOrUpdates) {
  tree_->upsert(4, 40);
  EXPECT_EQ(tree_->find(4), std::optional<std::uint64_t>(40));
  tree_->upsert(4, 44);
  EXPECT_EQ(tree_->find(4), std::optional<std::uint64_t>(44));
  EXPECT_EQ(tree_->size(), 1u);
}

TEST_P(RNTreeTest, RemoveSemantics) {
  EXPECT_FALSE(tree_->remove(5));
  EXPECT_TRUE(tree_->insert(5, 50));
  EXPECT_TRUE(tree_->remove(5));
  EXPECT_FALSE(tree_->find(5).has_value());
  EXPECT_FALSE(tree_->remove(5));
  EXPECT_EQ(tree_->size(), 0u);
}

TEST_P(RNTreeTest, InsertManySplitsLeaves) {
  constexpr std::uint64_t kN = 10000;
  const obs::Counter splits("tree.leaf_splits");
  const std::uint64_t splits0 = splits.value();
  for (std::uint64_t i = 0; i < kN; ++i) ASSERT_TRUE(tree_->insert(i, i * 2));
  EXPECT_GT(splits.value() - splits0, 100u);
  EXPECT_GT(tree_->leaf_count(), 100u);
  EXPECT_GT(tree_->height(), 1);
  for (std::uint64_t i = 0; i < kN; ++i)
    ASSERT_EQ(tree_->find(i), std::optional<std::uint64_t>(i * 2)) << i;
  EXPECT_EQ(tree_->size(), kN);
  tree_->check_invariants();
}

TEST_P(RNTreeTest, ReverseOrderInserts) {
  constexpr std::uint64_t kN = 5000;
  for (std::uint64_t i = kN; i > 0; --i) ASSERT_TRUE(tree_->insert(i, i));
  for (std::uint64_t i = 1; i <= kN; ++i)
    ASSERT_EQ(tree_->find(i), std::optional<std::uint64_t>(i));
  tree_->check_invariants();
}

TEST_P(RNTreeTest, UpdateHeavyWorkloadTriggersCompaction) {
  // Repeated updates of the same small key set consume log entries without
  // growing the live set: the shrink-split (in-place compaction) must kick
  // in and keep all data intact.
  const obs::Counter shrinks("tree.shrink_splits");
  const std::uint64_t shrinks0 = shrinks.value();
  for (std::uint64_t i = 0; i < 20; ++i) ASSERT_TRUE(tree_->insert(i, 0));
  for (std::uint64_t round = 1; round <= 300; ++round)
    for (std::uint64_t i = 0; i < 20; ++i) ASSERT_TRUE(tree_->update(i, round));
  EXPECT_GT(shrinks.value() - shrinks0, 0u);
  for (std::uint64_t i = 0; i < 20; ++i)
    ASSERT_EQ(tree_->find(i), std::optional<std::uint64_t>(300));
  tree_->check_invariants();
}

TEST_P(RNTreeTest, RandomizedAgainstStdMap) {
  std::map<std::uint64_t, std::uint64_t> oracle;
  Xoshiro256 rng(2026);
  for (int i = 0; i < 60000; ++i) {
    const std::uint64_t k = rng.next_below(2000);
    const std::uint64_t v = rng.next();
    switch (rng.next_below(4)) {
      case 0: {
        const bool ok = tree_->insert(k, v);
        const bool expect = oracle.emplace(k, v).second;
        ASSERT_EQ(ok, expect) << "insert " << k;
        break;
      }
      case 1: {
        const bool ok = tree_->update(k, v);
        auto it = oracle.find(k);
        ASSERT_EQ(ok, it != oracle.end()) << "update " << k;
        if (it != oracle.end()) it->second = v;
        break;
      }
      case 2: {
        const bool ok = tree_->remove(k);
        ASSERT_EQ(ok, oracle.erase(k) > 0) << "remove " << k;
        break;
      }
      default: {
        auto res = tree_->find(k);
        auto it = oracle.find(k);
        ASSERT_EQ(res.has_value(), it != oracle.end()) << "find " << k;
        if (res) {
          ASSERT_EQ(*res, it->second) << "find " << k;
        }
      }
    }
  }
  EXPECT_EQ(tree_->size(), oracle.size());
  tree_->check_invariants();
  // Full sweep.
  for (auto& [k, v] : oracle) ASSERT_EQ(tree_->find(k), std::optional(v));
}

TEST_P(RNTreeTest, ScanReturnsSortedRange) {
  for (std::uint64_t i = 0; i < 1000; ++i)
    ASSERT_TRUE(tree_->insert(i * 3, i));  // keys 0,3,6,...
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  tree_->scan_n(100, 50, out);
  ASSERT_EQ(out.size(), 50u);
  EXPECT_EQ(out[0].first, 102u);  // first key >= 100
  for (std::size_t i = 1; i < out.size(); ++i)
    EXPECT_LT(out[i - 1].first, out[i].first);
}

TEST_P(RNTreeTest, ScanWithFilterStopsEarly) {
  for (std::uint64_t i = 0; i < 1000; ++i) ASSERT_TRUE(tree_->insert(i, i));
  std::uint64_t sum = 0;
  const std::size_t visited = tree_->scan(10, [&](std::uint64_t k, std::uint64_t) {
    sum += k;
    return k < 19;  // stop after visiting key 19
  });
  EXPECT_EQ(visited, 10u);
  EXPECT_EQ(sum, (10 + 19) * 10 / 2);
}

TEST_P(RNTreeTest, ScanAcrossManyLeaves) {
  constexpr std::uint64_t kN = 20000;
  for (std::uint64_t i = 0; i < kN; ++i) ASSERT_TRUE(tree_->insert(i, i + 1));
  std::uint64_t count = 0, prev = 0;
  bool first = true;
  tree_->scan(0, [&](std::uint64_t k, std::uint64_t v) {
    EXPECT_EQ(v, k + 1);
    if (!first) {
      EXPECT_EQ(k, prev + 1);
    }
    first = false;
    prev = k;
    ++count;
    return true;
  });
  EXPECT_EQ(count, kN);
}

TEST_P(RNTreeTest, ScanEmptyRange) {
  for (std::uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(tree_->insert(i, i));
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  EXPECT_EQ(tree_->scan_n(1000, 10, out), 0u);
}

TEST_P(RNTreeTest, TwoPersistentInstructionsPerInsert) {
  // Table 1: RNTree needs exactly 2 persistent instructions per modify —
  // one for the KV entry, one for the slot array (amortised split persists
  // excluded, so measure on a half-filled fresh leaf).
  for (std::uint64_t i = 0; i < 10; ++i) ASSERT_TRUE(tree_->insert(i * 2, i));
  const obs::Counter& persists = nvm::persist_counters().persist;
  const std::uint64_t before = persists.local();
  ASSERT_TRUE(tree_->insert(1, 1));
  EXPECT_EQ(persists.local() - before, 2u);

  const std::uint64_t before2 = persists.local();
  ASSERT_TRUE(tree_->update(1, 2));
  EXPECT_EQ(persists.local() - before2, 2u);

  // Remove touches only the slot array: 1 persistent instruction.
  const std::uint64_t before3 = persists.local();
  ASSERT_TRUE(tree_->remove(1));
  EXPECT_EQ(persists.local() - before3, 1u);

  // Find performs none.
  const std::uint64_t before4 = persists.local();
  (void)tree_->find(4);
  EXPECT_EQ(persists.local() - before4, 0u);
}

TEST_P(RNTreeTest, RecoveryAfterCleanShutdown) {
  constexpr std::uint64_t kN = 5000;
  for (std::uint64_t i = 0; i < kN; ++i) ASSERT_TRUE(tree_->insert(i, i * 7));
  tree_->close();
  tree_.reset();
  pool_->reopen_volatile();
  ASSERT_TRUE(pool_->clean_shutdown());

  Tree recovered(Tree::recover_t{}, *pool_, Tree::Options{.dual_slot = GetParam()});
  EXPECT_EQ(recovered.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i)
    ASSERT_EQ(recovered.find(i), std::optional<std::uint64_t>(i * 7)) << i;
  recovered.check_invariants();
  // The recovered tree keeps working.
  ASSERT_TRUE(recovered.insert(kN + 1, 1));
  ASSERT_TRUE(recovered.remove(0));
}

TEST_P(RNTreeTest, RecoveryWithoutCleanShutdownScansSlots) {
  constexpr std::uint64_t kN = 3000;
  for (std::uint64_t i = 0; i < kN; ++i) ASSERT_TRUE(tree_->insert(i, i));
  // Simulate a crash where all data happens to be durable (no shadow): the
  // pool is dirty, so the crash-recovery path (slot scans) must run.
  tree_.reset();
  pool_->reopen_volatile();
  ASSERT_FALSE(pool_->clean_shutdown());
  Tree recovered(Tree::recover_t{}, *pool_, Tree::Options{.dual_slot = GetParam()});
  EXPECT_EQ(recovered.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i)
    ASSERT_EQ(recovered.find(i), std::optional<std::uint64_t>(i)) << i;
  // Updates after crash recovery must not corrupt (nlogs was recomputed).
  for (std::uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(recovered.update(i, 99));
  recovered.check_invariants();
}

TEST_P(RNTreeTest, StatsCountSplits) {
  const obs::Counter splits("tree.leaf_splits");
  const std::uint64_t splits0 = splits.value();
  for (std::uint64_t i = 0; i < 200; ++i) ASSERT_TRUE(tree_->insert(i, i));
  EXPECT_GT(splits.value() - splits0, 0u);
}

TEST_P(RNTreeTest, MinAndMaxKeys) {
  EXPECT_TRUE(tree_->insert(0, 1));
  EXPECT_TRUE(tree_->insert(~0ull - 1, 2));
  EXPECT_EQ(tree_->find(0), std::optional<std::uint64_t>(1));
  EXPECT_EQ(tree_->find(~0ull - 1), std::optional<std::uint64_t>(2));
}

}  // namespace
}  // namespace rnt::core
