// Multi-threaded tests for RNTree: linearizability smoke tests for
// writer-writer and reader-writer coordination (paper S5.3), split safety
// under contention, and the no-read-uncommitted guarantee.
//
// This host may have a single core; the tests still exercise every
// interleaving the preemptive scheduler produces and are sized to finish
// quickly.  On multicore machines they run with true parallelism.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/rntree.hpp"
#include "nvm/pool.hpp"

namespace rnt::core {
namespace {

using Tree = RNTree<std::uint64_t, std::uint64_t>;

class RNTreeConcurrentTest : public ::testing::TestWithParam<bool> {
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

INSTANTIATE_TEST_SUITE_P(SlotModes, RNTreeConcurrentTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "DualSlot" : "SingleSlot";
                         });

TEST_P(RNTreeConcurrentTest, DisjointInsertersAllSucceed) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 4000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t k = static_cast<std::uint64_t>(t) * kPerThread + i;
        ASSERT_TRUE(tree_->insert(k, k + 1));
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(tree_->size(), kThreads * kPerThread);
  for (std::uint64_t k = 0; k < kThreads * kPerThread; ++k)
    ASSERT_EQ(tree_->find(k), std::optional<std::uint64_t>(k + 1)) << k;
  tree_->check_invariants();
}

TEST_P(RNTreeConcurrentTest, ConditionalInsertExactlyOneWinner) {
  // All threads race to insert the same keys; for each key exactly one
  // insert may succeed (writer-writer linearization at the leaf lock).
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 2000;
  std::atomic<std::uint64_t> successes{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (std::uint64_t k = 0; k < kKeys; ++k)
        if (tree_->insert(k, static_cast<std::uint64_t>(t)))
          successes.fetch_add(1);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(successes.load(), kKeys);
  EXPECT_EQ(tree_->size(), kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    auto v = tree_->find(k);
    ASSERT_TRUE(v.has_value());
    ASSERT_LT(*v, static_cast<std::uint64_t>(kThreads));
  }
}

TEST_P(RNTreeConcurrentTest, ReadersSeeOnlyCompleteValues) {
  // Writers update keys with values that encode (key, round); readers must
  // only ever observe values consistent with some completed update —
  // never a torn or half-applied one.
  constexpr std::uint64_t kKeys = 64;
  for (std::uint64_t k = 0; k < kKeys; ++k)
    ASSERT_TRUE(tree_->insert(k, k << 32));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::thread writer([&] {
    std::uint64_t round = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::uint64_t k = 0; k < kKeys; ++k)
        ASSERT_TRUE(tree_->update(k, (k << 32) | round));
      ++round;
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(static_cast<std::uint64_t>(r) + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t k = rng.next_below(kKeys);
        auto v = tree_->find(k);
        if (!v.has_value() || (*v >> 32) != k) violations.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop = true;
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0u);
}

TEST_P(RNTreeConcurrentTest, MonotonicValuesNeverGoBackwards) {
  // A single-key monotone counter: each writer CAS-style bumps via
  // update(find()+1) under external synchronisation replaced here by
  // last-writer-wins; readers must observe a non-decreasing sequence
  // (linearizability of find against update on one key).
  ASSERT_TRUE(tree_->insert(1, 0));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> regressions{0};
  std::thread writer([&] {
    for (std::uint64_t v = 1; !stop.load(std::memory_order_relaxed); ++v)
      ASSERT_TRUE(tree_->update(1, v));
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto v = tree_->find(1);
        if (!v.has_value() || *v < last)
          regressions.fetch_add(1);
        else
          last = *v;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop = true;
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(regressions.load(), 0u);
}

TEST_P(RNTreeConcurrentTest, MixedWorkloadAgainstShardedOracle) {
  // Each thread owns a disjoint key shard and mirrors its operations into a
  // private oracle; afterwards the tree must agree with the union.
  constexpr int kThreads = 6;
  constexpr std::uint64_t kShard = 1000;
  std::vector<std::map<std::uint64_t, std::uint64_t>> oracles(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      auto& oracle = oracles[t];
      Xoshiro256 rng(static_cast<std::uint64_t>(t) * 31 + 5);
      const std::uint64_t base = static_cast<std::uint64_t>(t) * kShard;
      for (int i = 0; i < 20000; ++i) {
        const std::uint64_t k = base + rng.next_below(kShard);
        const std::uint64_t v = rng.next();
        switch (rng.next_below(4)) {
          case 0:
            ASSERT_EQ(tree_->insert(k, v), oracle.emplace(k, v).second);
            break;
          case 1: {
            auto it = oracle.find(k);
            ASSERT_EQ(tree_->update(k, v), it != oracle.end());
            if (it != oracle.end()) it->second = v;
            break;
          }
          case 2:
            ASSERT_EQ(tree_->remove(k), oracle.erase(k) > 0);
            break;
          default: {
            auto res = tree_->find(k);
            auto it = oracle.find(k);
            ASSERT_EQ(res.has_value(), it != oracle.end());
            if (res) {
              ASSERT_EQ(*res, it->second);
            }
          }
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  std::size_t total = 0;
  for (int t = 0; t < kThreads; ++t) {
    total += oracles[t].size();
    for (auto& [k, v] : oracles[t])
      ASSERT_EQ(tree_->find(k), std::optional(v)) << k;
  }
  EXPECT_EQ(tree_->size(), total);
  tree_->check_invariants();
}

TEST_P(RNTreeConcurrentTest, ScansDuringInsertsSeeSortedConsistentLeaves) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::thread writer([&] {
    for (std::uint64_t i = 0; i < 30000 && !stop; ++i)
      tree_->upsert(mix64(i) % 1000000, i);  // duplicates possible
  });
  std::vector<std::thread> scanners;
  for (int r = 0; r < 2; ++r) {
    scanners.emplace_back([&, r] {
      Xoshiro256 rng(static_cast<std::uint64_t>(r) + 3);
      while (!stop.load(std::memory_order_relaxed)) {
        std::uint64_t prev = 0;
        bool first = true;
        tree_->scan(rng.next_below(1000000), [&](std::uint64_t k, std::uint64_t) {
          if (!first && k <= prev) violations.fetch_add(1);
          first = false;
          prev = k;
          return (k - prev) < 100000;  // bounded scan
        });
      }
    });
  }
  writer.join();
  stop = true;
  for (auto& t : scanners) t.join();
  EXPECT_EQ(violations.load(), 0u);
  tree_->check_invariants();
}

TEST_P(RNTreeConcurrentTest, HotLeafContention) {
  // All threads hammer a tiny key range (one or two leaves): maximal lock
  // and split contention, exercising the writer-quiesce barrier.
  constexpr int kThreads = 8;
  const obs::Counter shrinks("tree.shrink_splits");
  const std::uint64_t shrinks0 = shrinks.value();
  std::vector<std::thread> ts;
  std::atomic<std::uint64_t> ops{0};
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      Xoshiro256 rng(static_cast<std::uint64_t>(t) + 11);
      for (int i = 0; i < 10000; ++i) {
        const std::uint64_t k = rng.next_below(16);
        tree_->upsert(k, rng.next());
        ops.fetch_add(1);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(ops.load(), 8u * 10000);
  EXPECT_EQ(tree_->size(), 16u);
  for (std::uint64_t k = 0; k < 16; ++k)
    ASSERT_TRUE(tree_->find(k).has_value());
  tree_->check_invariants();
  EXPECT_GT(shrinks.value() - shrinks0, 0u);
}

TEST_P(RNTreeConcurrentTest, ReclaimedEntriesNeverReachAReader) {
  // Two writers update the 8 keys of one leaf, so its log fills every 56
  // updates and the shrink split frees the unreferenced indices for reuse.
  // Two readers look the keys up throughout: a reader snapshot that still
  // names a freed index must fail validation (the reclaim bumps the
  // version) rather than return another key's value from the reused entry.
  constexpr std::uint64_t kKeys = 8;
  constexpr int kUpdatesPerWriter = 40000;
  for (std::uint64_t k = 0; k < kKeys; ++k) ASSERT_TRUE(tree_->insert(k, k << 32));
  ASSERT_EQ(tree_->leaf_count(), 1u);
  const obs::Counter shrinks("tree.shrink_splits");
  const std::uint64_t shrinks0 = shrinks.value();

  std::atomic<int> writers_left{2};
  std::atomic<std::uint64_t> failed_updates{0};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> ts;
  for (int w = 0; w < 2; ++w) {
    ts.emplace_back([&, w] {
      Xoshiro256 rng(static_cast<std::uint64_t>(w) + 21);
      for (int i = 1; i <= kUpdatesPerWriter; ++i) {
        const std::uint64_t k = rng.next_below(kKeys);
        if (!tree_->update(k, (k << 32) | static_cast<std::uint64_t>(i)))
          failed_updates.fetch_add(1);
      }
      writers_left.fetch_sub(1);
    });
  }
  for (int r = 0; r < 2; ++r) {
    ts.emplace_back([&, r] {
      Xoshiro256 rng(static_cast<std::uint64_t>(r) + 31);
      while (writers_left.load(std::memory_order_relaxed) > 0) {
        const std::uint64_t k = rng.next_below(kKeys);
        auto v = tree_->find(k);
        if (!v.has_value() || (*v >> 32) != k) violations.fetch_add(1);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(failed_updates.load(), 0u);
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GE(shrinks.value() - shrinks0, 1000u);
  EXPECT_EQ(tree_->leaf_count(), 1u);
  EXPECT_EQ(tree_->size(), kKeys);
  tree_->check_invariants();
}

TEST_P(RNTreeConcurrentTest, RecoveryAfterConcurrentRun) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 3000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        ASSERT_TRUE(
            tree_->insert(static_cast<std::uint64_t>(t) * kPerThread + i, i));
    });
  }
  for (auto& t : ts) t.join();
  tree_->close();
  tree_.reset();
  pool_->reopen_volatile();
  Tree recovered(Tree::recover_t{}, *pool_, Tree::Options{.dual_slot = GetParam()});
  EXPECT_EQ(recovered.size(), kThreads * kPerThread);
  recovered.check_invariants();
}

}  // namespace
}  // namespace rnt::core
