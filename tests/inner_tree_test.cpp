// Tests for the copy-on-write volatile inner tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "epoch/ebr.hpp"
#include "htm/abort_inject.hpp"
#include "htm/smo.hpp"
#include "inner/inner_tree.hpp"
#include "obs/metrics.hpp"

namespace rnt::inner {
namespace {

// A stand-in leaf: just remembers its lower bound for verification.
struct FakeLeaf {
  std::uint64_t low;
};

using Tree = InnerTree<std::uint64_t, FakeLeaf>;

class InnerTreeTest : public ::testing::Test {
 protected:
  epoch::EpochManager epochs;
};

TEST_F(InnerTreeTest, SingleLeafCoversEverything) {
  Tree t(epochs);
  FakeLeaf leaf{0};
  t.init_single(&leaf);
  epoch::Guard g = epochs.pin();
  EXPECT_EQ(t.find_leaf(0), &leaf);
  EXPECT_EQ(t.find_leaf(~0ull), &leaf);
  EXPECT_EQ(t.height(), 1);
}

TEST_F(InnerTreeTest, SplitRoutesKeysBySeparator) {
  Tree t(epochs);
  FakeLeaf a{0}, b{100};
  t.init_single(&a);
  t.insert_split(100, &a, &b);
  epoch::Guard g = epochs.pin();
  EXPECT_EQ(t.find_leaf(0), &a);
  EXPECT_EQ(t.find_leaf(99), &a);
  EXPECT_EQ(t.find_leaf(100), &b);  // separator itself goes right
  EXPECT_EQ(t.find_leaf(5000), &b);
}

TEST_F(InnerTreeTest, ManySequentialSplitsStayCorrect) {
  Tree t(epochs);
  std::vector<std::unique_ptr<FakeLeaf>> leaves;
  leaves.push_back(std::make_unique<FakeLeaf>(FakeLeaf{0}));
  t.init_single(leaves[0].get());
  // Repeatedly split the rightmost leaf: 0,10,20,...
  for (std::uint64_t s = 1; s <= 500; ++s) {
    FakeLeaf* old_leaf = leaves.back().get();
    leaves.push_back(std::make_unique<FakeLeaf>(FakeLeaf{s * 10}));
    t.insert_split(s * 10, old_leaf, leaves.back().get());
  }
  EXPECT_GT(t.height(), 1);
  epoch::Guard g = epochs.pin();
  Xoshiro256 rng(1);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k = rng.next_below(5010);
    FakeLeaf* leaf = t.find_leaf(k);
    ASSERT_NE(leaf, nullptr);
    EXPECT_EQ(leaf->low, k / 10 * 10);
  }
}

TEST_F(InnerTreeTest, RandomOrderSplitsMatchReferenceMap) {
  // Split leaves in random order; verify against a std::map-based oracle of
  // (lower_bound -> leaf).
  Tree t(epochs);
  std::vector<std::unique_ptr<FakeLeaf>> leaves;
  std::map<std::uint64_t, FakeLeaf*> oracle;
  leaves.push_back(std::make_unique<FakeLeaf>(FakeLeaf{0}));
  t.init_single(leaves[0].get());
  oracle[0] = leaves[0].get();

  Xoshiro256 rng(99);
  for (int i = 0; i < 2000; ++i) {
    // Pick a random new separator not yet present.
    std::uint64_t sep = rng.next_below(1u << 20) + 1;
    if (oracle.count(sep) != 0) continue;
    // The leaf currently covering sep:
    auto it = std::prev(oracle.upper_bound(sep));
    FakeLeaf* old_leaf = it->second;
    leaves.push_back(std::make_unique<FakeLeaf>(FakeLeaf{sep}));
    t.insert_split(sep, old_leaf, leaves.back().get());
    oracle[sep] = leaves.back().get();
  }

  epoch::Guard g = epochs.pin();
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t k = rng.next_below(1u << 20);
    auto it = std::prev(oracle.upper_bound(k));
    EXPECT_EQ(t.find_leaf(k), it->second) << "key " << k;
  }
}

TEST_F(InnerTreeTest, BulkLoadMatchesIncremental) {
  std::vector<std::unique_ptr<FakeLeaf>> storage;
  std::vector<FakeLeaf*> leaves;
  std::vector<std::uint64_t> seps;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    storage.push_back(std::make_unique<FakeLeaf>(FakeLeaf{i * 100}));
    leaves.push_back(storage.back().get());
    if (i > 0) seps.push_back(i * 100);
  }
  Tree t(epochs);
  t.bulk_load(leaves, seps);
  epoch::Guard g = epochs.pin();
  Xoshiro256 rng(5);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k = rng.next_below(100000);
    EXPECT_EQ(t.find_leaf(k)->low, k / 100 * 100);
  }
}

TEST_F(InnerTreeTest, BulkLoadSingleLeaf) {
  FakeLeaf only{0};
  Tree t(epochs);
  t.bulk_load({&only}, {});
  epoch::Guard g = epochs.pin();
  EXPECT_EQ(t.find_leaf(12345), &only);
}

TEST_F(InnerTreeTest, ConcurrentReadersDuringSplits) {
  // Readers must always find *a* leaf whose range covers the key, even while
  // the structure is being rewritten.
  Tree t(epochs);
  std::vector<std::unique_ptr<FakeLeaf>> leaves;
  std::mutex leaves_mu;
  leaves.push_back(std::make_unique<FakeLeaf>(FakeLeaf{0}));
  t.init_single(leaves[0].get());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::atomic<std::uint64_t> max_sep{0};

  std::thread writer([&] {
    for (std::uint64_t s = 1; s <= 3000 && !stop; ++s) {
      FakeLeaf* old_leaf;
      {
        std::lock_guard lk(leaves_mu);
        old_leaf = leaves.back().get();
        leaves.push_back(std::make_unique<FakeLeaf>(FakeLeaf{s * 10}));
      }
      t.insert_split(s * 10, old_leaf, leaves.back().get());
      max_sep.store(s * 10, std::memory_order_release);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(static_cast<std::uint64_t>(r) + 7);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t bound = max_sep.load(std::memory_order_acquire) + 10;
        const std::uint64_t k = rng.next_below(bound);
        epoch::Guard g = epochs.pin();
        FakeLeaf* leaf = t.find_leaf(k);
        // The leaf's lower bound must never exceed the key; a lagging
        // snapshot may return a leaf that has since split (low too small),
        // which the owning tree resolves via the leaf chain — that is fine.
        if (leaf == nullptr || leaf->low > k) bad.fetch_add(1);
      }
    });
  }
  writer.join();
  stop = true;
  for (auto& th : readers) th.join();
  EXPECT_EQ(bad.load(), 0u);
}

// --- COW installs ----------------------------------------------------------

std::uint64_t smo_counter(const char* name) {
  return obs::snapshot().counter(name);
}

TEST_F(InnerTreeTest, CowInstallTakesFastPath) {
  const std::uint64_t installs0 = smo_counter("htm.smo.installs");
  const std::uint64_t roots0 = smo_counter("htm.smo.root_installs");

  Tree t(epochs);
  FakeLeaf a{0}, b{100}, c{200};
  t.init_single(&a);
  epoch::Guard g = epochs.pin();
  t.insert_split(100, &a, &b);   // root is the level-0 parent: root install
  t.insert_split(200, &b, &c);
  EXPECT_EQ(t.find_leaf(0), &a);
  EXPECT_EQ(t.find_leaf(150), &b);
  EXPECT_EQ(t.find_leaf(250), &c);

  EXPECT_EQ(smo_counter("htm.smo.installs") - installs0, 2u);
  EXPECT_EQ(smo_counter("htm.smo.root_installs") - roots0, 2u);
}

// A split whose parent is full propagates: the parent copy splits and a new
// root is built over both halves — still one install swapping root_.
TEST_F(InnerTreeTest, ParentOverflowFallsBackToSerializedPath) {
  const std::uint64_t installs0 = smo_counter("htm.smo.installs");
  const std::uint64_t roots0 = smo_counter("htm.smo.root_installs");

  Tree t(epochs);
  std::vector<std::unique_ptr<FakeLeaf>> leaves;
  leaves.push_back(std::make_unique<FakeLeaf>(FakeLeaf{0}));
  t.init_single(leaves[0].get());
  epoch::Guard g = epochs.pin();
  // kFanout separators fill the root; the next split must propagate.
  for (std::uint64_t s = 1; s <= Tree::kFanout + 1; ++s) {
    FakeLeaf* old_leaf = leaves.back().get();
    leaves.push_back(std::make_unique<FakeLeaf>(FakeLeaf{s * 10}));
    t.insert_split(s * 10, old_leaf, leaves.back().get());
  }
  EXPECT_EQ(t.height(), 2);
  for (std::uint64_t k = 0; k <= (Tree::kFanout + 1) * 10; ++k)
    EXPECT_EQ(t.find_leaf(k)->low, k / 10 * 10) << "key " << k;

  EXPECT_EQ(smo_counter("htm.smo.installs") - installs0, Tree::kFanout + 1u);
  EXPECT_GE(smo_counter("htm.smo.root_installs") - roots0, 1u);
}

// A random split history, with splits propagating through every level,
// must route exactly like the std::map oracle.
TEST_F(InnerTreeTest, CowAndLegacyModesRouteIdentically) {
  Tree t(epochs);
  std::vector<std::unique_ptr<FakeLeaf>> leaves;
  std::map<std::uint64_t, FakeLeaf*> oracle;
  leaves.push_back(std::make_unique<FakeLeaf>(FakeLeaf{0}));
  t.init_single(leaves[0].get());
  oracle[0] = leaves[0].get();

  Xoshiro256 rng(7);
  for (int i = 0; i < 1500; ++i) {
    std::uint64_t sep = rng.next_below(1u << 18) + 1;
    if (oracle.count(sep) != 0) continue;
    auto it = std::prev(oracle.upper_bound(sep));
    leaves.push_back(std::make_unique<FakeLeaf>(FakeLeaf{sep}));
    t.insert_split(sep, it->second, leaves.back().get());
    oracle[sep] = leaves.back().get();
  }
  EXPECT_GE(t.height(), 3);
  epoch::Guard g = epochs.pin();
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t k = rng.next_below(1u << 18);
    auto it = std::prev(oracle.upper_bound(k));
    ASSERT_EQ(t.find_leaf(k), it->second) << "key " << k;
  }
}

// A leaf can split again before its own split's install lands (the owning
// tree reaches the new half through the leaf chain).  The second split cannot
// validate until the first one links its leaf, so it must wait — including
// in the round that holds the SMO lock — rather than deadlock or misroute.
TEST_F(InnerTreeTest, SplitOfUnlinkedLeafWaitsForItsOwnInstall) {
  const std::uint64_t retry0 = smo_counter("htm.smo.retry_fallbacks");
  Tree t(epochs);
  FakeLeaf a{0}, b{100}, c{200};
  t.init_single(&a);
  std::atomic<bool> done{false};
  std::thread early([&] {
    epoch::Guard g = epochs.pin();
    t.insert_split(200, &b, &c);  // b is not linked yet
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done.load());
  {
    epoch::Guard g = epochs.pin();
    t.insert_split(100, &a, &b);
  }
  early.join();
  epoch::Guard g = epochs.pin();
  EXPECT_EQ(t.find_leaf(50), &a);
  EXPECT_EQ(t.find_leaf(150), &b);
  EXPECT_EQ(t.find_leaf(250), &c);
  EXPECT_GE(smo_counter("htm.smo.retry_fallbacks") - retry0, 1u);
}

// Propagating splits race sibling installs in the ancestors they copy.  Each
// trial bulk-loads one level-1 root over kWriters full level-0 nodes; writer
// w splits the first leaf of node w at descending separators, so every split
// lands in the same (always linked) slot and roughly one in nine overflows
// its level-0 node, cloning the root while the other writers keep
// re-pointing its slots (the root itself overflows late in each trial).  An
// install that validated only its recorded path would swap in a root copy
// missing a sibling's install and lose that split.
TEST_F(InnerTreeTest, ConcurrentPropagatingSplitsKeepSiblingInstalls) {
  constexpr int kWriters = 4;
  constexpr int kTrials = 200;
  constexpr std::uint64_t kSplitsPer = 48;
  constexpr std::uint64_t kLeafSpan = std::uint64_t{1} << 32;
  constexpr std::uint64_t kStep = kLeafSpan / (kSplitsPer + 1);
  constexpr int kPerNode = Tree::kFanout + 1;  // bulk_load packs nodes full

  std::uint64_t misrouted = 0;
  int grown = 0;  // trials whose root split as well
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<std::unique_ptr<FakeLeaf>> storage;
    std::vector<FakeLeaf*> base;
    std::vector<std::uint64_t> seps;
    for (int i = 0; i < kWriters * kPerNode; ++i) {
      storage.push_back(std::make_unique<FakeLeaf>(FakeLeaf{i * kLeafSpan}));
      base.push_back(storage.back().get());
      if (i > 0) seps.push_back(i * kLeafSpan);
    }
    Tree t(epochs);
    t.bulk_load(base, seps);
    ASSERT_EQ(t.height(), 2);

    std::vector<std::vector<std::unique_ptr<FakeLeaf>>> owned(kWriters);
    std::atomic<int> ready{0};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        FakeLeaf* old_leaf = base[static_cast<std::size_t>(w * kPerNode)];
        for (std::uint64_t s = kSplitsPer; s >= 1; --s)
          owned[w].push_back(
              std::make_unique<FakeLeaf>(FakeLeaf{old_leaf->low + s * kStep}));
        ready.fetch_add(1);
        while (ready.load() < kWriters) std::this_thread::yield();
        for (const auto& l : owned[w]) {
          epoch::Guard g = epochs.pin();
          t.insert_split(l->low, old_leaf, l.get());
        }
      });
    }
    for (auto& th : writers) th.join();
    if (t.height() > 2) ++grown;

    std::map<std::uint64_t, FakeLeaf*> oracle;
    for (FakeLeaf* l : base) oracle[l->low] = l;
    for (const auto& v : owned)
      for (const auto& l : v) oracle[l->low] = l.get();
    epoch::Guard g = epochs.pin();
    for (auto it = oracle.begin(); it != oracle.end(); ++it) {
      const auto next = std::next(it);
      const std::uint64_t hi = next == oracle.end() ? ~0ull : next->first - 1;
      if (t.find_leaf(it->first) != it->second) ++misrouted;
      if (t.find_leaf(hi) != it->second) ++misrouted;
    }
  }
  EXPECT_EQ(misrouted, 0u);
  EXPECT_GT(grown, 0);
}

// Scripted aborts drive the install transaction through the retry machine's
// conflict/spurious/capacity arms; the install must still commit (under the
// fallback tiers) and routing must stay correct.
TEST_F(InnerTreeTest, ScriptedAbortsDoNotDerailInstalls) {
  using htm::AbortCause;
  const std::uint64_t installs0 = smo_counter("htm.smo.installs");

  htm::ScriptedAbortInjector inj({AbortCause::kConflict, AbortCause::kSpurious,
                                  AbortCause::kLockSubscription});
  htm::ScopedAbortInjector scope(&inj);

  Tree t(epochs);
  std::vector<std::unique_ptr<FakeLeaf>> leaves;
  leaves.push_back(std::make_unique<FakeLeaf>(FakeLeaf{0}));
  t.init_single(leaves[0].get());
  epoch::Guard g = epochs.pin();
  for (std::uint64_t s = 1; s <= 200; ++s) {
    FakeLeaf* old_leaf = leaves.back().get();
    leaves.push_back(std::make_unique<FakeLeaf>(FakeLeaf{s * 10}));
    t.insert_split(s * 10, old_leaf, leaves.back().get());
  }
  EXPECT_GT(inj.injected(), 0u);
  EXPECT_GT(smo_counter("htm.smo.installs") - installs0, 0u);
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t k = rng.next_below(2010);
    EXPECT_EQ(t.find_leaf(k)->low, k / 10 * 10);
  }
}

}  // namespace
}  // namespace rnt::inner
