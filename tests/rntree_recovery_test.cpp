// Structured recovery (core/rntree.hpp): the non-throwing recover_checked
// surface must classify each corruption shape as Status kCorrupted with a
// distinguishing detail string, and the parallel per-leaf rebuild must be
// byte-equivalent to the serial one on both the clean and the crash path.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "core/rntree.hpp"
#include "nvm/pool.hpp"

namespace rnt {
namespace {

using Tree = core::RNTree<std::uint64_t, std::uint64_t>;

constexpr std::uint64_t kKeys = 20'000;

std::uint64_t key_of(std::uint64_t i) { return mix64(i); }

void build_and_close(nvm::PmemPool& pool) {
  Tree tree(pool, Tree::Options{});
  for (std::uint64_t i = 0; i < kKeys; ++i)
    ASSERT_TRUE(tree.upsert(key_of(i), i).ok());
  tree.close();
}

void expect_all_keys(Tree& tree) {
  tree.check_invariants();
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    auto v = tree.find(key_of(i));
    ASSERT_TRUE(v.has_value()) << "lost key " << i;
    EXPECT_EQ(*v, i);
  }
}

TEST(RntreeRecoveryTest, CheckedRecoverySucceedsOnCleanPool) {
  nvm::PmemPool pool(256 << 20);
  build_and_close(pool);
  common::Status st;
  auto tree = Tree::recover_checked(pool, st);
  ASSERT_TRUE(st.ok()) << st.message();
  ASSERT_NE(tree, nullptr);
  EXPECT_STREQ(tree->recovery_detail(), "");
  expect_all_keys(*tree);
}

TEST(RntreeRecoveryTest, NoReachableLeavesIsCorrupted) {
  nvm::PmemPool pool(256 << 20);
  build_and_close(pool);
  pool.set_root(0, 0);  // sever the root slot: nothing reachable
  common::Status st;
  auto tree = Tree::recover_checked(pool, st);
  EXPECT_EQ(tree, nullptr);
  ASSERT_TRUE(st.corrupted()) << st.message();
}

TEST(RntreeRecoveryTest, BrokenHighKeyChainIsCorrupted) {
  nvm::PmemPool pool(256 << 20);
  build_and_close(pool);
  // The first leaf of a multi-leaf tree must carry a high key; clearing it
  // breaks the separator chain the merge validates.
  auto* leaf = pool.ptr<core::RnLeaf<std::uint64_t, std::uint64_t>>(
      pool.root(0));
  ASSERT_NE(leaf, nullptr);
  ASSERT_NE(leaf->next.load(), 0u) << "tree too small to have split";
  leaf->has_high.store(0);
  common::Status st;
  auto tree = Tree::recover_checked(pool, st);
  EXPECT_EQ(tree, nullptr);
  ASSERT_TRUE(st.corrupted());
}

TEST(RntreeRecoveryTest, TornSlotMetadataIsCorrupted) {
  nvm::PmemPool pool(256 << 20);
  build_and_close(pool);
  auto* leaf = pool.ptr<core::RnLeaf<std::uint64_t, std::uint64_t>>(
      pool.root(0));
  ASSERT_NE(leaf, nullptr);
  leaf->pslot[0] = 255;  // live count far beyond the slot capacity
  common::Status st;
  auto tree = Tree::recover_checked(pool, st);
  EXPECT_EQ(tree, nullptr);
  ASSERT_TRUE(st.corrupted());
}

TEST(RntreeRecoveryTest, CorruptionShapesHaveDistinctDetails) {
  // Run the three shapes through the throwing ctor path too: the recover_t
  // ctor throws with the detail string embedded, and each shape reads
  // differently (tooling and humans can tell them apart).
  std::vector<std::string> details;
  for (int shape = 0; shape < 3; ++shape) {
    nvm::PmemPool pool(256 << 20);
    build_and_close(pool);
    auto* leaf = pool.ptr<core::RnLeaf<std::uint64_t, std::uint64_t>>(
        pool.root(0));
    ASSERT_NE(leaf, nullptr);
    if (shape == 0) pool.set_root(0, 0);
    if (shape == 1) leaf->has_high.store(0);
    if (shape == 2) leaf->pslot[1] = 255;  // slot index beyond the log cap
    try {
      Tree tree(Tree::recover_t{}, pool, Tree::Options{});
      FAIL() << "corrupted pool recovered without error, shape " << shape;
    } catch (const std::runtime_error& e) {
      details.emplace_back(e.what());
    }
  }
  ASSERT_EQ(details.size(), 3u);
  EXPECT_NE(details[0], details[1]);
  EXPECT_NE(details[1], details[2]);
  EXPECT_NE(details[0], details[2]);
}

TEST(RntreeRecoveryTest, ParallelRecoveryMatchesSerialCleanPath) {
  nvm::PmemPool pool(256 << 20);
  build_and_close(pool);
  {
    Tree::Options opt;
    opt.recovery_workers = 1;
    common::Status st;
    auto serial = Tree::recover_checked(pool, st, opt);
    ASSERT_TRUE(st.ok());
    ASSERT_NE(serial, nullptr);
    expect_all_keys(*serial);
    EXPECT_EQ(serial->size(), kKeys);
    serial->close();
  }
  {
    Tree::Options opt;
    opt.recovery_workers = 4;
    const std::uint64_t par0 =
        core::detail::recovery_counters().parallel_runs.value();
    common::Status st;
    auto parallel = Tree::recover_checked(pool, st, opt);
    ASSERT_TRUE(st.ok());
    ASSERT_NE(parallel, nullptr);
    EXPECT_GT(core::detail::recovery_counters().parallel_runs.value(), par0)
        << "explicit recovery_workers=4 did not take the parallel path";
    expect_all_keys(*parallel);
    EXPECT_EQ(parallel->size(), kKeys);
  }
}

TEST(RntreeRecoveryTest, ParallelRecoveryMatchesSerialCrashPath) {
  nvm::PmemPool pool(256 << 20);
  {
    Tree tree(pool, Tree::Options{});
    for (std::uint64_t i = 0; i < kKeys; ++i)
      ASSERT_TRUE(tree.upsert(key_of(i), i).ok());
    // No close(): the pool stays dirty, so every recovery below takes the
    // crash path (undo scan + nlogs/plogs recompute).
  }
  for (const int workers : {1, 4}) {
    Tree::Options opt;
    opt.recovery_workers = workers;
    common::Status st;
    auto tree = Tree::recover_checked(pool, st, opt);
    ASSERT_TRUE(st.ok()) << "workers=" << workers << ": " << st.message();
    ASSERT_NE(tree, nullptr);
    expect_all_keys(*tree);
    EXPECT_EQ(tree->size(), kKeys) << "workers=" << workers;
    // Leave the pool dirty for the next iteration.
  }
}

TEST(RntreeRecoveryTest, ParallelRecoveryDetectsTornLeafInAnyBlock) {
  nvm::PmemPool pool(256 << 20);
  build_and_close(pool);
  // Corrupt a leaf deep in the chain (middle-ish block), then recover with
  // many workers: whichever worker owns that block must flag it.
  using Leaf = core::RnLeaf<std::uint64_t, std::uint64_t>;
  Leaf* leaf = pool.ptr<Leaf>(pool.root(0));
  ASSERT_NE(leaf, nullptr);
  for (int hops = 0; hops < 200; ++hops) {
    Leaf* nxt = pool.ptr<Leaf>(leaf->next.load());
    if (nxt == nullptr) break;
    leaf = nxt;
  }
  leaf->pslot[0] = 255;
  Tree::Options opt;
  opt.recovery_workers = 4;
  common::Status st;
  auto tree = Tree::recover_checked(pool, st, opt);
  EXPECT_EQ(tree, nullptr);
  ASSERT_TRUE(st.corrupted());
}

}  // namespace
}  // namespace rnt
