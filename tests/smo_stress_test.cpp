// SMO stress net for the COW install path.
//
// Three angles:
//  1. Concurrent split storms on the bare InnerTree (pre-partitioned
//     regions, one writer per region, readers racing the installs) — the
//     final structure must route every key exactly like the per-region
//     sequential oracle.
//  2. Full-tree concurrent inserts through RNTree, driving real leaf
//     splits -> COW installs under contention.
//  3. The capacity-abort measurement: on an insert-only workload with a
//     seeded abort injector targeted at SMO install transactions, every
//     SMO is a one-line install, so htm.aborts_capacity stays at or below
//     the count measured when propagating splits still took a whole-path
//     transaction.  EXPERIMENTS.md quotes this test's printed numbers;
//     repro with
//       ./build/tests/smo_stress_test --gtest_filter=*CapacityAborts*
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/rntree.hpp"
#include "epoch/ebr.hpp"
#include "htm/abort_inject.hpp"
#include "htm/smo.hpp"
#include "inner/inner_tree.hpp"
#include "nvm/pool.hpp"
#include "obs/metrics.hpp"

namespace rnt {
namespace {

using Tree = core::RNTree<std::uint64_t, std::uint64_t>;

struct FakeLeaf {
  std::uint64_t low;
};
using ITree = inner::InnerTree<std::uint64_t, FakeLeaf>;

std::uint64_t counter_now(std::string_view name) {
  return obs::snapshot().counter(name);
}

// --- 1. bare InnerTree: concurrent region splits ---------------------------

TEST(SmoStress, ConcurrentRegionSplitsMatchOracle) {
  constexpr int kWriters = 4;
  constexpr std::uint64_t kSplitsPer = 1000;
  constexpr std::uint64_t kStep = 16;
  constexpr std::uint64_t kRegion = 1u << 20;

  const std::uint64_t installs0 = counter_now("htm.smo.installs");

  epoch::EpochManager epochs;
  ITree t(epochs);
  std::vector<std::unique_ptr<FakeLeaf>> seed_leaves;
  std::array<FakeLeaf*, kWriters> region_head{};

  seed_leaves.push_back(std::make_unique<FakeLeaf>(FakeLeaf{0}));
  t.init_single(seed_leaves[0].get());
  region_head[0] = seed_leaves[0].get();
  {
    epoch::Guard g = epochs.pin();
    for (int w = 1; w < kWriters; ++w) {
      seed_leaves.push_back(
          std::make_unique<FakeLeaf>(FakeLeaf{w * kRegion}));
      t.insert_split(w * kRegion, region_head[w - 1], seed_leaves.back().get());
      region_head[w] = seed_leaves.back().get();
    }
  }

  // One writer per region: always splits its own rightmost leaf, so the
  // covering-leaf bookkeeping needs no cross-thread coordination and every
  // interleaving of the installs themselves is exercised.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reader_bad{0};
  std::vector<std::vector<std::unique_ptr<FakeLeaf>>> owned(kWriters);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      FakeLeaf* rightmost = region_head[w];
      const std::uint64_t base = w * kRegion;
      for (std::uint64_t s = 1; s <= kSplitsPer; ++s) {
        owned[w].push_back(
            std::make_unique<FakeLeaf>(FakeLeaf{base + s * kStep}));
        epoch::Guard g = epochs.pin();
        t.insert_split(base + s * kStep, rightmost, owned[w].back().get());
        rightmost = owned[w].back().get();
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(static_cast<std::uint64_t>(r) + 41);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t k = rng.next_below(kWriters * kRegion);
        epoch::Guard g = epochs.pin();
        FakeLeaf* leaf = t.find_leaf(k);
        if (leaf == nullptr || leaf->low > k) reader_bad.fetch_add(1);
      }
    });
  }
  for (auto& th : writers) th.join();
  stop = true;
  for (auto& th : readers) th.join();
  EXPECT_EQ(reader_bad.load(), 0u);

  // Oracle: inside region w, keys below the split frontier route in kStep
  // strides; keys beyond it land on the region's rightmost leaf.
  epoch::Guard g = epochs.pin();
  Xoshiro256 rng(17);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t k = rng.next_below(kWriters * kRegion);
    const std::uint64_t w = k / kRegion;
    const std::uint64_t off = k - w * kRegion;
    const std::uint64_t expect =
        w * kRegion + std::min(off / kStep * kStep, kSplitsPer * kStep);
    ASSERT_EQ(t.find_leaf(k)->low, expect) << "key " << k;
  }
  EXPECT_GT(counter_now("htm.smo.installs") - installs0, 0u);
}

// --- 2. full tree: concurrent inserts drive COW installs --------------------

TEST(SmoStress, ConcurrentRnTreeInsertsSurviveCowSmos) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;

  const std::uint64_t installs0 = counter_now("htm.smo.installs");

  nvm::PmemPool pool(std::size_t{256} << 20);
  Tree tree(pool);
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> failed{0};
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      const std::uint64_t base = static_cast<std::uint64_t>(tid) << 32;
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        if (!tree.insert(base + i, base + i)) failed.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failed.load(), 0u);

  for (int tid = 0; tid < kThreads; ++tid) {
    const std::uint64_t base = static_cast<std::uint64_t>(tid) << 32;
    for (std::uint64_t i = 0; i < kPerThread; i += 97) {
      auto v = tree.find(base + i);
      ASSERT_TRUE(v.has_value()) << "tid " << tid << " i " << i;
      EXPECT_EQ(*v, base + i);
    }
  }
  // Sequential runs per thread split constantly: the COW path must have
  // installed (sequential inserts split leaves every few keys).
  EXPECT_GT(counter_now("htm.smo.installs") - installs0, 100u);
}

// --- 3. the measurement: capacity aborts under an install abort storm ------

TEST(SmoStress, CapacityAbortsDropWithCowInstall) {
  // Seeded injector targeted at SMO install transactions only: leaf-path
  // transactions never see it, so the delta below is pure SMO footprint.
  htm::RandomAbortInjector rnd(0xC0FFEE, /*permille=*/500);
  htm::SmoTargetedInjector smo_only(rnd);
  htm::ScopedAbortInjector scope(&smo_only);

  nvm::PmemPool pool(std::size_t{128} << 20);
  Tree tree(pool, {.dual_slot = true, .root_slot = 0});

  const obs::Snapshot before = obs::snapshot();
  for (std::uint64_t i = 0; i < 40000; ++i) {
    if (!tree.insert(i, i)) ADD_FAILURE() << "insert " << i;
  }
  const obs::Snapshot after = obs::snapshot();
  auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };
  const std::uint64_t capacity = delta("htm.aborts_capacity");
  const std::uint64_t installs = delta("htm.smo.installs");
  const std::uint64_t updates = delta("inner.updates");
  std::printf("[ smo-capacity ] capacity=%llu installs=%llu updates=%llu\n",
              static_cast<unsigned long long>(capacity),
              static_cast<unsigned long long>(installs),
              static_cast<unsigned long long>(updates));

  // Every SMO — propagating splits and root growth included — is one
  // install declaring a one-line write set.  152 is what this workload and
  // seed measured when propagating splits still ran the serialized
  // whole-path rebuild (462 with every SMO on that rebuild).
  EXPECT_LE(capacity, 152u);
  EXPECT_GT(installs, 0u);
  EXPECT_EQ(installs, updates) << "every insert_split ends in one install";
}

// --- counter export ---------------------------------------------------------

TEST(SmoStress, SmoCountersAreRegistered) {
  // Force registration, then confirm the exporter sees every htm.smo.* name
  // (bench_smoke --require-smo depends on these exact strings).
  (void)htm::smo_counters();
  const obs::Snapshot snap = obs::snapshot();
  for (const char* name :
       {"htm.smo.installs", "htm.smo.root_installs",
        "htm.smo.validation_failures", "htm.smo.retry_fallbacks"}) {
    bool found = false;
    for (const auto& [n, v] : snap.counters)
      if (n == name) { found = true; break; }
    EXPECT_TRUE(found) << name;
  }
}

}  // namespace
}  // namespace rnt
