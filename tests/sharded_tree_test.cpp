// ShardedTree facade tests: partition routing and containment, cross-shard
// ordered scans (range concatenation and hash k-way merge), group-persistency
// fence accounting (the exact K + 1 fences-per-batch contract), clean and
// crash recovery of the multi-root pool, a crash-point sweep over a batched
// flush, scan-vs-split races for both partitions, and the hash merge's edge
// cases against a std::map oracle.
#include "shard/sharded_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "nvm/persist.hpp"
#include "nvm/pool.hpp"
#include "nvm/shadow.hpp"

namespace rnt::shard {
namespace {

using SH = ShardedTree<std::uint64_t, std::uint64_t>;

class ShardedTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = nvm::config();
    nvm::config().write_latency_ns = 0;
    nvm::config().per_line_ns = 0;
  }
  void TearDown() override { nvm::config() = saved_; }
  nvm::NvmConfig saved_;
};

TEST_F(ShardedTreeTest, HashPartitionBasicOps) {
  nvm::PmemPool pool(std::size_t{16} << 20);
  SH tree(pool, {.shards = 4, .partition = Partition::kHash});

  for (std::uint64_t i = 0; i < 500; ++i) ASSERT_TRUE(tree.insert(i, i * 10));
  EXPECT_EQ(tree.size(), 500u);
  // 500 mixed keys cannot all land in one of four hash shards.
  for (int s = 0; s < 4; ++s) EXPECT_GT(tree.shard(s).size(), 0u);

  for (std::uint64_t i = 0; i < 500; ++i) {
    auto got = tree.find(i);
    ASSERT_TRUE(got.has_value()) << "key " << i;
    EXPECT_EQ(*got, i * 10);
  }
  EXPECT_FALSE(tree.find(500).has_value());
  EXPECT_FALSE(tree.insert(7, 1));       // duplicate
  EXPECT_TRUE(tree.update(7, 777));
  EXPECT_EQ(*tree.find(7), 777u);
  EXPECT_FALSE(tree.update(9999, 1));    // missing
  EXPECT_TRUE(tree.upsert(9999, 42));
  EXPECT_EQ(*tree.find(9999), 42u);
  EXPECT_TRUE(tree.remove(7));
  EXPECT_FALSE(tree.remove(7));
  EXPECT_FALSE(tree.find(7).has_value());
  tree.check_invariants();
}

TEST_F(ShardedTreeTest, RangePartitionScanConcatenates) {
  nvm::PmemPool pool(std::size_t{16} << 20);
  SH tree(pool,
          {.shards = 4, .partition = Partition::kRange, .key_space = 4000});
  std::map<std::uint64_t, std::uint64_t> oracle;
  for (std::uint64_t k = 0; k < 4000; k += 7) {
    ASSERT_TRUE(tree.insert(k, k + 1));
    oracle[k] = k + 1;
  }
  // Range shards must actually split the load across members.
  for (int s = 0; s < 4; ++s) EXPECT_GT(tree.shard(s).size(), 0u);
  tree.check_invariants();

  std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
  tree.scan_n(0, oracle.size() + 8, got);
  ASSERT_EQ(got.size(), oracle.size());
  auto it = oracle.begin();
  for (std::size_t i = 0; i < got.size(); ++i, ++it) {
    ASSERT_EQ(got[i].first, it->first) << "rank " << i;
    ASSERT_EQ(got[i].second, it->second) << "rank " << i;
  }

  // Mid-range start crossing a shard boundary (width = 1000).
  tree.scan_n(990, 10, got);
  ASSERT_EQ(got.size(), 10u);
  for (std::size_t i = 1; i < got.size(); ++i)
    ASSERT_LT(got[i - 1].first, got[i].first);
  EXPECT_GE(got.front().first, 990u);
}

TEST_F(ShardedTreeTest, HashPartitionScanMergesInOrder) {
  nvm::PmemPool pool(std::size_t{16} << 20);
  SH tree(pool, {.shards = 8, .partition = Partition::kHash});
  std::map<std::uint64_t, std::uint64_t> oracle;
  Xoshiro256 rng(99);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t k = rng.next_below(100'000);
    tree.upsert(k, k ^ 0xFF);
    oracle[k] = k ^ 0xFF;
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
  tree.scan_n(0, oracle.size() + 8, got);
  ASSERT_EQ(got.size(), oracle.size());
  auto it = oracle.begin();
  for (std::size_t i = 0; i < got.size(); ++i, ++it) {
    ASSERT_EQ(got[i].first, it->first) << "rank " << i;
    ASSERT_EQ(got[i].second, it->second) << "rank " << i;
  }

  // Mid-stream start + early stop exercise the per-shard leaf cursors.
  const std::uint64_t mid = std::next(oracle.begin(), 1000)->first;
  tree.scan_n(mid, 200, got);
  ASSERT_EQ(got.size(), 200u);
  auto om = oracle.lower_bound(mid);
  for (std::size_t i = 0; i < got.size(); ++i, ++om) {
    ASSERT_EQ(got[i].first, om->first) << "rank " << i;
    ASSERT_EQ(got[i].second, om->second) << "rank " << i;
  }
}

TEST_F(ShardedTreeTest, RejectsBadShardCounts) {
  nvm::PmemPool pool(std::size_t{8} << 20);
  EXPECT_THROW(SH(pool, {.shards = 0}), std::invalid_argument);
  EXPECT_THROW(SH(pool, {.shards = 3}), std::invalid_argument);
  EXPECT_THROW(SH(pool, {.shards = 32}), std::invalid_argument);
  EXPECT_THROW(SH(SH::recover_t{}, pool, {.shards = -4}),
               std::invalid_argument);
}

TEST_F(ShardedTreeTest, RecoverWithMissingRootThrows) {
  nvm::PmemPool pool(std::size_t{8} << 20);
  {
    SH tree(pool, {.shards = 2});
    ASSERT_TRUE(tree.insert(1, 1));
    tree.close();
  }
  pool.reopen_volatile();
  // The pool was created with 2 shards; shard 2's root slot is empty.
  EXPECT_THROW(SH(SH::recover_t{}, pool, {.shards = 4}), std::runtime_error);
}

TEST_F(ShardedTreeTest, RecoverWithCorruptedMemberThrows) {
  nvm::PmemPool pool(std::size_t{64} << 20);
  {
    SH tree(pool, {.shards = 2});
    for (std::uint64_t k = 0; k < 4000; ++k) ASSERT_TRUE(tree.insert(k, k));
    tree.close();
  }
  pool.reopen_volatile();
  // Break shard 1's high_key chain: its first leaf must carry a high key.
  auto* leaf = pool.ptr<SH::Leaf>(pool.root(1));
  ASSERT_NE(leaf->next.load(), 0u) << "shard too small to have split";
  leaf->has_high.store(0);
  try {
    SH rec(SH::recover_t{}, pool, {.shards = 2});
    FAIL() << "corrupted member recovered without error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("RNTree::recover: ", 0), 0u)
        << e.what();
  }
}

TEST_F(ShardedTreeTest, CleanCloseRecoverRoundTrip) {
  nvm::PmemPool pool(std::size_t{16} << 20);
  const SH::Options opt{.shards = 4, .partition = Partition::kHash};
  {
    SH tree(pool, opt);
    for (std::uint64_t i = 0; i < 300; ++i) ASSERT_TRUE(tree.insert(i, i + 5));
    tree.close();
  }
  pool.reopen_volatile();
  ASSERT_TRUE(pool.clean_shutdown());
  SH rec(SH::recover_t{}, pool, opt);
  EXPECT_EQ(rec.size(), 300u);
  for (std::uint64_t i = 0; i < 300; ++i) {
    auto got = rec.find(i);
    ASSERT_TRUE(got.has_value()) << "key " << i;
    EXPECT_EQ(*got, i + 5);
  }
  rec.check_invariants();
}

// ---------------------------------------------------------------------------
// Group persistency: exact fence accounting.
// ---------------------------------------------------------------------------

// A K-op ModifyBatch must cost exactly K eager fences (one per KV persist)
// plus ONE batch barrier, with each op's slot-line flush deferred into the
// barrier (K batch-persist compounds).  The same ops issued eagerly cost 2K
// fences.  This is the 2 -> 1 + 1/K claim as integer deltas, and it pins the
// separation of the batch_* counters from the Table-1 persist/fence fields.
TEST_F(ShardedTreeTest, BatchFenceAccountingIsExact) {
  nvm::PmemPool pool(std::size_t{16} << 20);
  SH tree(pool, {.shards = 4, .partition = Partition::kHash});
  for (std::uint64_t i = 0; i < 16; ++i) ASSERT_TRUE(tree.insert(i, 0));

  const nvm::PersistCounters& c = nvm::persist_counters();
  const std::uint64_t fence0 = c.fence.local();
  const std::uint64_t batch_fence0 = c.batch_fence.local();
  const std::uint64_t batch_persist0 = c.batch_persist.local();
  {
    SH::ModifyBatch batch(tree, 8);
    for (std::uint64_t i = 0; i < 8; ++i) ASSERT_TRUE(batch.update(i, i + 1));
  }
  const std::uint64_t fence1 = c.fence.local();
  const std::uint64_t batch_fence1 = c.batch_fence.local();
  const std::uint64_t batch_persist1 = c.batch_persist.local();
  EXPECT_EQ(fence1 - fence0, 8u);                   // eager KV fences
  EXPECT_EQ(batch_fence1 - batch_fence0, 1u);
  EXPECT_EQ(batch_persist1 - batch_persist0, 8u);   // deferred slots

  for (std::uint64_t i = 0; i < 8; ++i) ASSERT_TRUE(tree.update(i, i + 2));
  EXPECT_EQ(c.fence.local() - fence1, 16u);         // 2 fences per eager op
  EXPECT_EQ(c.batch_fence.local() - batch_fence1, 0u);
  EXPECT_EQ(c.batch_persist.local() - batch_persist1, 0u);
}

TEST_F(ShardedTreeTest, BatchAutoFlushesAtCapacity) {
  nvm::PmemPool pool(std::size_t{16} << 20);
  SH tree(pool, {.shards = 2});
  for (std::uint64_t i = 0; i < 16; ++i) ASSERT_TRUE(tree.insert(i, 0));

  SH::ModifyBatch batch(tree, 4);
  const obs::Counter& batch_fences = nvm::persist_counters().batch_fence;
  const std::uint64_t before = batch_fences.local();
  ASSERT_TRUE(batch.update(0, 1));
  ASSERT_TRUE(batch.update(1, 1));
  ASSERT_TRUE(batch.update(2, 1));
  EXPECT_EQ(batch.staged(), 3u);
  EXPECT_EQ(batch_fences.local() - before, 0u);
  ASSERT_TRUE(batch.update(3, 1));  // hits cap: auto-flush
  EXPECT_EQ(batch.staged(), 0u);
  EXPECT_EQ(batch_fences.local() - before, 1u);
  batch.flush();  // nothing staged: no extra barrier
  EXPECT_EQ(batch_fences.local() - before, 1u);
  // Results surface immediately even before the durability barrier.
  ASSERT_TRUE(batch.insert(100, 7));
  EXPECT_EQ(batch.staged(), 1u);
  EXPECT_EQ(*tree.find(100), 7u);
}

// ---------------------------------------------------------------------------
// Crash-point sweep over a batched flush: crash at EVERY tracked NVM event
// of an 8-op ModifyBatch (including the trailing barrier) and verify after
// recovery that each batched update is all-or-nothing — old value or new
// value, never torn, never a lost committed key — and that the partition
// invariants hold.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kSweepKeys = 64;
constexpr std::uint64_t kSweepTargets = 8;
inline std::uint64_t sweep_key(std::uint64_t i) { return i * 5 + 1; }
inline std::uint64_t old_val(std::uint64_t i) { return 0xA000 + i; }
inline std::uint64_t new_val(std::uint64_t i) { return 0xB000 + i; }

std::unique_ptr<SH> make_sweep_tree(nvm::PmemPool& pool) {
  auto tree = std::make_unique<SH>(
      pool, SH::Options{.shards = 4, .partition = Partition::kHash});
  for (std::uint64_t i = 0; i < kSweepKeys; ++i)
    EXPECT_TRUE(tree->insert(sweep_key(i), old_val(i)));
  return tree;
}

void run_batch_target(SH& tree) {
  SH::ModifyBatch batch(tree, kSweepTargets);
  for (std::uint64_t i = 0; i < kSweepTargets; ++i)
    (void)batch.update(sweep_key(i), new_val(i));
}

TEST_F(ShardedTreeTest, CrashSweepOverBatchedFlush) {
  // Calibration run: count the batch's tracked NVM events (no crash).
  std::uint64_t events = 0;
  {
    nvm::PmemPool pool(std::size_t{8} << 20);
    auto tree = make_sweep_tree(pool);
    nvm::ShadowPool shadow(pool);
    run_batch_target(*tree);
    events = shadow.events_seen();
  }
  ASSERT_GE(events, kSweepTargets * 2);  // >= 1 store + 1 fence per update

  for (std::uint64_t n = 1; n <= events; ++n) {
    nvm::PmemPool pool(std::size_t{8} << 20);
    {
      auto tree = make_sweep_tree(pool);
      nvm::ShadowPool shadow(pool);
      shadow.schedule_crash_after(n);
      bool crashed = false;
      try {
        run_batch_target(*tree);
      } catch (const nvm::CrashPoint&) {
        crashed = true;
      }
      ASSERT_TRUE(crashed) << "crash_at=" << n << " beyond the batch's events";
      tree.reset();  // volatile state dies with the process
      shadow.simulate_crash(nvm::EvictionMode::kNone, 0);
    }
    pool.reopen_volatile();
    ASSERT_FALSE(pool.clean_shutdown()) << "crash_at=" << n;

    SH rec(SH::recover_t{}, pool,
           {.shards = 4, .partition = Partition::kHash});
    for (std::uint64_t i = 0; i < kSweepTargets; ++i) {
      auto got = rec.find(sweep_key(i));
      ASSERT_TRUE(got.has_value())
          << "crash_at=" << n << ": committed key " << sweep_key(i) << " lost";
      ASSERT_TRUE(*got == old_val(i) || *got == new_val(i))
          << "crash_at=" << n << ": torn batched update, value " << *got;
    }
    for (std::uint64_t i = kSweepTargets; i < kSweepKeys; ++i) {
      auto got = rec.find(sweep_key(i));
      ASSERT_TRUE(got.has_value() && *got == old_val(i))
          << "crash_at=" << n << ": untouched key " << sweep_key(i)
          << " damaged";
    }
    ASSERT_NO_THROW(rec.check_invariants()) << "crash_at=" << n;
  }
}

// ---------------------------------------------------------------------------
// Scan vs. split across a shard boundary: a racing writer splits leaves in
// every shard while a reader scans the full range.  Stable (pre-inserted)
// keys must never go missing or duplicate, and the merged order must stay
// strictly increasing — including across shard boundaries.
// ---------------------------------------------------------------------------

// A writer splits leaves in every shard while scans run; every scan must
// still return each stable key exactly once, in order.  The callback yields
// now and then so the shard cursors hold their leaves across writer splits.
void race_scans_against_splits(Partition partition) {
  constexpr std::uint64_t kSpace = 4096;
  nvm::PmemPool pool(std::size_t{64} << 20);
  SH tree(pool, {.shards = 4, .partition = partition, .key_space = kSpace});

  // Stable even keys, present before the race starts.
  for (std::uint64_t k = 0; k < kSpace; k += 2) ASSERT_TRUE(tree.insert(k, k));
  const std::size_t n_stable = kSpace / 2;

  std::atomic<bool> done{false};
  std::thread writer([&] {
    // Odd keys in scrambled order: splits land in every shard, interleaved.
    std::vector<std::uint64_t> odds;
    odds.reserve(kSpace / 2);
    for (std::uint64_t k = 1; k < kSpace; k += 2) odds.push_back(k);
    Xoshiro256 rng(7);
    for (std::size_t i = odds.size(); i > 1; --i)
      std::swap(odds[i - 1], odds[rng.next_below(i)]);
    for (const std::uint64_t k : odds) (void)tree.insert(k, k);
    done.store(true, std::memory_order_release);
  });

  std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
  do {
    got.clear();
    tree.scan(0, [&](std::uint64_t k, std::uint64_t v) {
      got.emplace_back(k, v);
      if (got.size() % 97 == 0) std::this_thread::yield();
      return true;
    });
    std::size_t evens = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (i > 0) {
        ASSERT_LT(got[i - 1].first, got[i].first)
            << "duplicate or out-of-order key during racing scan";
      }
      if ((got[i].first & 1) == 0) {
        ASSERT_EQ(got[i].second, got[i].first);
        ++evens;
      }
    }
    ASSERT_EQ(evens, n_stable) << "racing scan lost a stable key";
  } while (!done.load(std::memory_order_acquire));
  writer.join();

  // Quiescent: the final state is exactly the full key space.
  tree.scan_n(0, kSpace + 8, got);
  ASSERT_EQ(got.size(), kSpace);
  for (std::uint64_t k = 0; k < kSpace; ++k) {
    ASSERT_EQ(got[k].first, k);
    ASSERT_EQ(got[k].second, k);
  }
  tree.check_invariants();
}

TEST_F(ShardedTreeTest, ScanVsSplitAcrossShardBoundary) {
  race_scans_against_splits(Partition::kRange);
}

TEST_F(ShardedTreeTest, HashMergeScanVsSplit) {
  race_scans_against_splits(Partition::kHash);
}

// The hash merge against a std::map oracle at its edges: a start at or past
// the last key, a shard emptied by removes (its cursor must skip every empty
// leaf), and early stops after one entry and exactly at a leaf end.
TEST_F(ShardedTreeTest, HashMergeEdgeCasesMatchOracle) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  nvm::PmemPool pool(std::size_t{32} << 20);
  SH tree(pool, {.shards = 4, .partition = Partition::kHash});
  std::map<std::uint64_t, std::uint64_t> oracle;
  for (std::uint64_t i = 0; i < 8000; ++i) {
    const std::uint64_t k = i * 5 + 3;
    ASSERT_TRUE(tree.insert(k, k + 1));
    oracle[k] = k + 1;
  }
  ASSERT_TRUE(tree.insert(kMax, 7));
  oracle[kMax] = 7;

  // Scans from @p start against the oracle; stops after @p limit entries.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
  auto expect_matches = [&](std::uint64_t start, std::size_t limit) {
    tree.scan_n(start, limit, got);
    auto it = oracle.lower_bound(start);
    std::size_t want = 0;
    for (auto w = it; w != oracle.end() && want < limit; ++w) ++want;
    ASSERT_EQ(got.size(), want) << "start " << start << " limit " << limit;
    for (std::size_t i = 0; i < got.size(); ++i, ++it) {
      ASSERT_EQ(got[i].first, it->first) << "start " << start << " rank " << i;
      ASSERT_EQ(got[i].second, it->second) << "start " << start << " rank " << i;
    }
  };

  expect_matches(kMax, 10);  // only the last key; no wrap past UINT64_MAX
  expect_matches(kMax - 1, 10);
  ASSERT_TRUE(tree.remove(kMax));
  oracle.erase(kMax);
  expect_matches(kMax, 10);       // nothing at or beyond the start
  expect_matches(50'000, 10);     // start beyond every key
  expect_matches(0, 1);           // early stop after one entry
  expect_matches(1234, 1);

  // Empty shard 2: its ~2000 keys span many leaves, none of them merge
  // away, so its cursor walks a chain of empty leaves.
  std::vector<std::uint64_t> victims;
  tree.shard(2).scan(0, [&](std::uint64_t k, std::uint64_t) {
    victims.push_back(k);
    return true;
  });
  ASSERT_GT(victims.size(), 2 * std::size_t{SH::Leaf::kLogCap});
  for (const std::uint64_t k : victims) {
    ASSERT_TRUE(tree.remove(k));
    oracle.erase(k);
  }
  EXPECT_GT(tree.shard(2).leaf_count(), 2u);
  EXPECT_EQ(tree.shard(2).size(), 0u);
  expect_matches(0, oracle.size() + 8);
  expect_matches(20'000, 300);

  // Early stop exactly at a leaf end: the last entry shard 1's cursor reads
  // from its first leaf is where the scan stops.
  SH::Entry buf[SH::Leaf::kLogCap];
  int n = 0;
  {
    SH::Cursor c(tree.shard(1), 10'000);
    n = c.next(buf);
  }
  ASSERT_GT(n, 0);
  const std::uint64_t leaf_end = buf[n - 1].key;
  std::size_t want = 0;
  for (auto it = oracle.lower_bound(10'000); it->first <= leaf_end; ++it) ++want;
  std::size_t seen = 0;
  const std::size_t visited = tree.scan(10'000, [&](std::uint64_t k, std::uint64_t) {
    ++seen;
    return k != leaf_end;
  });
  EXPECT_EQ(visited, want);
  EXPECT_EQ(seen, want);
  expect_matches(10'000, want);
  expect_matches(leaf_end + 1, 200);  // resuming past the stop loses nothing
  tree.check_invariants();
}

}  // namespace
}  // namespace rnt::shard
