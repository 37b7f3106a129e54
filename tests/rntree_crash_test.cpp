// Crash-consistency property tests for RNTree, built on the ShadowPool
// simulator.  The durable-linearizability contract under test (paper S3.5):
//
//   * every operation that RETURNED before the crash is present after
//     recovery (its effects are durable),
//   * an operation in flight AT the crash is atomic: afterwards the tree
//     reflects either its full effect or none of it,
//   * structural invariants (sortedness, slot validity, chain integrity)
//     hold after recovery from ANY crash point, including mid-split,
//   * all of the above also under adversarial random cache evictions.
//
// The sweep harness replays a deterministic operation sequence, crashing at
// the Nth tracked NVM event for every N, recovering, and checking the tree
// against an oracle of acknowledged operations.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "core/rntree.hpp"
#include "nvm/pool.hpp"
#include "nvm/shadow.hpp"

namespace rnt::core {
namespace {

using Tree = RNTree<std::uint64_t, std::uint64_t>;

struct OpRec {
  int kind;  // 0=insert 1=update 2=remove
  std::uint64_t key, value;
};

// Deterministic op sequence used by all sweeps.
std::vector<OpRec> make_ops(int n, std::uint64_t key_space, std::uint64_t seed) {
  std::vector<OpRec> ops;
  Xoshiro256 rng(seed);
  for (int i = 0; i < n; ++i)
    ops.push_back({static_cast<int>(rng.next_below(3)), rng.next_below(key_space),
                   rng.next() | 1});
  return ops;
}

class CrashSweep : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    saved_ = nvm::config();
    nvm::config().write_latency_ns = 0;
    nvm::config().per_line_ns = 0;
  }
  void TearDown() override { nvm::config() = saved_; }

  /// Run `ops` with a crash injected at event `crash_at`; returns false when
  /// crash_at exceeded the run's total events (sweep is done).
  /// After the simulated crash, recovers and checks the oracle.
  bool run_one(const std::vector<OpRec>& ops, std::uint64_t crash_at,
               nvm::EvictionMode mode, std::uint64_t seed) {
    nvm::PmemPool pool(std::size_t{4} << 20);
    Tree::Options opt{.dual_slot = GetParam()};
    auto tree = std::make_unique<Tree>(pool, opt);
    nvm::ShadowPool shadow(pool);
    shadow.schedule_crash_after(crash_at);

    // Oracle of acknowledged effects; `pending` describes the in-flight op.
    std::map<std::uint64_t, std::uint64_t> acked;
    bool crashed = false;
    std::optional<OpRec> pending;
    bool pending_applies = false;
    try {
      for (const OpRec& op : ops) {
        pending = op;
        pending_applies = false;
        switch (op.kind) {
          case 0:
            pending_applies = acked.count(op.key) == 0;
            if (tree->insert(op.key, op.value)) acked[op.key] = op.value;
            break;
          case 1:
            pending_applies = acked.count(op.key) != 0;
            if (tree->update(op.key, op.value)) acked[op.key] = op.value;
            break;
          default:
            pending_applies = acked.count(op.key) != 0;
            if (tree->remove(op.key)) acked.erase(op.key);
        }
        pending.reset();
      }
    } catch (const nvm::CrashPoint&) {
      crashed = true;
    }
    if (!crashed) {
      shadow.cancel_scheduled_crash();
      return false;  // sweep exhausted this run's events
    }

    // Power loss: volatile tree state is gone, unflushed NVM lines are lost
    // (or arbitrarily evicted), then recovery runs.
    tree.reset();
    shadow.simulate_crash(mode, seed);
    pool.reopen_volatile();
    EXPECT_FALSE(pool.clean_shutdown());
    Tree recovered(Tree::recover_t{}, pool, opt);
    recovered.check_invariants();

    // Every acknowledged effect must be durable; the in-flight op is
    // all-or-nothing.
    for (auto& [k, v] : acked) {
      auto res = recovered.find(k);
      if (pending && pending->key == k && pending_applies) {
        // The in-flight op targeted this key: old value or new effect.
        EXPECT_TRUE(pending->kind == 2 ? (!res || *res == v)
                                       : (res && (*res == v || *res == pending->value)))
            << "key " << k << " crash_at " << crash_at;
      } else {
        EXPECT_TRUE(res.has_value()) << "lost acked key " << k << " @" << crash_at;
        EXPECT_EQ(*res, v) << "key " << k << " @" << crash_at;
      }
    }
    // Keys never acked (and not the pending insert) must be absent.
    std::size_t expect_min = acked.size();
    std::size_t expect_max = acked.size();
    if (pending && pending_applies) {
      if (pending->kind == 0) expect_max += 1;
      if (pending->kind == 2) expect_min -= 1;
    }
    const std::size_t got = recovered.size();
    EXPECT_GE(got, expect_min) << "@" << crash_at;
    EXPECT_LE(got, expect_max) << "@" << crash_at;
    if (pending && pending->kind == 0 && pending_applies) {
      auto res = recovered.find(pending->key);
      EXPECT_TRUE(!res || *res == pending->value);
    }
    return true;
  }

  nvm::NvmConfig saved_;
};

INSTANTIATE_TEST_SUITE_P(SlotModes, CrashSweep, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "DualSlot" : "SingleSlot";
                         });

TEST_P(CrashSweep, EveryCrashPointSmallTree) {
  // Small key space forces inserts+updates+removes into a handful of leaves;
  // sweep every single tracked event.
  const auto ops = make_ops(60, 16, 42);
  std::uint64_t crash_at = 1;
  while (run_one(ops, crash_at, nvm::EvictionMode::kNone, 0)) ++crash_at;
  // Sanity: the sweep actually covered a meaningful number of crash points.
  EXPECT_GT(crash_at, 120u);
}

TEST_P(CrashSweep, EveryCrashPointWithSplits) {
  // Monotone inserts drive leaf splits; sweep crash points through them
  // (the undo-log path).
  std::vector<OpRec> ops;
  for (int i = 0; i < 150; ++i)
    ops.push_back({0, static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(i + 1)});
  std::uint64_t crash_at = 1;
  while (run_one(ops, crash_at, nvm::EvictionMode::kNone, 0)) crash_at += 1;
  EXPECT_GT(crash_at, 300u);
}

TEST_P(CrashSweep, EveryCrashPointThroughCompaction) {
  // Update-heavy single-leaf workload: the log fills and the shrink split
  // reclaims in place, so crash points land in updates that reuse
  // reclaimed log entries.
  std::vector<OpRec> ops;
  for (int i = 0; i < 8; ++i)
    ops.push_back({0, static_cast<std::uint64_t>(i), 1000});
  for (int round = 0; round < 12; ++round)
    for (int i = 0; i < 8; ++i)
      ops.push_back({1, static_cast<std::uint64_t>(i),
                     static_cast<std::uint64_t>(round * 8 + i + 1)});
  std::uint64_t crash_at = 1;
  while (run_one(ops, crash_at, nvm::EvictionMode::kNone, 0)) ++crash_at;
  EXPECT_GT(crash_at, 200u);
}

TEST_P(CrashSweep, BatchedReclaimPersistsTheSlotLineBeforeReuse) {
  // Inside a group-persistency batch a publish defers its slot-line fence.
  // Key 0's update below claims the leaf's last free index, so the shrink
  // split after it frees key 0's previous index 0 while the durable slot
  // array may still name it, and key 1's update then claims index 0.  The
  // reclaim must make the slot line durable first: otherwise a crash that
  // evicts the new KV line but loses the slot line leaves key 0's durable
  // slot naming key 1's entry.  Every event of the batch, under eviction.
  std::map<std::uint64_t, std::uint64_t> committed;
  auto prep = [&](Tree& t) {
    committed.clear();
    for (std::uint64_t k = 0; k < 8; ++k) {
      ASSERT_TRUE(t.insert(k, 100 + k));  // log indices 0..7
      committed[k] = 100 + k;
    }
    for (std::uint64_t u = 0; u < 55; ++u) {  // indices 8..62; key 0 stays
      ASSERT_TRUE(t.update(1 + u % 7, 200 + u));
      committed[1 + u % 7] = 200 + u;
    }
  };
  auto batch = [](Tree& t) {
    nvm::BatchScope b;
    (void)t.update(0, 900);  // claims index 63: log full -> shrink split
    (void)t.update(1, 901);  // claims the lowest freed index: 0
  };
  const Tree::Options opt{.dual_slot = GetParam()};
  std::uint64_t events = 0;
  {
    nvm::PmemPool pool(std::size_t{4} << 20);
    Tree t(pool, opt);
    prep(t);
    const obs::Counter shrinks("tree.shrink_splits");
    const std::uint64_t shrinks0 = shrinks.value();
    nvm::ShadowPool shadow(pool);
    batch(t);
    events = shadow.events_seen();
    ASSERT_EQ(shrinks.value() - shrinks0, 1u);
  }
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    for (std::uint64_t n = 1; n <= events; ++n) {
      const std::string ctx =
          "crash_at=" + std::to_string(n) + " seed=" + std::to_string(seed);
      nvm::PmemPool pool(std::size_t{4} << 20);
      {
        Tree t(pool, opt);
        prep(t);
        nvm::ShadowPool shadow(pool);
        shadow.schedule_crash_after(n);
        bool crashed = false;
        try {
          batch(t);
        } catch (const nvm::CrashPoint&) {
          crashed = true;
        }
        ASSERT_TRUE(crashed) << ctx;
        shadow.simulate_crash(nvm::EvictionMode::kRandomEviction, seed);
      }
      pool.reopen_volatile();
      Tree rec(Tree::recover_t{}, pool, opt);
      ASSERT_NO_THROW(rec.check_invariants()) << ctx;
      ASSERT_EQ(rec.size(), 8u) << ctx;
      for (const auto& [k, v] : committed) {
        const auto got = rec.find(k);
        ASSERT_TRUE(got.has_value()) << ctx << " key " << k;
        const std::uint64_t pending = k == 0 ? 900 : k == 1 ? 901 : v;
        EXPECT_TRUE(*got == v || *got == pending) << ctx << " key " << k;
      }
    }
  }
}

TEST_P(CrashSweep, RandomEvictionAdversary) {
  // Sample crash points under random-eviction adversaries with several
  // seeds: any subset of unflushed lines may independently survive.
  const auto ops = make_ops(80, 24, 7);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    for (std::uint64_t crash_at = 3; crash_at < 400; crash_at += 17) {
      if (!run_one(ops, crash_at, nvm::EvictionMode::kRandomEviction, seed)) break;
    }
  }
}

TEST_P(CrashSweep, CrashDuringSplitRollsBackCleanly) {
  // Fill exactly to the split threshold, then crash at every event inside
  // the split itself.
  std::vector<OpRec> warm;
  for (int i = 0; i < 62; ++i)
    warm.push_back({0, static_cast<std::uint64_t>(i * 2), static_cast<std::uint64_t>(i + 1)});

  // First measure the events consumed by the warmup, then sweep the split.
  std::uint64_t warm_events;
  {
    const obs::Counter splits("tree.leaf_splits");
    const std::uint64_t splits0 = splits.value();
    nvm::PmemPool pool(std::size_t{4} << 20);
    Tree tree(pool, Tree::Options{.dual_slot = GetParam()});
    nvm::ShadowPool shadow(pool);
    for (const OpRec& op : warm) ASSERT_TRUE(tree.insert(op.key, op.value));
    warm_events = shadow.events_seen();
    // The 63rd insert triggers the split.
    ASSERT_TRUE(tree.insert(200, 1));
    ASSERT_GT(splits.value() - splits0, 0u);
  }
  auto ops = warm;
  ops.push_back({0, 200, 1});
  std::uint64_t crash_at = warm_events + 1;
  while (run_one(ops, crash_at, nvm::EvictionMode::kNone, 0)) ++crash_at;
}

TEST_P(CrashSweep, RepeatedCrashRecoverCycles) {
  // Crash -> recover -> keep working -> crash again, several times over one
  // pool, accumulating acked state across generations.
  nvm::PmemPool pool(std::size_t{4} << 20);
  Tree::Options opt{.dual_slot = GetParam()};
  std::map<std::uint64_t, std::uint64_t> acked;
  auto tree = std::make_unique<Tree>(pool, opt);
  Xoshiro256 rng(31);

  for (int generation = 0; generation < 6; ++generation) {
    nvm::ShadowPool shadow(pool);
    shadow.schedule_crash_after(150 + generation * 37);
    try {
      for (;;) {
        const std::uint64_t k = rng.next_below(64);
        const std::uint64_t v = rng.next() | 1;
        if (tree->insert(k, v)) {
          acked[k] = v;
        } else if (tree->update(k, v)) {
          acked[k] = v;
        }
      }
    } catch (const nvm::CrashPoint&) {
    }
    tree.reset();
    shadow.simulate_crash(nvm::EvictionMode::kNone, 0);
    pool.reopen_volatile();
    tree = std::make_unique<Tree>(Tree::recover_t{}, pool, opt);
    tree->check_invariants();
    // All previously acked keys must still be correct, modulo the single
    // in-flight op (whose key we did not record — accept either value for
    // at most one key mismatch).
    int mismatches = 0;
    for (auto& [k, v] : acked) {
      auto res = tree->find(k);
      ASSERT_TRUE(res.has_value()) << "generation " << generation;
      if (*res != v) ++mismatches;
    }
    ASSERT_LE(mismatches, 1) << "generation " << generation;
    // Re-sync the oracle with reality for the next generation.
    for (auto& [k, v] : acked) acked[k] = *tree->find(k);
  }
}

TEST_P(CrashSweep, UnackedInsertNeverVisibleAfterStrictCrash) {
  // Negative control: without any flush reaching the slot array, a crashed
  // insert must be invisible — this is the test that would catch a missing
  // nvm:: hook making data silently "durable".
  nvm::PmemPool pool(std::size_t{4} << 20);
  Tree::Options opt{.dual_slot = GetParam()};
  auto tree = std::make_unique<Tree>(pool, opt);
  nvm::ShadowPool shadow(pool);
  // Crash right after the first tracked event of the insert (the KV store).
  shadow.schedule_crash_after(1);
  EXPECT_THROW(tree->insert(5, 55), nvm::CrashPoint);
  tree.reset();
  shadow.simulate_crash(nvm::EvictionMode::kNone, 0);
  pool.reopen_volatile();
  Tree recovered(Tree::recover_t{}, pool, opt);
  EXPECT_FALSE(recovered.find(5).has_value());
  EXPECT_EQ(recovered.size(), 0u);
}

}  // namespace
}  // namespace rnt::core
