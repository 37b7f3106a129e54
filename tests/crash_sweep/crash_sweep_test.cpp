// Exhaustive crash-point sweep: every tree variant x every mutating op
// class x every tracked NVM event, under strict (kNone) crashes and seeded
// random eviction.  See tests/crash_sweep/harness.hpp for the mechanics and
// EXPERIMENTS.md ("Crash-point sweep") for how to reproduce a failure.
#include <gtest/gtest.h>

#include "crash_sweep/adapters.hpp"
#include "htm/abort_inject.hpp"
#include "htm/smo.hpp"
#include "obs/metrics.hpp"

namespace rnt::crash_sweep {
namespace {

constexpr OpClass kAllClasses[] = {
    OpClass::kInsertNonFull, OpClass::kInsertSplit, OpClass::kInsertInnerSmo,
    OpClass::kUpdate,        OpClass::kRemove,      OpClass::kCompaction,
};

template <class A>
class CrashSweepT : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = nvm::config();
    nvm::config().write_latency_ns = 0;
    nvm::config().per_line_ns = 0;
  }
  void TearDown() override { nvm::config() = saved_; }
  nvm::NvmConfig saved_;
};

struct AdapterNames {
  template <class A>
  static std::string GetName(int) {
    std::string n = A::kName;
    for (char& c : n)
      if (c == '-') c = '_';
    return n;
  }
};

using Adapters =
    ::testing::Types<RnTreeAdapter<true>, RnTreeAdapter<false>, NvTreeAdapter,
                     WbTreeAdapter, WbTreeSoAdapter, FpTreeAdapter>;
TYPED_TEST_SUITE(CrashSweepT, Adapters, AdapterNames);

TYPED_TEST(CrashSweepT, InsertNonFullEveryCrashPoint) {
  sweep_scenario<TypeParam>(make_scenario<TypeParam>(OpClass::kInsertNonFull),
                            nvm::EvictionMode::kNone, 0);
}

TYPED_TEST(CrashSweepT, InsertSplitEveryCrashPoint) {
  sweep_scenario<TypeParam>(make_scenario<TypeParam>(OpClass::kInsertSplit),
                            nvm::EvictionMode::kNone, 0);
}

TYPED_TEST(CrashSweepT, InsertInnerSmoEveryCrashPoint) {
  sweep_scenario<TypeParam>(make_scenario<TypeParam>(OpClass::kInsertInnerSmo),
                            nvm::EvictionMode::kNone, 0);
}

TYPED_TEST(CrashSweepT, UpdateEveryCrashPoint) {
  sweep_scenario<TypeParam>(make_scenario<TypeParam>(OpClass::kUpdate),
                            nvm::EvictionMode::kNone, 0);
}

TYPED_TEST(CrashSweepT, RemoveEveryCrashPoint) {
  sweep_scenario<TypeParam>(make_scenario<TypeParam>(OpClass::kRemove),
                            nvm::EvictionMode::kNone, 0);
}

TYPED_TEST(CrashSweepT, CompactionEveryCrashPoint) {
  sweep_scenario<TypeParam>(make_scenario<TypeParam>(OpClass::kCompaction),
                            nvm::EvictionMode::kNone, 0);
}

TYPED_TEST(CrashSweepT, RandomEvictionAllClasses) {
  if (!TypeParam::kEvictionSafe)
    GTEST_SKIP() << TypeParam::kName
                 << ": full-cache-line slot array cannot survive a torn "
                    "line (documented limitation; swept under kNone only)";
  const std::uint64_t seeds = eviction_seed_count();
  for (const OpClass cls : kAllClasses) {
    const Scenario sc = make_scenario<TypeParam>(cls);
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      sweep_scenario<TypeParam>(sc, nvm::EvictionMode::kRandomEviction, seed);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// The sweep counters land in the process metrics registry, so a sweep run
// is visible to the same export path the benches use.
TEST(CrashSweepObs, CountersAreRegistered) {
  const std::uint64_t before = sweep_obs().crash_points.value();
  using A = RnTreeAdapter<true>;
  sweep_scenario<A>(make_scenario<A>(OpClass::kInsertNonFull),
                    nvm::EvictionMode::kNone, 0);
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_GT(snap.counter("sweep.crash_points"), before);
  EXPECT_GT(snap.counter("sweep.recoveries"), 0u);
  EXPECT_GT(snap.counter("sweep.events"), 0u);
  EXPECT_GT(snap.counter("sweep.persist_gate_checks"), 0u);
}

// ---------------------------------------------------------------------------
// COW SMO install sweep.  The typed InsertInnerSmoEveryCrashPoint above
// already covers the COW install; this pins the variant it no longer
// reaches: the install transaction racing INTO the fallback acquisition.
// Scripted aborts (conflict, conflict, capacity) force every install through
// the retry tiers and onto the lock path while the leaf split's persists are
// in flight — then crash at every tracked NVM event.  Injection cannot
// change the event count: the inner rebuild touches no NVM and the
// "committed" attempt runs exactly once either way.
// ---------------------------------------------------------------------------

using CrashSweepCowSmo = CrashSweepT<RnTreeAdapter<true>>;

TEST_F(CrashSweepCowSmo, InstallRacingFallbackEveryCrashPoint) {
  using A = RnTreeAdapter<true>;
  htm::ScriptedAbortInjector script({htm::AbortCause::kConflict,
                                     htm::AbortCause::kConflict,
                                     htm::AbortCause::kCapacity});
  htm::SmoTargetedInjector smo_only(script);
  htm::ScopedAbortInjector scope(&smo_only);
  sweep_scenario<A>(make_scenario<A>(OpClass::kInsertInnerSmo),
                    nvm::EvictionMode::kNone, 0);
  EXPECT_GT(script.injected(), 0u)
      << "no install transaction saw the scripted abort schedule";
}

TEST_F(CrashSweepCowSmo, InstallRacingFallbackRandomEviction) {
  using A = RnTreeAdapter<true>;
  htm::ScriptedAbortInjector script({htm::AbortCause::kConflict,
                                     htm::AbortCause::kConflict,
                                     htm::AbortCause::kCapacity});
  htm::SmoTargetedInjector smo_only(script);
  htm::ScopedAbortInjector scope(&smo_only);
  sweep_scenario<A>(make_scenario<A>(OpClass::kInsertInnerSmo),
                    nvm::EvictionMode::kRandomEviction, 3);
  EXPECT_GT(script.injected(), 0u);
}

// ---------------------------------------------------------------------------
// close() sweep: crash at every event of the shutdown path itself.  A crash
// before the clean flag's persist must leave the pool dirty (full crash
// recovery); the final event completes the clean shutdown.  Either way no
// committed key may be lost.
// ---------------------------------------------------------------------------

template <class A>
void sweep_close(nvm::EvictionMode mode, std::uint64_t seed) {
  // 40 spaced keys: two+ leaves for RNTree-sized nodes, several for small
  // ones.  RNTree's close() is the clean flag's persist alone; WBTreeSO's
  // flushes per-leaf state first, so its sweep crashes inside that loop.
  std::vector<Step> prep;
  for (std::uint64_t i = 0; i < 40; ++i)
    prep.push_back(Step{Step::kInsert, 10 + i * 3, 0xD000 + i});

  std::uint64_t events = 0;
  {
    nvm::PmemPool pool(kPoolBytes);
    auto tree = A::make(pool);
    Model m;
    for (const Step& s : prep) apply_step(*tree, m, s);
    nvm::ShadowPool shadow(pool);
    tree->close();
    events = shadow.events_seen();
  }
  ASSERT_GT(events, 0u);

  for (std::uint64_t n = 1; n <= events; ++n) {
    const std::string ctx = std::string(A::kName) + "/close crash_at=" +
                            std::to_string(n) + " seed=" + std::to_string(seed);
    nvm::PmemPool pool(kPoolBytes);
    Model m;
    {
      auto tree = A::make(pool);
      for (const Step& s : prep) apply_step(*tree, m, s);
      nvm::ShadowPool shadow(pool);
      shadow.schedule_crash_after(n);
      bool crashed = false;
      try {
        tree->close();
      } catch (const nvm::CrashPoint&) {
        crashed = true;
      }
      ASSERT_TRUE(crashed) << ctx;
      tree.reset();
      shadow.simulate_crash(mode, seed);
    }
    pool.reopen_volatile();
    std::unique_ptr<typename A::Tree> rec;
    try {
      rec = A::recover(pool);
    } catch (const std::exception& e) {
      FAIL() << ctx << ": recovery threw: " << e.what();
    }
    const Step no_pending{Step::kRemove, ~std::uint64_t{0}, 0};
    verify_recovered<A>(*rec, pool, m, no_pending, false, ctx);
  }
}

TEST(CrashSweepClose, RnTreeDualEveryCrashPoint) {
  sweep_close<RnTreeAdapter<true>>(nvm::EvictionMode::kNone, 0);
}

TEST(CrashSweepClose, RnTreeSingleEveryCrashPoint) {
  sweep_close<RnTreeAdapter<false>>(nvm::EvictionMode::kNone, 0);
}

TEST(CrashSweepClose, WbTreeSoEveryCrashPoint) {
  sweep_close<WbTreeSoAdapter>(nvm::EvictionMode::kNone, 0);
}

TEST(CrashSweepClose, RnTreeDualRandomEviction) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    sweep_close<RnTreeAdapter<true>>(nvm::EvictionMode::kRandomEviction, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Double crash: crash mid-split, then crash RECOVERY at every one of its
// tracked events, then recover again.  Pins that undo rollback is
// idempotent — a half-applied rollback (including torn leaves under
// eviction) is re-applied safely on the next attempt.
// ---------------------------------------------------------------------------

template <class A>
void sweep_double_crash(nvm::EvictionMode mode, std::uint64_t seed) {
  const Scenario sc = make_scenario<A>(OpClass::kInsertSplit);
  const CountResult r = count_events<A>(sc);
  ASSERT_GE(r.split_delta, 1u);

  for (std::uint64_t n1 = 1; n1 <= r.events; ++n1) {
    // First pass with this n1: count recovery's own tracked events.
    std::uint64_t rec_events = 0;
    {
      nvm::PmemPool pool(kPoolBytes);
      {
        auto tree = A::make(pool);
        Model m;
        for (const Step& s : sc.prep) apply_step(*tree, m, s);
        nvm::ShadowPool shadow(pool);
        shadow.schedule_crash_after(n1);
        try {
          apply_step_tree_only(*tree, sc.target);
        } catch (const nvm::CrashPoint&) {
        }
        tree.reset();
        shadow.simulate_crash(mode, seed);
      }
      pool.reopen_volatile();
      nvm::ShadowPool shadow(pool);
      auto rec = A::recover(pool);
      rec_events = shadow.events_seen();
    }
    if (rec_events == 0) continue;  // no undo was active at this crash point

    for (std::uint64_t n2 = 1; n2 <= rec_events; ++n2) {
      const std::string ctx = std::string(A::kName) +
                              "/double-crash n1=" + std::to_string(n1) +
                              " n2=" + std::to_string(n2) +
                              " seed=" + std::to_string(seed);
      nvm::PmemPool pool(kPoolBytes);
      Model m;
      bool pending_applies = false;
      {
        auto tree = A::make(pool);
        for (const Step& s : sc.prep) apply_step(*tree, m, s);
        nvm::ShadowPool shadow(pool);
        shadow.schedule_crash_after(n1);
        pending_applies = step_applies(m, sc.target);
        try {
          apply_step_tree_only(*tree, sc.target);
        } catch (const nvm::CrashPoint&) {
        }
        tree.reset();
        shadow.simulate_crash(mode, seed);
      }
      pool.reopen_volatile();
      {
        nvm::ShadowPool shadow(pool);
        shadow.schedule_crash_after(n2);
        bool crashed = false;
        try {
          auto rec = A::recover(pool);
        } catch (const nvm::CrashPoint&) {
          crashed = true;
        }
        ASSERT_TRUE(crashed) << ctx << ": recovery crash point not reached";
        shadow.simulate_crash(mode, seed ^ 0x5A5A);
        sweep_obs().crash_points.inc();
      }
      pool.reopen_volatile();
      std::unique_ptr<typename A::Tree> rec;
      try {
        rec = A::recover(pool);
      } catch (const std::exception& e) {
        FAIL() << ctx << ": second recovery threw: " << e.what();
      }
      sweep_obs().recoveries.inc();
      verify_recovered<A>(*rec, pool, m, sc.target, pending_applies, ctx);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(CrashSweepDoubleCrash, RnTreeDualStrict) {
  sweep_double_crash<RnTreeAdapter<true>>(nvm::EvictionMode::kNone, 0);
}

TEST(CrashSweepDoubleCrash, RnTreeDualRandomEviction) {
  sweep_double_crash<RnTreeAdapter<true>>(nvm::EvictionMode::kRandomEviction, 7);
}

TEST(CrashSweepDoubleCrash, WbTreeSoStrict) {
  sweep_double_crash<WbTreeSoAdapter>(nvm::EvictionMode::kNone, 0);
}

// Forces every recovery in the double-crash sweep through the multi-worker
// rebuild (recovery_workers=4 disables the small-tree serial threshold, and
// explicit counts are clamped only by 64-leaf blocks, not host cores).  The
// sweep's trees are ~20 leaves, so all workers race over one block — small,
// but the parallel partition/merge machinery and its rollback still run at
// every crash-during-recovery point, pinning idempotence of the parallel
// path specifically.
struct RnTreeParallelRecoveryAdapter : RnTreeAdapter<true> {
  static constexpr const char* kName = "rntree-parallel-recovery";
  static std::unique_ptr<Tree> recover(nvm::PmemPool& p) {
    return std::make_unique<Tree>(
        typename Tree::recover_t{}, p,
        typename Tree::Options{.dual_slot = true, .recovery_workers = 4});
  }
};

TEST(CrashSweepDoubleCrash, RnTreeDualParallelRecoveryStrict) {
  sweep_double_crash<RnTreeParallelRecoveryAdapter>(nvm::EvictionMode::kNone,
                                                    0);
}

TEST(CrashSweepDoubleCrash, RnTreeDualParallelRecoveryRandomEviction) {
  sweep_double_crash<RnTreeParallelRecoveryAdapter>(
      nvm::EvictionMode::kRandomEviction, 11);
}

// ---------------------------------------------------------------------------
// Fresh-construction sweep: crash at every event of building a tree on a
// fresh pool.  Because mark_dirty() precedes the first mutation, every
// outcome is either a recoverable empty tree or a pool with no root yet —
// never a half-initialised root that recovery trusts.
// ---------------------------------------------------------------------------

TEST(CrashSweepFreshCtor, RnTreeDualEveryCrashPoint) {
  using A = RnTreeAdapter<true>;
  std::uint64_t events = 0;
  {
    nvm::PmemPool pool(kPoolBytes);
    nvm::ShadowPool shadow(pool);
    auto tree = A::make(pool);
    events = shadow.events_seen();
  }
  ASSERT_GT(events, 0u);
  for (std::uint64_t n = 1; n <= events; ++n) {
    const std::string ctx = "fresh-ctor crash_at=" + std::to_string(n);
    nvm::PmemPool pool(kPoolBytes);
    {
      nvm::ShadowPool shadow(pool);
      shadow.schedule_crash_after(n);
      bool crashed = false;
      try {
        auto tree = A::make(pool);
      } catch (const nvm::CrashPoint&) {
        crashed = true;
      }
      ASSERT_TRUE(crashed) << ctx;
      shadow.simulate_crash(nvm::EvictionMode::kNone, 0);
    }
    pool.reopen_volatile();
    // Crash ON the mark_dirty store itself (n == 1, lost under kNone) may
    // reopen clean — legal only while the pool is still untouched.  From
    // the dirty-flag's fence onward the reopen must be dirty.
    if (pool.clean_shutdown()) {
      EXPECT_EQ(pool.root(0), 0u)
          << ctx << ": pool reopened clean after construction mutated it";
    }
    std::unique_ptr<A::Tree> rec;
    try {
      rec = A::recover(pool);
    } catch (const std::exception&) {
      // Root never became durable: the tree never existed; acceptable
      // because nothing was acknowledged.
      continue;
    }
    const Step no_pending{Step::kRemove, ~std::uint64_t{0}, 0};
    verify_recovered<A>(*rec, pool, Model{}, no_pending, false, ctx);
  }
}

}  // namespace
}  // namespace rnt::crash_sweep
