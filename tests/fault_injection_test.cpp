// Fault-injection tests for the HTM retry -> backoff -> fallback machine
// (htm/abort_inject.hpp + htm/rtm.hpp).
//
// On CI hosts without TSX the real RTM path never executes, so these tests
// drive the SAME policy decisions through the injected retry machine:
// scripted abort schedules assert the per-cause policy (capacity -> immediate
// fallback, conflict -> bounded backoff retries, spurious -> small budget,
// lock subscription -> bounded wait), the htm.inject.* attribution counters,
// the bounded lock-wait starvation cap, the null-lock form whose exclusion
// comes from the caller, and the exception-safety of the
// simulated-transaction bracket (TxGuard).  A seeded random schedule then
// hammers a real tree against a std::map oracle to show injected aborts are
// invisible to callers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/rntree.hpp"
#include "htm/abort_inject.hpp"
#include "htm/rtm.hpp"
#include "htm/spinlock.hpp"
#include "nvm/persist.hpp"
#include "nvm/pool.hpp"
#include "nvm/shadow.hpp"
#include "obs/heatmap.hpp"
#include "obs/op_scope.hpp"

namespace rnt {
namespace {

using htm::AbortCause;
using H = htm::HtmCounters;
using htm::RetryPolicy;
using htm::ScopedAbortInjector;
using htm::ScriptedAbortInjector;

/// The calling thread's htm.* counter deltas (Counter::local()) across
/// @p fn, read one counter at a time: d(&H::commits).
template <typename Fn>
auto stats_delta(Fn&& fn) {
  using Field = const obs::Counter H::*;
  static constexpr Field kAll[] = {
      &H::attempts,          &H::commits,           &H::aborts_conflict,
      &H::aborts_capacity,   &H::aborts_other,      &H::fallbacks,
      &H::lock_acquisitions, &H::lock_wait_timeouts, &H::injected_conflict,
      &H::injected_capacity, &H::injected_spurious,
      &H::injected_lock_subscription};
  const H& c = htm::htm_counters();
  std::array<std::uint64_t, std::size(kAll)> d;
  for (std::size_t i = 0; i < d.size(); ++i) d[i] = (c.*kAll[i]).local();
  fn();
  for (std::size_t i = 0; i < d.size(); ++i) d[i] = (c.*kAll[i]).local() - d[i];
  return [d](Field f) { return d[std::find(kAll, std::end(kAll), f) - kAll]; };
}

TEST(AbortInjection, ConflictsRetryWithBackoffThenCommit) {
  ScriptedAbortInjector inj({AbortCause::kConflict, AbortCause::kConflict});
  ScopedAbortInjector scope(&inj);
  htm::SpinLock lock;
  int ran = 0;
  const auto d = stats_delta([&] { htm::atomic_exec(&lock, [&] { ++ran; }); });
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(d(&H::attempts), 3u);  // 2 aborted + 1 committed
  EXPECT_EQ(d(&H::commits), 1u);
  EXPECT_EQ(d(&H::aborts_conflict), 2u);
  EXPECT_EQ(d(&H::injected_conflict), 2u);
  EXPECT_EQ(d(&H::fallbacks), 0u);
  EXPECT_EQ(d(&H::lock_acquisitions), 0u);
  EXPECT_EQ(inj.injected(), 2u);
}

TEST(AbortInjection, CapacityAbortFallsBackImmediately) {
  // A capacity abort means the write set will never fit: one attempt, then
  // straight to the pessimistic lock — no wasted retries.
  ScriptedAbortInjector inj(
      {AbortCause::kCapacity, AbortCause::kConflict, AbortCause::kConflict});
  ScopedAbortInjector scope(&inj);
  htm::SpinLock lock;
  int ran = 0;
  const auto d = stats_delta([&] { htm::atomic_exec(&lock, [&] { ++ran; }); });
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(d(&H::attempts), 1u);  // no retry after capacity
  EXPECT_EQ(d(&H::aborts_capacity), 1u);
  EXPECT_EQ(d(&H::injected_capacity), 1u);
  EXPECT_EQ(d(&H::fallbacks), 1u);
  EXPECT_EQ(d(&H::lock_acquisitions), 1u);
  EXPECT_EQ(d(&H::commits), 1u);  // the fallback critical section commits
}

TEST(AbortInjection, SpuriousAbortsHaveABoundedBudget) {
  RetryPolicy policy;
  policy.max_spurious_retries = 2;
  htm::SpinLock lock;

  {  // Within budget: retries and commits transactionally.
    ScriptedAbortInjector inj({AbortCause::kSpurious, AbortCause::kSpurious});
    ScopedAbortInjector scope(&inj);
    int ran = 0;
    const auto d = stats_delta(
        [&] { htm::atomic_exec(&lock, [&] { ++ran; }, policy); });
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(d(&H::injected_spurious), 2u);
    EXPECT_EQ(d(&H::fallbacks), 0u);
  }
  {  // One past the budget: gives up and takes the lock.
    ScriptedAbortInjector inj({AbortCause::kSpurious, AbortCause::kSpurious,
                               AbortCause::kSpurious});
    ScopedAbortInjector scope(&inj);
    int ran = 0;
    const auto d = stats_delta(
        [&] { htm::atomic_exec(&lock, [&] { ++ran; }, policy); });
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(d(&H::injected_spurious), 3u);
    EXPECT_EQ(d(&H::fallbacks), 1u);
    EXPECT_EQ(d(&H::lock_acquisitions), 1u);
  }
}

TEST(AbortInjection, LockSubscriptionAbortWaitsAndRetries) {
  // The lock is free, so the bounded wait returns immediately and the next
  // attempt commits — no fallback, no timeout recorded.
  ScriptedAbortInjector inj({AbortCause::kLockSubscription});
  ScopedAbortInjector scope(&inj);
  htm::SpinLock lock;
  int ran = 0;
  const auto d = stats_delta([&] { htm::atomic_exec(&lock, [&] { ++ran; }); });
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(d(&H::attempts), 2u);
  EXPECT_EQ(d(&H::injected_lock_subscription), 1u);
  EXPECT_EQ(d(&H::lock_wait_timeouts), 0u);
  EXPECT_EQ(d(&H::fallbacks), 0u);
}

TEST(AbortInjection, MaxAttemptsExhaustionFallsBack) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  ScriptedAbortInjector inj({AbortCause::kConflict, AbortCause::kConflict,
                             AbortCause::kConflict, AbortCause::kConflict});
  ScopedAbortInjector scope(&inj);
  htm::SpinLock lock;
  int ran = 0;
  const auto d =
      stats_delta([&] { htm::atomic_exec(&lock, [&] { ++ran; }, policy); });
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(d(&H::attempts), 3u);  // policy bound, not script length
  EXPECT_EQ(d(&H::fallbacks), 1u);
  EXPECT_EQ(d(&H::lock_acquisitions), 1u);
}

TEST(AbortInjection, BoundedLockWaitTimesOutInsteadOfSpinningForever) {
  // Replaces the old unbounded `while (is_locked()) pause()`: a stalled
  // lock holder makes the waiter give up after lock_wait_pauses pauses and
  // record htm.lock_wait_timeouts.
  htm::SpinLock lock;
  lock.lock();
  RetryPolicy policy;
  policy.lock_wait_pauses = 4;
  const obs::Counter& timeouts = htm::htm_counters().lock_wait_timeouts;
  const std::uint64_t t0 = timeouts.local();
  EXPECT_FALSE(htm::detail::bounded_lock_wait(lock, policy));
  EXPECT_EQ(timeouts.local() - t0, 1u);
  lock.unlock();
  EXPECT_TRUE(htm::detail::bounded_lock_wait(lock, policy));
  EXPECT_EQ(timeouts.local() - t0, 1u);
}

// Keeps the suite name it had when the publish fallback was a striped lock
// table; what it checks (bounded_lock_wait's heatmap attribution) is
// unchanged.
TEST(StripeTableTest, BoundedLockWaitRecordsLockWaitHeat) {
  if (!obs::kOpObservation) GTEST_SKIP() << "heat attribution compiled out";
  ASSERT_TRUE(obs::heatmap_configure({.buckets = 64, .key_space = 0}));
  obs::set_heatmap_enabled(true);
  {
    obs::OpScope scope(obs::OpKind::kOther, 123);
    htm::SpinLock lk;
    lk.lock();
    RetryPolicy p;
    p.lock_wait_pauses = 2;
    const obs::Counter& timeouts = htm::htm_counters().lock_wait_timeouts;
    const std::uint64_t t0 = timeouts.local();
    EXPECT_FALSE(htm::detail::bounded_lock_wait(lk, p));
    EXPECT_EQ(timeouts.local() - t0, 1u);
    lk.unlock();
  }
  const obs::HeatmapSnapshot snap = obs::heatmap_snapshot();
  obs::set_heatmap_enabled(false);
  obs::heatmap_reset();
  EXPECT_GE(snap.totals[static_cast<int>(obs::HeatCause::kLockWait)], 1u);
  EXPECT_GE(snap.totals[static_cast<int>(obs::HeatCause::kLockWaitTimeout)],
            1u);
}

TEST(AbortInjection, NullFallbackLockIsNeverTaken) {
  // A null fallback means the caller's own lock excludes every other
  // writer: the capacity abort still falls back, and a lock-subscription
  // abort has no lock to wait for, but nothing is acquired.
  ScriptedAbortInjector inj(
      {AbortCause::kLockSubscription, AbortCause::kCapacity});
  ScopedAbortInjector scope(&inj);
  int ran = 0;
  const auto d =
      stats_delta([&] { htm::atomic_exec(nullptr, [&] { ++ran; }); });
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(d(&H::attempts), 2u);
  EXPECT_EQ(d(&H::injected_lock_subscription), 1u);
  EXPECT_EQ(d(&H::aborts_capacity), 1u);
  EXPECT_EQ(d(&H::fallbacks), 1u);
  EXPECT_EQ(d(&H::commits), 1u);
  EXPECT_EQ(d(&H::lock_acquisitions), 0u);
  EXPECT_EQ(d(&H::lock_wait_timeouts), 0u);
}

TEST(AbortInjection, PublishFallbacksRunUnderTheLeafLockAlone) {
  // Every slot-line publish runs under its leaf's version lock, so its HTM
  // fallback takes no lock of its own.  Preload with no split pending, then
  // capacity-abort every publish: each one falls back exactly once, no
  // fallback lock is ever acquired, and the contents stay exact.  Ascending
  // preload leaves every leaf but the rightmost about half full (~31 log
  // entries); the update phase stays in the lower half of the key range.
  nvm::PmemPool pool(std::size_t{32} << 20);
  core::RNTree<std::uint64_t, std::uint64_t> tree(pool);
  std::map<std::uint64_t, std::uint64_t> oracle;
  constexpr std::uint64_t kKeys = 2000;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(tree.insert(i, i).ok());
    oracle.emplace(i, i);
  }
  const obs::Counter splits("tree.leaf_splits");
  const obs::Counter shrinks("tree.shrink_splits");
  const std::uint64_t splits0 = splits.value();
  const std::uint64_t shrinks0 = shrinks.value();

  ScriptedAbortInjector inj({AbortCause::kCapacity});
  ScopedAbortInjector scope(&inj);
  std::uint64_t publishes = 0;
  const auto d = stats_delta([&] {
    // Every 4th key: at most 8 fresh log entries per leaf, far from the
    // log-full split threshold.
    for (std::uint64_t k = 0; k < kKeys / 2; k += 4) {
      if (k % 8 == 0) {
        ASSERT_TRUE(tree.update(k, k + 1).ok());
        oracle[k] = k + 1;
      } else {
        ASSERT_TRUE(tree.remove(k));
        oracle.erase(k);
      }
      ++publishes;
    }
  });
  EXPECT_EQ(splits.value(), splits0) << "a publish split a leaf";
  EXPECT_EQ(shrinks.value(), shrinks0);
  EXPECT_EQ(d(&H::fallbacks), publishes);
  EXPECT_EQ(d(&H::aborts_capacity), publishes);
  EXPECT_EQ(d(&H::commits), publishes);
  EXPECT_EQ(d(&H::lock_acquisitions), 0u);
  EXPECT_EQ(tree.size(), oracle.size());
  for (const auto& [k, v] : oracle) ASSERT_EQ(tree.find(k), std::optional(v));
  tree.check_invariants();
}

TEST(AbortInjection, StalledLockHolderDegradesWithoutLivelock) {
  // A subscription abort while another thread sits on the fallback lock:
  // the injected machine's bounded wait times out, retries are spent, and
  // the caller ends on the pessimistic path — blocked on the lock like any
  // mutex waiter, not spinning in the retry loop forever.
  htm::SpinLock lock;
  lock.lock();
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.lock_wait_pauses = 2;
  ScriptedAbortInjector inj(
      {AbortCause::kLockSubscription, AbortCause::kLockSubscription});
  ScopedAbortInjector scope(&inj);
  int ran = 0;
  const obs::Counter& timeouts = htm::htm_counters().lock_wait_timeouts;
  const std::uint64_t timeouts0 = timeouts.value();
  std::thread t([&] { htm::atomic_exec(&lock, [&] { ++ran; }, policy); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lock.unlock();  // un-stall the holder; the waiter completes
  t.join();
  EXPECT_EQ(ran, 1);
  EXPECT_GE(timeouts.value() - timeouts0, 1u);
}

TEST(AbortInjection, MutualExclusionHoldsUnderRandomInjection) {
  // 4 threads increment a PLAIN integer through atomic_exec while a random
  // injector aborts ~35% of attempts across every cause.  Any hole in the
  // injected machine's mutual exclusion (e.g. a "committed" attempt running
  // outside the fallback lock) loses increments.
  htm::RandomAbortInjector inj(/*seed=*/42, /*abort_permille=*/350);
  ScopedAbortInjector scope(&inj);
  htm::SpinLock lock;
  std::uint64_t counter = 0;  // intentionally not atomic
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kOpsPerThread; ++i)
        htm::atomic_exec(&lock, [&] { ++counter; });
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
}

TEST(AbortInjection, TxGuardClosesSimulatedTransactionOnThrow) {
  // Regression for the exception-unsafe bracket: atomic_exec used to call
  // htm_tx_begin(), fn(), htm_tx_commit() straight-line, so a throwing fn
  // left the ShadowPool's simulated transaction open and every LATER store
  // of the thread was wrongly quarantined as speculative.  With TxGuard the
  // bracket closes on unwind: after catching fn's exception, a store +
  // persist must be fully durable.
  nvm::PmemPool pool(std::size_t{2} << 20);
  const std::uint64_t off = pool.alloc(64);
  ASSERT_NE(off, 0u);
  auto* cell = pool.ptr<std::uint64_t>(off);

  nvm::ShadowPool shadow(pool);
  htm::SpinLock lock;
  EXPECT_THROW(
      htm::atomic_exec(&lock, [&] { throw std::runtime_error("fn failed"); }),
      std::runtime_error);
  EXPECT_FALSE(lock.is_locked()) << "fallback lock leaked across the throw";

  nvm::store(*cell, std::uint64_t{0xD00DFEED});
  nvm::persist(cell, sizeof(*cell));
  EXPECT_EQ(shadow.unflushed_lines(), 0u)
      << "store after the throw still treated as speculative: the simulated "
         "transaction was left open";

  // And the end-to-end consequence: the value survives a simulated crash.
  shadow.simulate_crash(nvm::EvictionMode::kNone, 0);
  EXPECT_EQ(*cell, 0xD00DFEEDu);
}

TEST(AbortInjection, ScopedInstallRestoresThePreviousInjector) {
  EXPECT_EQ(htm::abort_injector(), nullptr);
  ScriptedAbortInjector outer({AbortCause::kConflict});
  {
    ScopedAbortInjector s1(&outer);
    EXPECT_EQ(htm::abort_injector(), &outer);
    ScriptedAbortInjector inner({AbortCause::kSpurious});
    {
      ScopedAbortInjector s2(&inner);
      EXPECT_EQ(htm::abort_injector(), &inner);
    }
    EXPECT_EQ(htm::abort_injector(), &outer);
  }
  EXPECT_EQ(htm::abort_injector(), nullptr);
}

TEST(AbortInjection, TreeOpsAreCorrectUnderRandomInjection) {
  // A real RNTree workload with ~40% of attempts aborted across all causes:
  // injection must be invisible to callers (every op lands exactly as a
  // fault-free run would), while the htm.inject.* counters prove the abort
  // paths actually ran.
  htm::RandomAbortInjector inj(/*seed=*/7, /*abort_permille=*/400);
  ScopedAbortInjector scope(&inj);

  nvm::PmemPool pool(std::size_t{32} << 20);
  core::RNTree<std::uint64_t, std::uint64_t> tree(pool);
  std::map<std::uint64_t, std::uint64_t> oracle;
  const auto d = stats_delta([&] {
    for (std::uint64_t i = 0; i < 3000; ++i) {
      const std::uint64_t k = (i * 2654435761u) % 1024;
      if (i % 3 == 0) {
        if (tree.insert(k, i)) oracle.emplace(k, i);
      } else if (i % 3 == 1) {
        if (tree.update(k, i)) oracle[k] = i;
      } else {
        if (tree.remove(k)) oracle.erase(k);
      }
    }
  });
  EXPECT_GT(d(&H::injected_conflict) + d(&H::injected_capacity) +
                d(&H::injected_spurious) + d(&H::injected_lock_subscription),
            0u)
      << "workload never reached an injected abort";
  EXPECT_EQ(tree.size(), oracle.size());
  for (const auto& [k, v] : oracle) {
    const auto got = tree.find(k);
    ASSERT_TRUE(got.has_value()) << "key " << k << " lost under injection";
    EXPECT_EQ(*got, v) << "key " << k << " has a stale value under injection";
  }
}

}  // namespace
}  // namespace rnt
