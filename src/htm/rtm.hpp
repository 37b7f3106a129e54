// Hardware transactional memory wrapper (Intel RTM) with software fallback.
//
// atomic_exec(fallback, fn) runs fn() with multi-word atomic visibility:
//   * On TSX-capable CPUs (runtime CPUID check) it retries fn() inside an
//     RTM transaction, subscribing to the fallback lock per the standard
//     lock-elision idiom, then falls back to the lock.
//   * Elsewhere (or whenever a ShadowPool crash simulator is attached, which
//     needs deterministic execution) it runs fn() under the fallback lock,
//     bracketed by nvm::htm_tx_begin/commit so the crash simulator models
//     RTM's "speculative stores never reach memory" guarantee.
//   * When an AbortInjector is installed (htm/abort_inject.hpp) the retry
//     machine runs against injected aborts instead, so the full
//     retry -> backoff -> fallback policy executes deterministically on any
//     host.  The "committed" attempt runs under the fallback lock for real
//     mutual exclusion.
//
// A null fallback lock means the CALLER's lock already excludes every other
// writer of fn's footprint (RNTree's slot-line publish runs under the leaf
// version lock).  Then no attempt subscribes to a lock and the fallback, the
// software tier and the injected commit run fn inside the transaction
// bracket alone: the transaction still gives the line its crash atomicity,
// and exclusion comes from the caller.
//
// Abort handling is governed by RetryPolicy: capacity aborts fall back
// immediately (the write set will never fit), conflicts retry under bounded
// exponential backoff, spurious aborts get a small retry budget, and waiting
// for a held fallback lock is bounded by a starvation cap (counted in
// htm.lock_wait_timeouts) instead of the unbounded spin it used to be —
// a stalled lock holder degrades us to the pessimistic path, never livelock.
//
// The RTM intrinsics live in rtm.cpp, the only TU compiled with -mrtm, so
// the rest of the library builds and runs on any x86-64.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "htm/abort_inject.hpp"
#include "htm/spinlock.hpp"
#include "nvm/persist.hpp"
#include "obs/heatmap.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace rnt::htm {

/// Transaction counters (htm.*), one registry family shared by every
/// atomic_exec caller; per-thread counts via Counter::local().
struct HtmCounters {
  obs::Counter attempts{"htm.attempts"};
  obs::Counter commits{"htm.commits"};
  obs::Counter aborts_conflict{"htm.aborts_conflict"};
  obs::Counter aborts_capacity{"htm.aborts_capacity"};
  obs::Counter aborts_other{"htm.aborts_other"};
  obs::Counter fallbacks{"htm.fallbacks"};
  /// Fallback-lock critical sections.
  obs::Counter lock_acquisitions{"htm.lock_acquisitions"};
  /// Bounded lock-waits that hit the starvation cap.
  obs::Counter lock_wait_timeouts{"htm.lock_wait_timeouts"};
  // Injected-abort attribution (htm.inject.*): how many of the abort counts
  // above were manufactured by the installed AbortInjector.
  obs::Counter injected_conflict{"htm.inject.conflict"};
  obs::Counter injected_capacity{"htm.inject.capacity"};
  obs::Counter injected_spurious{"htm.inject.spurious"};
  obs::Counter injected_lock_subscription{"htm.inject.lock_subscription"};
};

inline const HtmCounters& htm_counters() {
  static const HtmCounters c;
  return c;
}

/// True when this CPU executes RTM transactions (CPUID leaf 7 EBX bit 11).
bool rtm_supported() noexcept;

/// Cause-aware retry policy for the HTM state machine.
///   * capacity abort        -> immediate fallback (never retried)
///   * conflict abort        -> retry with bounded exponential backoff
///   * spurious abort        -> at most max_spurious_retries retries
///   * lock-subscription     -> bounded wait for the lock, then retry
/// All attempts are bounded by max_attempts; waiting for the fallback lock
/// is bounded by lock_wait_pauses Backoff::pause() calls (each pause spins
/// an exponentially growing, capped number of cpu_relax iterations), after
/// which the waiter records htm.lock_wait_timeouts and escalates instead of
/// spinning forever behind a stalled lock holder.
struct RetryPolicy {
  int max_attempts = 10;
  int max_spurious_retries = 2;
  std::uint32_t lock_wait_pauses = 64;
};

/// Process-wide default policy.  Mutable so tests/benches can tighten knobs;
/// mutate only while no atomic_exec is in flight.
RetryPolicy& default_retry_policy() noexcept;

namespace detail {

/// Brackets a simulated transaction (ShadowPool modelling of RTM's
/// "speculative stores never reach memory") with commit-on-unwind.  The
/// software paths execute fn's stores for real, so if fn throws the stores
/// have happened and the simulated transaction must still close — leaving it
/// open would wrongly quarantine every later store of the thread as
/// speculative.  During a simulated CrashPoint unwind the ShadowPool has
/// already marked itself crashed and tx_commit() is a no-op, so in-flight
/// speculative lines are correctly discarded by the crash.
class TxGuard {
 public:
  TxGuard() noexcept { nvm::htm_tx_begin(); }
  ~TxGuard() { nvm::htm_tx_commit(); }
  TxGuard(const TxGuard&) = delete;
  TxGuard& operator=(const TxGuard&) = delete;
};

/// Wait for @p fallback to be released, bounded by the policy's starvation
/// cap.  Returns true when the lock was observed free, false on timeout
/// (counted in htm.lock_wait_timeouts).
inline bool bounded_lock_wait(SpinLock& fallback,
                              const RetryPolicy& policy) noexcept {
  Backoff bo;
  for (std::uint32_t waited = 0; fallback.is_locked(); ++waited) {
    // kLockWait marks the episode (the lock was held at all); the timeout
    // cause below additionally marks episodes that hit the starvation cap.
    // Together they make storm serialization visible per key range.
    if (waited == 0) obs::heatmap_record(obs::HeatCause::kLockWait);
    if (waited >= policy.lock_wait_pauses) {
      htm_counters().lock_wait_timeouts.inc();
      obs::heatmap_record(obs::HeatCause::kLockWaitTimeout);
      return false;
    }
    bo.pause();
  }
  return true;
}

/// Run fn inside the simulated transaction bracket, then release
/// @p fallback — already held by the caller — unless it is null.
template <typename Fn>
void run_bracketed(SpinLock* fallback, Fn&& fn) {
  struct Release {
    SpinLock* lock;
    ~Release() {
      if (lock != nullptr) lock->unlock();
    }
  } release{fallback};
  TxGuard tx;  // commit-or-abort on unwind (exception safety)
  std::forward<Fn>(fn)();
}

/// Injected retry machine: one simulated HTM attempt loop driven by the
/// installed AbortInjector.  Returns true when an attempt "committed" (fn
/// ran under @p fallback, or under the caller's lock when it is null);
/// false when the policy demands the caller's fallback path.
template <typename Fn>
bool run_injected(AbortInjector& inj, SpinLock* fallback, Fn& fn,
                  const RetryPolicy& policy) {
  const HtmCounters& ctr = htm_counters();
  Backoff conflict_bo;
  int spurious = 0;
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    ctr.attempts.inc();
    const std::optional<AbortCause> cause = inj.on_attempt(attempt);
    if (!cause.has_value()) {
      // Simulated commit: mutual exclusion comes from the fallback lock, or
      // the caller's when it is null (the attempt cannot execute
      // speculatively), durability modelling from the simulated
      // transaction bracket.
      if (fallback != nullptr) fallback->lock();
      run_bracketed(fallback, fn);
      ctr.commits.inc();
      return true;
    }
    switch (*cause) {
      case AbortCause::kCapacity:
        ctr.aborts_capacity.inc();
        ctr.injected_capacity.inc();
        obs::heatmap_record(obs::HeatCause::kCapacity);
        return false;  // the write set will never fit; fall back now
      case AbortCause::kConflict:
        ctr.aborts_conflict.inc();
        ctr.injected_conflict.inc();
        obs::heatmap_record(obs::HeatCause::kConflict);
        conflict_bo.pause();  // bounded exponential backoff
        break;
      case AbortCause::kSpurious:
        ctr.aborts_other.inc();
        ctr.injected_spurious.inc();
        obs::heatmap_record(obs::HeatCause::kOther);
        if (++spurious > policy.max_spurious_retries) return false;
        break;
      case AbortCause::kLockSubscription:
        ctr.aborts_other.inc();
        ctr.injected_lock_subscription.inc();
        obs::heatmap_record(obs::HeatCause::kOther);
        if (fallback != nullptr) bounded_lock_wait(*fallback, policy);
        break;
    }
  }
  return false;
}

#if defined(RNTREE_HAVE_RTM)
inline constexpr unsigned kXBeginStarted = ~0u;
inline constexpr unsigned kAbortExplicit = 1u << 0;
inline constexpr unsigned kAbortRetry = 1u << 1;
inline constexpr unsigned kAbortConflict = 1u << 2;
inline constexpr unsigned kAbortCapacity = 1u << 3;
/// xabort code used for the fallback-lock subscription abort.
inline constexpr unsigned kSubscriptionCode = 0xffu;
unsigned xbegin() noexcept;  // compiled with -mrtm in rtm.cpp
void xend() noexcept;
void xabort_conflict() noexcept;

/// Real-hardware retry machine.  Returns true on commit, false when the
/// policy demands the fallback path.  A null @p fallback is never
/// subscribed to: no other writer of fn's footprint can run a fallback.
template <typename Fn>
bool run_rtm(SpinLock* fallback, Fn& fn, const RetryPolicy& policy) {
  const HtmCounters& ctr = htm_counters();
  Backoff conflict_bo;
  int spurious = 0;
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    ctr.attempts.inc();
    const unsigned status = xbegin();
    if (status == kXBeginStarted) {
      // Subscribe to the fallback lock: abort if a pessimistic writer is
      // active and pull the lock word into the read set so its release
      // aborts us (standard lock-elision idiom).
      if (fallback != nullptr && fallback->is_locked()) xabort_conflict();
      fn();
      xend();
      ctr.commits.inc();
      return true;
    }
    if ((status & kAbortCapacity) != 0) {
      ctr.aborts_capacity.inc();
      obs::heatmap_record(obs::HeatCause::kCapacity);
      return false;  // will not fit; go straight to the lock
    }
    if ((status & kAbortExplicit) != 0 &&
        ((status >> 24) & 0xffu) == kSubscriptionCode) {
      // Our own subscription abort (issued only with a non-null fallback):
      // wait (bounded) for the lock holder, then retry; does not consume
      // the spurious budget.
      ctr.aborts_other.inc();
      obs::heatmap_record(obs::HeatCause::kOther);
      bounded_lock_wait(*fallback, policy);
      continue;
    }
    if ((status & kAbortConflict) != 0) {
      ctr.aborts_conflict.inc();
      obs::heatmap_record(obs::HeatCause::kConflict);
      conflict_bo.pause();  // bounded exponential backoff
    } else {
      ctr.aborts_other.inc();
      obs::heatmap_record(obs::HeatCause::kOther);
      if ((status & kAbortRetry) == 0 && ++spurious > policy.max_spurious_retries)
        return false;
    }
    if (fallback != nullptr && fallback->is_locked())
      bounded_lock_wait(*fallback, policy);
  }
  return false;
}
#endif

}  // namespace detail

/// Execute @p fn atomically w.r.t. every other atomic_exec on the same
/// @p fallback lock and w.r.t. readers using seqlock validation.  A null
/// @p fallback asserts that a lock the caller holds already excludes every
/// other writer of fn's footprint; fn then runs without any further lock.
template <typename Fn>
void atomic_exec(SpinLock* fallback, Fn&& fn,
                 const RetryPolicy& policy = default_retry_policy()) {
  const HtmCounters& ctr = htm_counters();
  if (AbortInjector* inj = abort_injector()) {
    obs::PhaseTimer pt(obs::Phase::kHtm);
    if (detail::run_injected(*inj, fallback, fn, policy)) return;
    ctr.fallbacks.inc();
    obs::heatmap_record(obs::HeatCause::kFallback);
  }
#if defined(RNTREE_HAVE_RTM)
  else if (rtm_supported() && nvm::shadow_active() == nullptr) {
    obs::PhaseTimer pt(obs::Phase::kHtm);
    if (detail::run_rtm(fallback, fn, policy)) return;
    ctr.fallbacks.inc();
    obs::heatmap_record(obs::HeatCause::kFallback);
  }
#endif
  if (fallback != nullptr) {
    obs::PhaseTimer wait(obs::Phase::kLockWait);
    fallback->lock();
    ctr.lock_acquisitions.inc();
  }
  detail::run_bracketed(fallback, std::forward<Fn>(fn));
  ctr.commits.inc();
}

}  // namespace rnt::htm
