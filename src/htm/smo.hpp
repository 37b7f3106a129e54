// Transaction profile for copy-on-write SMO install transactions.
//
// Every structure modification (src/inner) builds its replacement nodes out
// of place and publishes them by swapping ONE pointer inside a short HTM
// transaction that first validates the recorded traversal path.  That
// install transaction has a very different shape from the leaf-path
// transactions rtm.hpp was tuned for:
//
//   * its write set is a single cache line (the swapped child slot or the
//     root pointer), so a capacity abort means something is deeply wrong —
//     no point retrying;
//   * validation failure is expected under contention (a concurrent install
//     republished part of the path) and is handled by the CALLER rebuilding
//     from a fresh traversal, not by the retry machine — so the policy keeps
//     the attempt budget short instead of burning backoff cycles;
//   * aborts/fallbacks on this path are worth separating from the leaf
//     path's when diagnosing a capacity-abort storm, hence the dedicated
//     htm.smo.* counter family.
#pragma once

#include <optional>

#include "htm/abort_inject.hpp"
#include "htm/rtm.hpp"
#include "obs/metrics.hpp"

namespace rnt::htm {

/// Retry policy for COW install transactions: short attempt budget (path
/// validation failures are resolved by re-traversing, not retrying in
/// place), a single spurious retry, and a short bounded lock wait so an
/// install racing a locked install round reaches its own fallback quickly.
inline const RetryPolicy& smo_install_policy() noexcept {
  static const RetryPolicy p{/*max_attempts=*/4, /*max_spurious_retries=*/1,
                             /*lock_wait_pauses=*/32};
  return p;
}

/// Cause counters for the COW SMO machinery, one registry family shared by
/// every InnerTree instantiation (pattern of inner.* / htm.* counters).
struct SmoCounters {
  obs::Counter installs{"htm.smo.installs"};  ///< committed installs
  obs::Counter root_installs{"htm.smo.root_installs"};  ///< swapped root_
  /// Path validation failed (a concurrent install republished part of the
  /// recorded path); the round's copies are discarded and it starts over.
  obs::Counter validation_failures{"htm.smo.validation_failures"};
  /// Lock-free rounds exhausted; the round ran holding the SMO lock.
  obs::Counter retry_fallbacks{"htm.smo.retry_fallbacks"};
};

inline SmoCounters& smo_counters() {
  static SmoCounters c;
  return c;
}

// ---------------------------------------------------------------------------
// Install-transaction marker.  True on this thread while an SMO install is
// executing its atomic_exec.
// Fault tests use it to aim abort storms at install transactions only
// (differential FaultCowSmo mode, smo_stress capacity measurement) or at
// everything else (the publish storms).
// ---------------------------------------------------------------------------

namespace detail {
inline thread_local bool t_in_smo_install = false;
}  // namespace detail

inline bool in_smo_install() noexcept { return detail::t_in_smo_install; }

class SmoInstallScope {
 public:
  SmoInstallScope() noexcept : prev_(detail::t_in_smo_install) {
    detail::t_in_smo_install = true;
  }
  ~SmoInstallScope() { detail::t_in_smo_install = prev_; }
  SmoInstallScope(const SmoInstallScope&) = delete;
  SmoInstallScope& operator=(const SmoInstallScope&) = delete;

 private:
  bool prev_;
};

/// Injector adapter that fires an inner injector only inside SMO install
/// transactions: everything else commits untouched.  This is how the
/// differential fault mode and the capacity-abort measurement target the
/// install path without background noise from leaf-path transactions.
class SmoTargetedInjector final : public AbortInjector {
 public:
  explicit SmoTargetedInjector(AbortInjector& inner) : inner_(inner) {}

  std::optional<AbortCause> on_attempt(int attempt) override {
    if (!in_smo_install()) return std::nullopt;
    return inner_.on_attempt(attempt);
  }

 private:
  AbortInjector& inner_;
};

/// The complement: fires the inner injector only OUTSIDE SMO install
/// transactions, i.e. on the leaf-path slot publishes.  Aims a storm at the
/// publishes' lock-free fallback while every structural install commits.
class PublishTargetedInjector final : public AbortInjector {
 public:
  explicit PublishTargetedInjector(AbortInjector& inner) : inner_(inner) {}

  std::optional<AbortCause> on_attempt(int attempt) override {
    if (in_smo_install()) return std::nullopt;
    return inner_.on_attempt(attempt);
  }

 private:
  AbortInjector& inner_;
};

}  // namespace rnt::htm
