// The per-op observation context: one thread-local record, one arm word, and
// the phase timer that feeds it.
//
// Every tree operation opens one obs::OpScope (obs/op_scope.hpp).  What it
// observes lives in ONE constant-initialised thread-local record per thread
// (detail::t_op — the tdata_t idiom of the rcu-htm exemplars):
//
//   * the phase tick accumulators PhaseTimer adds to;
//   * the open op's frame: its kind, key, leaf and outcome, the heat bucket
//     it targets (read by heatmap_record() at every abort, fallback and
//     lock-wait site in htm/rtm.hpp), and its start snapshot (clock, persist
//     and HTM counters, phase ticks) that OpScope diffs when it closes.
//
// Three consumers arm the record, each one bit of one process-wide arm word
// kept in sync by its existing setter: tracing (set_trace_capacity), phase
// timing (set_phase_timing / --sample-ms / --perfetto) and the heatmap
// (set_heatmap_enabled).  A disarmed OpScope or PhaseTimer costs one relaxed
// load of that word and a branch.
//
// Phases split each op's wall time four ways, on thread-local TSC ticks:
//
//   kHtm      — inside the HTM retry machine: attempts, aborts, conflict
//               backoff, bounded lock-subscription waits, and the committed
//               section itself (htm/rtm.hpp wraps both retry machines)
//   kLockWait — blocked acquiring a lock: the HTM fallback spinlock and the
//               leaf version-lock in RNTree's modify/remove paths
//   kPersist  — inside nvm::persist() compounds (flush + fence drain,
//               including the injected NVM write latency)
//   kSmo      — structure modifications (leaf split / shrink split),
//               INCLUSIVE of the persists they issue
//
// Phases deliberately overlap where the code does (an SMO's persists count
// in both kSmo and kPersist); they are attributions, not a partition.
// OpScope records each nonzero per-op share into the `lat.phase.*`
// histograms and the TraceEvent phase fields; the DES simulator records its
// virtual-time delays through record_phase_ns() directly.
//
// Compile-out: -DRNTREE_OP_OBSERVATION=OFF defines RNTREE_NO_OP_OBSERVATION.
// The phase and heat bits can then never be set, so phase timing and heat
// attribution compile to nothing at every call site; ops still reach the
// trace ring.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/timing.hpp"
#include "obs/trace.hpp"

namespace rnt::obs {

#if defined(RNTREE_NO_OP_OBSERVATION)
inline constexpr bool kOpObservation = false;
#else
inline constexpr bool kOpObservation = true;
#endif

enum class Phase : std::uint8_t { kHtm = 0, kLockWait, kPersist, kSmo };
inline constexpr int kPhaseCount = 4;

const char* to_string(Phase p) noexcept;

/// Per-thread phase tick totals (TSC units; convert via phase_ticks_to_ns).
struct PhaseTicks {
  std::uint64_t t[kPhaseCount];
};

namespace detail {

inline constexpr std::uint32_t kArmTrace = 1u << 0;
inline constexpr std::uint32_t kArmPhase = 1u << 1;
inline constexpr std::uint32_t kArmHeat = 1u << 2;

extern std::atomic<std::uint32_t> g_arm;
void set_arm(std::uint32_t bit, bool on) noexcept;
inline std::uint32_t armed() noexcept {
  return g_arm.load(std::memory_order_relaxed);
}

/// The op this thread has open (mask 0: none).
struct OpFrame {
  std::uint32_t mask;         ///< arm bits captured when the op opened
  std::uint32_t heat_bucket;  ///< meaningful only when mask has kArmHeat
  OpKind kind;
  OpResult result;
  std::uint64_t key;
  std::uint64_t leaf;
  std::uint64_t t0;
  std::uint64_t persists;
  std::uint64_t attempts;
  std::uint64_t aborts_conflict;
  std::uint64_t aborts_capacity;
  std::uint64_t aborts_other;
  std::uint64_t fallbacks;
  PhaseTicks phase;
};

/// The per-thread record.  Constant-initialised POD; constinit on the
/// declaration lets every including TU skip the TLS init wrapper.
struct OpContext {
  PhaseTicks phase;  ///< cumulative ticks, added to by PhaseTimer
  OpFrame op;
};
extern constinit thread_local OpContext t_op;

}  // namespace detail

inline bool phase_timing_enabled() noexcept {
  return kOpObservation && (detail::armed() & detail::kArmPhase) != 0;
}

/// Arm/disarm phase timing process-wide.  Enabling eagerly registers the
/// lat.phase.* histograms so they appear in exports even before the first
/// op completes.  A no-op when compiled out.
void set_phase_timing(bool on) noexcept;

/// This thread's cumulative phase ticks (diff around an op for its share).
inline PhaseTicks phase_ticks_snapshot() noexcept { return detail::t_op.phase; }

/// Record @p ns into the lat.phase.* histogram for @p p (registry-backed,
/// thread-sharded).  Used by OpScope's per-op diff and by the DES simulator
/// for virtual-time attribution.
void record_phase_ns(Phase p, std::uint64_t ns);

/// TSC ticks -> nanoseconds via the calibrated ratio.
std::uint64_t phase_ticks_to_ns(std::uint64_t ticks) noexcept;

/// RAII cycle timer: adds the scope's TSC ticks to this thread's
/// accumulator for one phase.
class PhaseTimer {
 public:
  explicit PhaseTimer(Phase p) noexcept {
    if (!phase_timing_enabled()) return;
    slot_ = &detail::t_op.phase.t[static_cast<int>(p)];
    t0_ = rdtsc();
  }
  ~PhaseTimer() {
    if (slot_ != nullptr) *slot_ += rdtsc() - t0_;
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  std::uint64_t* slot_ = nullptr;
  std::uint64_t t0_ = 0;
};

}  // namespace rnt::obs
