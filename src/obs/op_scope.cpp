#include "obs/op_scope.hpp"

#include <exception>

#include "htm/rtm.hpp"
#include "nvm/persist.hpp"
#include "obs/heatmap.hpp"
#include "obs/metrics.hpp"

namespace rnt::obs {

namespace detail {
std::atomic<std::uint32_t> g_arm{0};
constinit thread_local OpContext t_op{};

void set_arm(std::uint32_t bit, bool on) noexcept {
  if (on)
    g_arm.fetch_or(bit, std::memory_order_relaxed);
  else
    g_arm.fetch_and(~bit, std::memory_order_relaxed);
}
}  // namespace detail

namespace {

constexpr std::uint32_t kArmTimed = detail::kArmTrace | detail::kArmPhase;

// One log-bucketed registry histogram per phase, keyed by the Phase enum.
struct PhaseHists {
  Histogram h[kPhaseCount] = {
      Histogram("lat.phase.htm"),
      Histogram("lat.phase.lock_wait"),
      Histogram("lat.phase.persist"),
      Histogram("lat.phase.smo"),
  };
};

PhaseHists& phase_hists() {
  static PhaseHists p;
  return p;
}

// Per-kind op counters and latency histograms, keyed by the OpKind enum.
struct OpMetrics {
  Counter completed{"op.completed"};
  Counter by_kind[kOpKindCount] = {
      Counter("op.find"),   Counter("op.insert"), Counter("op.update"),
      Counter("op.upsert"), Counter("op.remove"), Counter("op.scan"),
      Counter("op.other"),
  };
  Histogram lat_by_kind[kOpKindCount] = {
      Histogram("lat.op.find"),   Histogram("lat.op.insert"),
      Histogram("lat.op.update"), Histogram("lat.op.upsert"),
      Histogram("lat.op.remove"), Histogram("lat.op.scan"),
      Histogram("lat.op.other"),
  };
};

OpMetrics& op_metrics() {
  static OpMetrics m;
  return m;
}

}  // namespace

const char* to_string(Phase p) noexcept {
  switch (p) {
    case Phase::kHtm: return "htm";
    case Phase::kLockWait: return "lock_wait";
    case Phase::kPersist: return "persist";
    case Phase::kSmo: return "smo";
  }
  return "?";
}

void record_phase_ns(Phase p, std::uint64_t ns) {
  phase_hists().h[static_cast<int>(p)].record(ns);
}

std::uint64_t phase_ticks_to_ns(std::uint64_t ticks) noexcept {
  return static_cast<std::uint64_t>(static_cast<double>(ticks) / tsc_per_ns());
}

void set_phase_timing(bool on) noexcept {
  if (!kOpObservation) return;
  if (on) {
    (void)phase_hists();   // register lat.phase.* before the first op
    (void)tsc_per_ns();    // calibrate outside any timed region
  }
  detail::set_arm(detail::kArmPhase, on);
}

void OpScope::begin(OpKind kind, std::uint64_t key, std::uint32_t arm) noexcept {
  detail::OpFrame& f = detail::t_op.op;
  outer_.mask = 0;
  if (f.mask != 0) outer_ = f;  // nested: restored when this scope closes
  mask_ = arm;
  f.mask = arm;
  f.kind = kind;
  f.result = OpResult::kUnknown;
  f.key = key;
  f.leaf = 0;
  if ((arm & kArmTimed) != 0) {
    const htm::HtmCounters& h = htm::htm_counters();
    f.t0 = now_ns();
    f.persists = nvm::persist_counters().persist.local();
    f.attempts = h.attempts.local();
    f.aborts_conflict = h.aborts_conflict.local();
    f.aborts_capacity = h.aborts_capacity.local();
    f.aborts_other = h.aborts_other.local();
    f.fallbacks = h.fallbacks.local();
    f.phase = detail::t_op.phase;
  }
  if ((arm & detail::kArmHeat) != 0) detail::heat_set_target(key);
}

void OpScope::set_leaf(std::uint64_t off) noexcept {
  detail::t_op.op.leaf = off;
}

void OpScope::end() noexcept {
  detail::OpFrame& f = detail::t_op.op;
  if (f.result == OpResult::kUnknown && std::uncaught_exceptions() > 0)
    f.result = OpResult::kCrash;
  if ((mask_ & kArmTimed) != 0) {
    const std::uint64_t ts = now_ns();
    const std::uint64_t latency = ts - f.t0;
    const PhaseTicks p1 = detail::t_op.phase;
    std::uint64_t phase_ns[kPhaseCount];
    for (int i = 0; i < kPhaseCount; ++i)
      phase_ns[i] = phase_ticks_to_ns(p1.t[i] - f.phase.t[i]);

    if ((mask_ & detail::kArmPhase) != 0) {
      OpMetrics& m = op_metrics();
      const auto k = static_cast<std::size_t>(f.kind);
      m.completed.inc();
      m.by_kind[k].inc();
      m.lat_by_kind[k].record(latency);
      for (int i = 0; i < kPhaseCount; ++i)
        if (phase_ns[i] != 0) record_phase_ns(static_cast<Phase>(i), phase_ns[i]);
    }

    if ((mask_ & detail::kArmTrace) != 0) {
      const htm::HtmCounters& h = htm::htm_counters();
      TraceEvent ev{};
      ev.ts_ns = ts;
      ev.key = f.key;
      ev.leaf_off = f.leaf;
      ev.latency_ns = latency;
      ev.htm_attempts =
          static_cast<std::uint32_t>(h.attempts.local() - f.attempts);
      ev.persists = static_cast<std::uint32_t>(
          nvm::persist_counters().persist.local() - f.persists);
      ev.op = static_cast<std::uint16_t>(f.kind);
      ev.result = static_cast<std::uint16_t>(f.result);
      ev.aborts_conflict = static_cast<std::uint16_t>(
          h.aborts_conflict.local() - f.aborts_conflict);
      ev.aborts_capacity = static_cast<std::uint16_t>(
          h.aborts_capacity.local() - f.aborts_capacity);
      ev.aborts_other =
          static_cast<std::uint16_t>(h.aborts_other.local() - f.aborts_other);
      ev.fallbacks =
          static_cast<std::uint16_t>(h.fallbacks.local() - f.fallbacks);
      ev.phase_htm_ns = static_cast<std::uint32_t>(phase_ns[0]);
      ev.phase_lock_ns = static_cast<std::uint32_t>(phase_ns[1]);
      ev.phase_persist_ns = static_cast<std::uint32_t>(phase_ns[2]);
      ev.phase_smo_ns = static_cast<std::uint32_t>(phase_ns[3]);
      trace(ev);
    }
  }
  if (outer_.mask != 0)
    f = outer_;
  else
    f.mask = 0;
}

}  // namespace rnt::obs
