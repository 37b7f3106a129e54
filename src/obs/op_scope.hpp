// OpScope — the one per-operation observation scope.
//
// Every tree op (RNTree and the four baselines) opens exactly one at its
// entry point.  Construction loads the arm word (obs/phase.hpp) once; when
// nothing is armed that load and a branch are the whole cost, and the
// destructor is one more branch.  When armed, the scope writes the op's
// frame into this thread's OpContext record and, when it closes, serves
// each armed consumer from it:
//
//   * tracing: one TraceEvent into the flight-recorder ring, with the
//     persist, HTM-attempt, abort-cause, fallback and phase fields diffed
//     from the start snapshot;
//   * phase timing: the `op.completed` and `op.<kind>` counters the
//     time-series sampler differences, the `lat.op.<kind>` latency
//     histogram, and each nonzero phase share into `lat.phase.*`;
//   * heatmap: the key's bucket is the thread's heat target while the op is
//     open (one kOp event).
//
// Scopes nest: an inner scope stashes the enclosing op's frame and restores
// it on exit, so post-op aborts never inherit a stale heat target.  An op
// unwound by an exception (e.g. an injected nvm::CrashPoint) still records,
// with result kCrash — that trailing event is what a post-mortem wants.
#pragma once

#include <cstdint>

#include "obs/phase.hpp"
#include "obs/trace.hpp"

namespace rnt::obs {

class OpScope {
 public:
  OpScope(OpKind kind, std::uint64_t key) noexcept {
    const std::uint32_t arm = detail::armed();
    if (arm != 0) begin(kind, key, arm);
  }
  ~OpScope() {
    if (mask_ != 0) end();
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  /// Pool offset of the leaf the op landed on.
  void leaf(std::uint64_t off) noexcept {
    if (mask_ != 0) set_leaf(off);
  }

  /// Outcome: true -> kOk, false -> kMiss.  Returns @p ok so call sites can
  /// write `return op.finish(did_succeed);`.
  bool finish(bool ok) noexcept {
    if (mask_ != 0) detail::t_op.op.result = ok ? OpResult::kOk : OpResult::kMiss;
    return ok;
  }

 private:
  void begin(OpKind kind, std::uint64_t key, std::uint32_t arm) noexcept;
  void set_leaf(std::uint64_t off) noexcept;
  void end() noexcept;

  std::uint32_t mask_ = 0;
  /// The enclosing op's frame (mask 0: none).  Deliberately left
  /// uninitialised so a disarmed scope stores nothing: begin() writes it
  /// and only end(), which runs only after begin(), reads it.
  detail::OpFrame outer_;
};

}  // namespace rnt::obs
