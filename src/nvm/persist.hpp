// Persistent-instruction primitives for the emulated NVM.
//
// The paper reasons about performance in units of "persistent instructions":
// a cache-line flush (CLFLUSH/CLWB) followed by a fence, which together push
// dirty lines from the cache into the NVM and stall until they are durable.
// This module provides those primitives for the emulated NVM:
//
//   * clwb(p)            -- enqueue the line containing p for writeback
//   * sfence()           -- drain pending writebacks; charges the configured
//                           NVM write latency (default 140 ns, the paper's
//                           NVDIMM write latency) via calibrated busy-wait
//   * persist(p, n)      -- clwb every line of [p, p+n) + sfence; counted as
//                           ONE persistent instruction (the paper's compound)
//
// plus interception-aware store helpers.  All writes to NVM-resident,
// *persistent* data must go through store()/copy_nvm()/on_modified() so the
// crash simulator (shadow.hpp) can track which cache lines are dirty,
// write-pending, or inside an emulated HTM transaction.  When no ShadowPool
// is attached the overhead is one relaxed atomic load + predictable branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/cacheline.hpp"
#include "obs/metrics.hpp"

namespace rnt::nvm {

class ShadowPool;

/// Latency model for the emulated NVM medium.
struct NvmConfig {
  /// Stall charged by a fence that drains at least one pending line.
  /// Default matches the paper's measured NVDIMM write latency (140 ns).
  std::uint32_t write_latency_ns = 140;
  /// Additional cost per pending line beyond the first (bandwidth term;
  /// 64 B / 34 GB/s ~= 2 ns on the paper's testbed).
  std::uint32_t per_line_ns = 2;
};

/// Global mutable configuration.  Set before running a benchmark; not
/// synchronized (configure from one thread before spawning workers).
NvmConfig& config() noexcept;

/// Persistent-instruction counters (nvm.*), per-thread via Counter::local():
/// snapshot/diff around a workload to obtain per-operation persist counts,
/// as bench_table1 does.  Group persistency is counted separately
/// (batch_persist/batch_fence) so that `persist` remains exactly the paper's
/// Table-1 "persistent instruction" count: a deferred flush inside a
/// BatchScope never inflates or deflates the single-op totals.
struct PersistCounters {
  obs::Counter clwb{"nvm.clwb"};    ///< individual line writebacks issued
  obs::Counter fence{"nvm.fence"};  ///< fences issued
  /// persist() compounds ("persistent instructions").
  obs::Counter persist{"nvm.persist"};
  obs::Counter lines{"nvm.lines"};  ///< total lines drained by fences
  /// Deferred (fence-less) flush compounds.
  obs::Counter batch_persist{"nvm.batch_persist"};
  /// Trailing batch barriers issued.
  obs::Counter batch_fence{"nvm.batch_fence"};
};

inline const PersistCounters& persist_counters() {
  static const PersistCounters c;
  return c;
}

namespace detail {
extern std::atomic<ShadowPool*> g_shadow;
extern thread_local std::uint32_t tls_pending_lines;

void shadow_on_store(const void* p, std::size_t n);
void shadow_on_clwb(const void* p);
void shadow_on_fence();
void shadow_tx_begin();
void shadow_tx_commit();
}  // namespace detail

/// The ShadowPool currently intercepting NVM traffic, or nullptr.
inline ShadowPool* shadow_active() noexcept {
  return detail::g_shadow.load(std::memory_order_relaxed);
}

/// Store a trivially copyable value to a persistent NVM location.
template <typename T>
inline void store(T& dst, const T& v) noexcept(false) {
  static_assert(std::is_trivially_copyable_v<T>);
  dst = v;
  if (shadow_active() != nullptr) detail::shadow_on_store(&dst, sizeof(T));
}

/// Store with release ordering to an atomic persistent field (e.g. a bitmap
/// or an append counter read by concurrent readers).
template <typename T>
inline void store_release(std::atomic<T>& dst, T v) noexcept(false) {
  dst.store(v, std::memory_order_release);
  if (shadow_active() != nullptr) detail::shadow_on_store(&dst, sizeof(T));
}

/// memcpy into persistent NVM.
inline void copy_nvm(void* dst, const void* src, std::size_t n) noexcept(false) {
  std::memcpy(dst, src, n);
  if (shadow_active() != nullptr) detail::shadow_on_store(dst, n);
}

/// memset over persistent NVM.
inline void set_nvm(void* dst, int byte, std::size_t n) noexcept(false) {
  std::memset(dst, byte, n);
  if (shadow_active() != nullptr) detail::shadow_on_store(dst, n);
}

/// Notify the crash simulator that [p, p+n) was modified by code that could
/// not route every store through store()/copy_nvm() (e.g. placement-init of a
/// fresh node).  Call AFTER the writes.
inline void on_modified(const void* p, std::size_t n) noexcept(false) {
  if (shadow_active() != nullptr) detail::shadow_on_store(p, n);
}

/// Initiate writeback of the cache line containing @p p (CLWB emulation).
/// Asynchronous: durability and the latency charge happen at the next fence.
void clwb(const void* p) noexcept(false);

/// Drain pending writebacks (SFENCE emulation); charges NVM write latency if
/// any lines were pending.
void sfence() noexcept(false);

/// Flush + fence over an arbitrary byte range; the paper's "persistent
/// instruction" compound (counted once in nvm.persist).
void persist(const void* p, std::size_t n) noexcept(false);

// ---- Group persistency (batch barriers) ------------------------------------
//
// A BatchScope lets K independent modifies share ONE trailing sfence: each op
// still issues its own clwb's (so every dirty line is write-pending and the
// crash simulator sees the same store/flush stream), but the drain is deferred
// to the scope's end.  Deferred compounds are counted in
// nvm.batch_persist, and the trailing barrier in nvm.batch_fence -- never
// in nvm.persist/nvm.fence -- so Table-1
// single-op persist counts remain comparable with the unbatched build.

/// Flush [p, p+n) like persist(), but inside an active BatchScope the fence is
/// deferred to the scope's trailing barrier (counted as batch_persist, not
/// persist).  Outside any BatchScope this is exactly persist().  Returns true
/// when the fence was deferred (the range is not yet known durable).
bool persist_batchable(const void* p, std::size_t n) noexcept(false);

/// Drain all pending writebacks accumulated by persist_batchable() (and any
/// other un-fenced clwb's) with one fence, counted as batch_fence.  No-op when
/// nothing is pending.
void batch_barrier() noexcept(false);

/// Nesting depth of active BatchScopes on this thread (0 = eager persists).
int batch_depth() noexcept;

/// RAII group-persistency scope: while alive, persist_batchable() defers its
/// fence; the destructor issues the trailing batch_barrier().  Nestable; only
/// the outermost destructor fences.
class BatchScope {
 public:
  BatchScope() noexcept;
  // noexcept(false): the trailing barrier is a tracked NVM event, so an
  // attached ShadowPool may fire a CrashPoint out of it (crash tests).
  ~BatchScope() noexcept(false);
  BatchScope(const BatchScope&) = delete;
  BatchScope& operator=(const BatchScope&) = delete;
};

/// Emulated-HTM transaction markers.  The software-fallback HTM sections call
/// these so the crash simulator can model RTM's guarantee that speculative
/// stores never reach the memory subsystem before commit.
inline void htm_tx_begin() noexcept(false) {
  if (shadow_active() != nullptr) detail::shadow_tx_begin();
}
inline void htm_tx_commit() noexcept(false) {
  if (shadow_active() != nullptr) detail::shadow_tx_commit();
}

}  // namespace rnt::nvm
