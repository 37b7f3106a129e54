#include "nvm/persist.hpp"

#include "common/timing.hpp"
#include "nvm/shadow.hpp"
#include "obs/phase.hpp"

namespace rnt::nvm {

NvmConfig& config() noexcept {
  static NvmConfig cfg;
  return cfg;
}

namespace detail {

std::atomic<ShadowPool*> g_shadow{nullptr};
thread_local std::uint32_t tls_pending_lines = 0;

void shadow_on_store(const void* p, std::size_t n) {
  if (ShadowPool* sp = shadow_active()) sp->on_store(p, n);
}
void shadow_on_clwb(const void* p) {
  if (ShadowPool* sp = shadow_active()) sp->on_clwb(p);
}
void shadow_on_fence() {
  if (ShadowPool* sp = shadow_active()) sp->on_fence();
}
void shadow_tx_begin() {
  if (ShadowPool* sp = shadow_active()) sp->tx_begin();
}
void shadow_tx_commit() {
  if (ShadowPool* sp = shadow_active()) sp->tx_commit();
}

}  // namespace detail

void clwb(const void* p) noexcept(false) {
  persist_counters().clwb.inc();
  detail::tls_pending_lines++;
  if (shadow_active() != nullptr) detail::shadow_on_clwb(p);
}

void sfence() noexcept(false) {
  const PersistCounters& ctr = persist_counters();
  ctr.fence.inc();
  const std::uint32_t pending = detail::tls_pending_lines;
  if (pending > 0) {
    ctr.lines.inc(pending);
    detail::tls_pending_lines = 0;
    const NvmConfig& cfg = config();
    const std::uint64_t wait =
        cfg.write_latency_ns +
        static_cast<std::uint64_t>(cfg.per_line_ns) * (pending - 1);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // Order matters for crash simulation: the lines become durable at the
    // fence, then the latency is charged.
    if (shadow_active() != nullptr) detail::shadow_on_fence();
    busy_wait_ns(wait);
  } else {
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }
}

void persist(const void* p, std::size_t n) noexcept(false) {
  // Phase attribution covers the whole flush+fence compound (including the
  // injected NVM latency charged in sfence); bare clwb/sfence calls are not
  // timed individually to avoid double-counting nested compounds.
  obs::PhaseTimer pt(obs::Phase::kPersist);
  persist_counters().persist.inc();
  const char* c = static_cast<const char*>(p);
  const std::size_t nlines = lines_spanned(p, n);
  for (std::size_t i = 0; i < nlines; ++i) clwb(c + i * kCacheLineSize);
  sfence();
}

namespace {
thread_local int tls_batch_depth = 0;
}  // namespace

int batch_depth() noexcept { return tls_batch_depth; }

void persist_batchable(const void* p, std::size_t n) noexcept(false) {
  if (tls_batch_depth == 0) {
    persist(p, n);
    return;
  }
  obs::PhaseTimer pt(obs::Phase::kPersist);
  persist_counters().batch_persist.inc();
  const char* c = static_cast<const char*>(p);
  const std::size_t nlines = lines_spanned(p, n);
  for (std::size_t i = 0; i < nlines; ++i) clwb(c + i * kCacheLineSize);
  // No fence: the lines stay write-pending until the scope's batch_barrier()
  // (or any earlier eager sfence, which drains everything pending -- early
  // durability is always safe; the batching only amortizes the fence COUNT).
}

void batch_barrier() noexcept(false) {
  const std::uint32_t pending = detail::tls_pending_lines;
  if (pending == 0) return;
  obs::PhaseTimer pt(obs::Phase::kPersist);
  const PersistCounters& ctr = persist_counters();
  ctr.batch_fence.inc();  // booked separately from single-op fences
  ctr.lines.inc(pending);
  detail::tls_pending_lines = 0;
  const NvmConfig& cfg = config();
  const std::uint64_t wait =
      cfg.write_latency_ns +
      static_cast<std::uint64_t>(cfg.per_line_ns) * (pending - 1);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // Same ordering contract as sfence(): lines become durable at the barrier,
  // then the latency is charged.
  if (shadow_active() != nullptr) detail::shadow_on_fence();
  busy_wait_ns(wait);
}

BatchScope::BatchScope() noexcept { tls_batch_depth++; }

BatchScope::~BatchScope() noexcept(false) {
  tls_batch_depth--;
  if (tls_batch_depth == 0) batch_barrier();
}

}  // namespace rnt::nvm
