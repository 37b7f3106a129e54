#include "nvm/shadow.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "obs/trace.hpp"

namespace rnt::nvm {

namespace {
std::uint64_t this_thread_id() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}
}  // namespace

ShadowPool::ShadowPool(PmemPool& pool) : pool_(pool) {
  durable_.resize(pool.size());
  std::memcpy(durable_.data(), pool.base(), pool.size());
  owner_thread_ = this_thread_id();
  ShadowPool* expected = nullptr;
  if (!detail::g_shadow.compare_exchange_strong(expected, this))
    throw std::logic_error("ShadowPool: another shadow is already active");
}

ShadowPool::~ShadowPool() {
  detail::g_shadow.store(nullptr, std::memory_order_relaxed);
}

void ShadowPool::track_event() {
  if (crashed_) return;
  ++events_;
  if (events_ >= crash_at_event_) {
    crashed_ = true;
    crash_at_event_ = kNoCrashScheduled;
    // Post-mortem: with tracing on, show what every thread was doing when
    // the injected crash fired (the in-flight op lands once its OpScope
    // unwinds and records itself with result=crash).
    if (obs::trace_enabled()) {
      std::fprintf(stderr, "ShadowPool: injected crash at event %llu\n",
                   static_cast<unsigned long long>(events_));
      obs::dump_traces(stderr);
    }
    throw CrashPoint{};
  }
}

void ShadowPool::on_store(const void* p, std::size_t n) {
  if (crashed_) return;
  assert(this_thread_id() == owner_thread_ &&
         "ShadowPool is single-threaded by design");
  [[maybe_unused]] const char* c = static_cast<const char*>(p);
  assert(c >= pool_.base() && c + n <= pool_.base() + pool_.size() &&
         "store outside the attached pool");
  const std::size_t nlines = lines_spanned(p, n);
  const std::uint64_t first = line_index(p);
  for (std::size_t i = 0; i < nlines; ++i) {
    const std::uint64_t line = first + i;
    if (tx_depth_ > 0) {
      tx_.insert(line);
    } else if (!tx_.contains(line)) {
      // A store to a line with an in-flight CLWB makes it dirty again (the
      // writeback is treated as not-yet-completed; a legal outcome).
      pending_.erase(line);
      dirty_.insert(line);
    }
  }
  track_event();
}

void ShadowPool::on_clwb(const void* p) {
  if (crashed_) return;
  const std::uint64_t line = line_index(p);
  assert(tx_depth_ == 0 &&
         "cache-line flush inside an HTM transaction (would abort on TSX)");
  if (dirty_.erase(line) > 0) pending_.insert(line);
}

void ShadowPool::on_fence() {
  if (crashed_) return;
  for (const std::uint64_t line : pending_) make_durable(line);
  pending_.clear();
  track_event();
}

void ShadowPool::tx_begin() {
  if (crashed_) return;
  ++tx_depth_;
}

void ShadowPool::tx_commit() {
  if (crashed_) return;
  assert(tx_depth_ > 0);
  if (--tx_depth_ == 0) {
    // Committed speculative lines become ordinary dirty (evictable) lines.
    for (const std::uint64_t line : tx_) dirty_.insert(line);
    tx_.clear();
  }
}

void ShadowPool::schedule_crash_after(std::uint64_t n) {
  if (n == 0)
    throw std::invalid_argument(
        "ShadowPool::schedule_crash_after: n must be >= 1 (a crash before "
        "the next event is the same state as after the previous one)");
  crash_at_event_ = events_ + n;
}

void ShadowPool::cancel_scheduled_crash() { crash_at_event_ = kNoCrashScheduled; }

void ShadowPool::make_durable(std::uint64_t line) {
  std::memcpy(durable_.data() + line * kCacheLineSize,
              pool_.base() + line * kCacheLineSize, kCacheLineSize);
}

void ShadowPool::restore_line(std::uint64_t line) {
  std::memcpy(pool_.base() + line * kCacheLineSize,
              durable_.data() + line * kCacheLineSize, kCacheLineSize);
}

void ShadowPool::simulate_crash(EvictionMode mode, std::uint64_t seed) {
  // Per-line hash coin: deterministic for a given seed regardless of the
  // (unordered) iteration order of the tracking sets.
  auto decide = [&](std::uint64_t line) {
    if (mode == EvictionMode::kRandomEviction &&
        (mix64(seed ^ 0xC0FFEEull ^ line) & 1) != 0)
      make_durable(line);  // an eviction happened to beat the crash
    else
      restore_line(line);
  };
  for (const std::uint64_t line : dirty_) decide(line);
  // Pending lines (CLWB issued, fence not reached) may also go either way.
  for (const std::uint64_t line : pending_) decide(line);
  // Speculative HTM lines never reach the NVM.
  for (const std::uint64_t line : tx_) restore_line(line);
  dirty_.clear();
  pending_.clear();
  tx_.clear();
  tx_depth_ = 0;
  crashed_ = false;
  crash_at_event_ = kNoCrashScheduled;
}

}  // namespace rnt::nvm
