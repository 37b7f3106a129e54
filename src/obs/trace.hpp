// Per-thread flight-recorder trace ring.
//
// A fixed-size, lock-free ring of 64-byte events per thread: op kind, key,
// leaf (pool offset), HTM attempts, persist count, latency, outcome.
// Recording is a single struct store into the owning thread's ring — no
// synchronisation, no allocation — and compiles to one predictable branch
// when tracing is disabled (the default).
//
// The ring is a post-mortem tool: the ShadowPool crash simulator dumps it
// when an injected crash fires with tracing enabled, and test assertions can
// dump_traces(stderr) on failure to see the last N operations every thread
// performed.  Readers are racy by design (dump while quiesced for an exact
// picture); rings of exited threads are retained so a post-mortem sees them.
//
// Enable with set_trace_capacity(n) before spawning workers (bench flag
// --trace=N does this), or clear_traces() + set_trace_capacity(n) to resize
// between phases.  Tree ops reach the ring through obs::OpScope
// (obs/op_scope.hpp), which set_trace_capacity arms.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace rnt::obs {

enum class OpKind : std::uint16_t {
  kFind = 0,
  kInsert,
  kUpdate,
  kUpsert,
  kRemove,
  kScan,
  kOther,
};
inline constexpr int kOpKindCount = 7;

enum class OpResult : std::uint16_t {
  kOk = 0,    ///< operation succeeded / key found
  kMiss,      ///< conditional op failed / key absent
  kCrash,     ///< aborted by an injected CrashPoint
  kUnknown,   ///< recorder destroyed before an outcome was set
};

const char* to_string(OpKind k) noexcept;
const char* to_string(OpResult r) noexcept;

struct TraceEvent {
  std::uint64_t seq;           ///< per-thread sequence number (monotonic)
  std::uint64_t ts_ns;         ///< clock at completion (wall, or sim time)
  std::uint64_t key;
  std::uint64_t leaf_off;      ///< pool offset of the leaf touched (0 = n/a)
  std::uint64_t latency_ns;
  std::uint32_t thread_id;     ///< pmem_thread_id-style small id
  std::uint32_t htm_attempts;  ///< HTM attempts during the op
  std::uint32_t persists;      ///< persistent instructions during the op
  std::uint16_t op;            ///< OpKind
  std::uint16_t result;        ///< OpResult
  // Abort-cause attribution during the op (diffed from htm.* local()).
  std::uint16_t aborts_conflict;
  std::uint16_t aborts_capacity;
  std::uint16_t aborts_other;
  std::uint16_t fallbacks;
  // Phase attribution (obs/phase.hpp): where inside the op the time went.
  // u32 nanoseconds caps a phase at ~4.3 s — far beyond any tree op.
  std::uint32_t phase_htm_ns;
  std::uint32_t phase_lock_ns;
  std::uint32_t phase_persist_ns;
  std::uint32_t phase_smo_ns;
  std::uint8_t pad_[48];  // two cache lines per event
};
static_assert(sizeof(TraceEvent) == 128, "two cache lines per event");

/// Events retained per thread; 0 (default) disables recording entirely.
/// Applies to rings created after the call — set it before spawning workers.
void set_trace_capacity(std::size_t events_per_thread);
std::size_t trace_capacity() noexcept;
bool trace_enabled() noexcept;

/// Record one event into this thread's ring (no-op when disabled).
void trace(const TraceEvent& ev) noexcept;

/// Like trace(), but preserves the caller-supplied thread_id instead of
/// stamping the ring owner's.  Used by virtual-actor recorders (the DES
/// simulator's workers all run on one real thread but are distinct
/// timeline tracks).
void trace_virtual(const TraceEvent& ev) noexcept;

/// All retained events (live + exited threads), oldest first per thread.
/// Racy against concurrent recorders; quiesce for an exact picture.
std::vector<TraceEvent> collect_traces();

/// Human-readable dump of every ring; returns the number of events written.
std::size_t dump_traces(std::FILE* out);

/// Append the collected events as a JSON array to @p out (export layer).
void traces_json(std::string& out);

/// Drop every ring (live threads re-create theirs, picking up a new
/// capacity, on their next trace()).
void clear_traces();

}  // namespace rnt::obs
