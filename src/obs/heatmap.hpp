// Contention heatmap — WHERE aborts, fallbacks, and lock-wait timeouts
// happen, not just how many.
//
// The registry counters (htm.*) say a run had N conflict aborts; ROADMAP
// items 3 (COW SMOs) and 5 (fine-grained fallback locking) need to know
// whether those N came from one hot leaf or were spread across the tree.
// This module attributes every abort (by cause), every fallback-lock
// acquisition, and every bounded-lock-wait timeout to a fixed-size table of
// key-range buckets:
//
//   * Bucketing is power-of-two range partitioning over the keyspace:
//     bucket = key >> (ceil_log2(key_space) - log2(buckets)).  key_space 0
//     means the full 64-bit space (real benches use mix64-scrambled keys
//     spanning it); the DES benches set key_space to their item count so the
//     same table resolves their dense [0, keys) space.
//   * The op's target rides in the per-thread OpContext record
//     (obs/phase.hpp): the OpScope each tree op opens sets it from the op's
//     key; the retry machine in htm/rtm.hpp calls heatmap_record(cause) at
//     each abort/fallback/timeout site and that target names the bucket.
//     The DES simulator attributes directly with heatmap_record_at(key,
//     cause).
//   * Storage is thread-sharded exactly like obs/metrics: per-thread plain
//     u64 cells (atomic_ref relaxed), a registry mutex only for aggregation,
//     and exited threads fold their cells into retired totals.
//   * Counts are cumulative; the sampler's tick records one counter-track
//     sample per hot bucket for the Perfetto timeline.
//
// Cost contract (same as obs/phase.hpp): OFF by default — every
// instrumentation point is one relaxed load of the arm word + predicted
// branch.  With -DRNTREE_OP_OBSERVATION=OFF the heat bit can never be set,
// so every recording site compiles to nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/phase.hpp"

namespace rnt::obs {

/// What happened at the op's target location.  kOp is the op itself
/// (recorded by OpScope so cold buckets are distinguishable from unvisited
/// ones); the others mirror the htm.* counter families.
enum class HeatCause : std::uint8_t {
  kConflict = 0,       ///< conflict abort
  kCapacity,           ///< capacity abort (fell back immediately)
  kOther,              ///< spurious / lock-subscription abort
  kFallback,           ///< fallback-lock acquisition
  kLockWaitTimeout,    ///< bounded lock-wait hit the starvation cap
  kLockWait,           ///< bounded lock-wait actually spun (lock was held)
  kOp,                 ///< an operation targeted this bucket
};
inline constexpr int kHeatCauseCount = 7;

const char* to_string(HeatCause c) noexcept;

inline constexpr std::uint32_t kHeatmapMinBuckets = 2;
inline constexpr std::uint32_t kHeatmapMaxBuckets = 4096;

struct HeatmapConfig {
  std::uint32_t buckets = 64;  ///< power of two in [min, max]
  /// Keyspace extent for range partitioning; 0 = full 2^64.  Rounded up to
  /// a power of two.
  std::uint64_t key_space = 0;
};

/// True iff @p n is an acceptable bucket count (power of two in range).
bool heatmap_valid_buckets(std::uint64_t n) noexcept;

struct HeatBucket {
  std::uint32_t id = 0;
  std::uint64_t lo = 0;  ///< inclusive key-range lower bound
  std::uint64_t hi = 0;  ///< inclusive key-range upper bound
  std::uint64_t counts[kHeatCauseCount] = {};
  /// Contention score: everything except kOp.
  std::uint64_t score = 0;
};

struct HeatmapSnapshot {
  HeatmapConfig cfg;
  std::uint64_t totals[kHeatCauseCount] = {};
  /// Non-empty buckets, sorted by score desc, ties by ops desc then id.
  std::vector<HeatBucket> buckets;
};

/// One Perfetto counter-track sample series for a hot bucket.
struct HeatTrackPoint {
  std::uint64_t ts_ns = 0;
  std::uint64_t score = 0;
};
struct HeatTrack {
  std::uint32_t bucket = 0;
  std::vector<HeatTrackPoint> points;
};

namespace detail {
void heat_set_target(std::uint64_t key) noexcept;  // also counts kOp
void heat_add(std::uint32_t bucket, HeatCause c) noexcept;
}  // namespace detail

inline bool heatmap_enabled() noexcept {
  return kOpObservation && (detail::armed() & detail::kArmHeat) != 0;
}

/// Arm/disarm recording process-wide.  Enable only after configuring.  A
/// no-op when compiled out.
void set_heatmap_enabled(bool on) noexcept;

/// Install @p cfg and clear the table.  Returns false (and changes nothing)
/// on an invalid bucket count.  Callers must be quiescent: no concurrent
/// recorders (benches/tests configure before starting workers).
bool heatmap_configure(const HeatmapConfig& cfg);

HeatmapConfig heatmap_config();

/// Key-range bucket of @p key under the current config (exposed so tests
/// and benches can compute an expected bucket).
std::uint32_t heatmap_bucket_of(std::uint64_t key) noexcept;

/// Record @p c against the open op's heat target (no-op when disabled or
/// when no armed OpScope is open — an abort outside any tree op has no
/// location).  One relaxed load + branch when disabled.
inline void heatmap_record(HeatCause c) noexcept {
  if (!heatmap_enabled()) return;
  const detail::OpFrame& f = detail::t_op.op;
  if ((f.mask & detail::kArmHeat) != 0) detail::heat_add(f.heat_bucket, c);
}

/// Record @p c against @p key's range bucket directly (DES simulator path).
inline void heatmap_record_at(std::uint64_t key, HeatCause c) noexcept {
  if (!heatmap_enabled()) return;
  detail::heat_add(heatmap_bucket_of(key), c);
}

/// Sampler hook: append a counter-track sample at @p now_ns.
void heatmap_tick(std::uint64_t now_ns);

/// Zero every cell and drop track samples; config and enablement stay.
void heatmap_reset();

HeatmapSnapshot heatmap_snapshot();

/// The "heatmap" JSON section ("" when disabled): config, per-cause event
/// totals, and the top hot buckets by score.
std::string heatmap_json();

/// Time series of the @p top_k hottest buckets (by latest score) for
/// Perfetto counter tracks.
std::vector<HeatTrack> heatmap_tracks(std::size_t top_k);

}  // namespace rnt::obs
