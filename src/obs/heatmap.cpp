#include "obs/heatmap.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <deque>
#include <mutex>

#include "obs/metrics.hpp"  // detail::cell_load/cell_add

namespace rnt::obs {

namespace {

// Bucketing parameters, readable lock-free on the record path.  Mutated only
// by heatmap_configure(), whose contract requires recorder quiescence.
std::atomic<std::uint32_t> g_buckets{64};
std::atomic<std::uint32_t> g_shift{58};  // 64 - log2(64)
std::atomic<std::uint64_t> g_key_space{0};

std::uint32_t shift_for(std::uint64_t key_space, std::uint32_t buckets) {
  const int space_bits =
      key_space == 0 ? 64 : std::bit_width(key_space - 1);
  const int bucket_bits = std::countr_zero(buckets);
  return static_cast<std::uint32_t>(std::max(0, space_bits - bucket_bits));
}

// One bucket's counter-track sample (sampler tick).
struct TrackSample {
  std::uint64_t ts_ns = 0;
  std::vector<std::uint64_t> scores;  // by bucket id
};

// Retained track samples are bounded so a long --sample-ms run can't grow
// without limit, and skipped entirely for very large tables.
constexpr std::size_t kMaxTrackSamples = 600;
constexpr std::uint32_t kMaxTrackBuckets = 512;

struct HeatSlab {
  std::vector<std::uint64_t> cells;  // bucket-major: [bucket][cause]
  ~HeatSlab();
};

struct HeatRegistry {
  std::mutex mu;
  std::vector<HeatSlab*> slabs;
  std::vector<std::uint64_t> retired;  // folded from exited threads
  std::deque<TrackSample> samples;
};

// Leaked singleton, same rationale as the metrics registry: exiting threads
// fold their slabs during static destruction.
HeatRegistry& heat_reg() {
  static HeatRegistry* r = new HeatRegistry;
  return *r;
}

std::size_t cell_count() noexcept {
  return static_cast<std::size_t>(g_buckets.load(std::memory_order_relaxed)) *
         kHeatCauseCount;
}

HeatSlab& heat_slab() {
  thread_local HeatSlab slab;
  if (slab.cells.empty()) {
    HeatRegistry& r = heat_reg();
    std::lock_guard lk(r.mu);
    slab.cells.assign(cell_count(), 0);
    if (std::find(r.slabs.begin(), r.slabs.end(), &slab) == r.slabs.end())
      r.slabs.push_back(&slab);
  }
  return slab;
}

HeatSlab::~HeatSlab() {
  HeatRegistry& r = heat_reg();
  std::lock_guard lk(r.mu);
  if (r.retired.size() < cells.size()) r.retired.resize(cells.size(), 0);
  for (std::size_t i = 0; i < cells.size(); ++i) r.retired[i] += cells[i];
  std::erase(r.slabs, this);
}

// Caller holds r.mu.  Sums every live slab plus retired into a bucket-major
// vector sized to the current table.
std::vector<std::uint64_t> aggregate_locked(HeatRegistry& r) {
  std::vector<std::uint64_t> sum(cell_count(), 0);
  for (std::size_t i = 0; i < sum.size() && i < r.retired.size(); ++i)
    sum[i] = r.retired[i];
  for (const HeatSlab* s : r.slabs)
    for (std::size_t i = 0; i < sum.size() && i < s->cells.size(); ++i)
      sum[i] += detail::cell_load(s->cells[i]);
  return sum;
}

std::uint64_t bucket_score(const std::uint64_t* c) noexcept {
  // Contention score: every cause except kOp.
  return c[static_cast<int>(HeatCause::kConflict)] +
         c[static_cast<int>(HeatCause::kCapacity)] +
         c[static_cast<int>(HeatCause::kOther)] +
         c[static_cast<int>(HeatCause::kFallback)] +
         c[static_cast<int>(HeatCause::kLockWaitTimeout)] +
         c[static_cast<int>(HeatCause::kLockWait)];
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

namespace detail {

void heat_add(std::uint32_t bucket, HeatCause c) noexcept {
  HeatSlab& s = heat_slab();
  const std::size_t idx =
      static_cast<std::size_t>(bucket) * kHeatCauseCount +
      static_cast<std::size_t>(c);
  // A slab sized under an older config can briefly see out-of-range buckets;
  // dropping those few events beats resizing on the hot path.
  if (idx < s.cells.size()) detail::cell_add(s.cells[idx], 1);
}

void heat_set_target(std::uint64_t key) noexcept {
  const std::uint32_t b = heatmap_bucket_of(key);
  t_op.op.heat_bucket = b;
  heat_add(b, HeatCause::kOp);
}

}  // namespace detail

const char* to_string(HeatCause c) noexcept {
  switch (c) {
    case HeatCause::kConflict: return "aborts_conflict";
    case HeatCause::kCapacity: return "aborts_capacity";
    case HeatCause::kOther: return "aborts_other";
    case HeatCause::kFallback: return "fallbacks";
    case HeatCause::kLockWaitTimeout: return "lock_wait_timeouts";
    case HeatCause::kLockWait: return "lock_waits";
    case HeatCause::kOp: return "ops";
  }
  return "?";
}

bool heatmap_valid_buckets(std::uint64_t n) noexcept {
  return n >= kHeatmapMinBuckets && n <= kHeatmapMaxBuckets &&
         (n & (n - 1)) == 0;
}

void set_heatmap_enabled(bool on) noexcept {
  if (kOpObservation) detail::set_arm(detail::kArmHeat, on);
}

bool heatmap_configure(const HeatmapConfig& cfg) {
  if (!heatmap_valid_buckets(cfg.buckets)) return false;
  HeatRegistry& r = heat_reg();
  std::lock_guard lk(r.mu);
  g_buckets.store(cfg.buckets, std::memory_order_relaxed);
  g_shift.store(shift_for(cfg.key_space, cfg.buckets),
                std::memory_order_relaxed);
  g_key_space.store(cfg.key_space, std::memory_order_relaxed);
  r.retired.assign(cell_count(), 0);
  for (HeatSlab* s : r.slabs) s->cells.assign(cell_count(), 0);
  r.samples.clear();
  return true;
}

HeatmapConfig heatmap_config() {
  HeatmapConfig cfg;
  cfg.buckets = g_buckets.load(std::memory_order_relaxed);
  cfg.key_space = g_key_space.load(std::memory_order_relaxed);
  return cfg;
}

std::uint32_t heatmap_bucket_of(std::uint64_t key) noexcept {
  const std::uint32_t shift = g_shift.load(std::memory_order_relaxed);
  const std::uint32_t mask = g_buckets.load(std::memory_order_relaxed) - 1;
  return static_cast<std::uint32_t>(key >> shift) & mask;
}

void heatmap_tick(std::uint64_t now_ns) {
  if (!heatmap_enabled()) return;
  HeatRegistry& r = heat_reg();
  std::lock_guard lk(r.mu);
  const std::uint32_t buckets = g_buckets.load(std::memory_order_relaxed);
  if (buckets > kMaxTrackBuckets) return;
  const std::vector<std::uint64_t> sum = aggregate_locked(r);
  TrackSample ts;
  ts.ts_ns = now_ns;
  ts.scores.resize(buckets, 0);
  for (std::uint32_t b = 0; b < buckets; ++b)
    ts.scores[b] = bucket_score(&sum[static_cast<std::size_t>(b) *
                                     kHeatCauseCount]);
  r.samples.push_back(std::move(ts));
  if (r.samples.size() > kMaxTrackSamples) r.samples.pop_front();
}

void heatmap_reset() {
  HeatRegistry& r = heat_reg();
  std::lock_guard lk(r.mu);
  r.retired.assign(cell_count(), 0);
  for (HeatSlab* s : r.slabs) s->cells.assign(cell_count(), 0);
  r.samples.clear();
}

HeatmapSnapshot heatmap_snapshot() {
  HeatmapSnapshot out;
  out.cfg = heatmap_config();
  HeatRegistry& r = heat_reg();
  std::lock_guard lk(r.mu);
  const std::vector<std::uint64_t> sum = aggregate_locked(r);
  const std::uint32_t buckets = g_buckets.load(std::memory_order_relaxed);
  const std::uint32_t shift = g_shift.load(std::memory_order_relaxed);
  for (std::uint32_t b = 0; b < buckets; ++b) {
    const std::uint64_t* c = &sum[static_cast<std::size_t>(b) *
                                  kHeatCauseCount];
    bool any = false;
    for (int i = 0; i < kHeatCauseCount; ++i) any |= c[i] != 0;
    if (!any) continue;
    HeatBucket hb;
    hb.id = b;
    hb.lo = static_cast<std::uint64_t>(b) << shift;
    hb.hi = hb.lo + ((1ull << shift) - 1);
    for (int i = 0; i < kHeatCauseCount; ++i) {
      hb.counts[i] = c[i];
      out.totals[i] += c[i];
    }
    hb.score = bucket_score(c);
    out.buckets.push_back(hb);
  }
  std::sort(out.buckets.begin(), out.buckets.end(),
            [](const HeatBucket& a, const HeatBucket& b) {
              if (a.score != b.score) return a.score > b.score;
              const auto ops = static_cast<int>(HeatCause::kOp);
              if (a.counts[ops] != b.counts[ops])
                return a.counts[ops] > b.counts[ops];
              return a.id < b.id;
            });
  return out;
}

std::string heatmap_json() {
  if (!heatmap_enabled()) return {};
  const HeatmapSnapshot snap = heatmap_snapshot();
  std::string out;
  out += "{\n    \"buckets\": ";
  append_u64(out, snap.cfg.buckets);
  out += ",\n    \"key_space\": ";
  append_u64(out, snap.cfg.key_space);
  out += ",\n    \"events\": {";
  for (int i = 0; i < kHeatCauseCount; ++i) {
    if (i) out += ",";
    out += "\n      \"";
    out += to_string(static_cast<HeatCause>(i));
    out += "\": ";
    append_u64(out, snap.totals[i]);
  }
  out += "\n    },\n    \"top\": [";
  constexpr std::size_t kTopK = 32;
  const std::size_t n = std::min(kTopK, snap.buckets.size());
  for (std::size_t i = 0; i < n; ++i) {
    const HeatBucket& hb = snap.buckets[i];
    if (i) out += ",";
    out += "\n      {\"bucket\": ";
    append_u64(out, hb.id);
    out += ", \"lo\": ";
    append_u64(out, hb.lo);
    out += ", \"hi\": ";
    append_u64(out, hb.hi);
    out += ", \"score\": ";
    append_u64(out, hb.score);
    for (int c = 0; c < kHeatCauseCount; ++c) {
      out += ", \"";
      out += to_string(static_cast<HeatCause>(c));
      out += "\": ";
      append_u64(out, hb.counts[c]);
    }
    out += "}";
  }
  out += n ? "\n    ]\n  }" : "]\n  }";
  return out;
}

std::vector<HeatTrack> heatmap_tracks(std::size_t top_k) {
  std::vector<HeatTrack> out;
  if (!heatmap_enabled() || top_k == 0) return out;
  HeatRegistry& r = heat_reg();
  std::lock_guard lk(r.mu);
  if (r.samples.empty()) return out;
  const std::uint32_t buckets = g_buckets.load(std::memory_order_relaxed);
  // Counts are cumulative, so the latest sample holds each bucket's peak.
  std::vector<std::uint64_t> peak = r.samples.back().scores;
  peak.resize(buckets, 0);
  std::vector<std::uint32_t> ids(buckets);
  for (std::uint32_t b = 0; b < buckets; ++b) ids[b] = b;
  std::sort(ids.begin(), ids.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (peak[a] != peak[b]) return peak[a] > peak[b];
    return a < b;
  });
  for (std::uint32_t id : ids) {
    if (out.size() >= top_k || peak[id] == 0) break;
    HeatTrack tr;
    tr.bucket = id;
    tr.points.reserve(r.samples.size());
    for (const TrackSample& s : r.samples)
      tr.points.push_back(
          {s.ts_ns, id < s.scores.size() ? s.scores[id] : 0});
    out.push_back(std::move(tr));
  }
  return out;
}

}  // namespace rnt::obs
