// Harness logic of the end-to-end benchmark that its correctness rests on,
// kept apart from the workloads so harness_test.cpp can pin it down:
// latency percentiles and their sample-count rule, batch-ack latency
// attribution, counter deltas around a measured phase, and the value
// encoding the output oracles check.
#pragma once

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/cacheline.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

enum class Op : std::uint8_t { kFind = 0, kUpdate, kInsert, kRemove, kScan };
inline constexpr int kOpKinds = 5;
inline constexpr const char* kOpNames[kOpKinds] = {"find", "update", "insert",
                                                  "remove", "scan"};

// ---------------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------------

/// Log-linear histogram of raw timer ticks: values below 128 are exact, above
/// that each power of two splits into 64 buckets (under 1.6% relative width).
/// Per-thread instances record without synchronisation and merge at the end.
class LatencyHist {
 public:
  static constexpr int kSubBits = 6;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kLinear = 2 * kSub;
  static constexpr int kBuckets = kLinear + (64 - kSubBits - 1) * kSub;
  /// A percentile is reported only when at least this many samples lie
  /// strictly beyond its rank; with fewer it would be an extrapolation.
  static constexpr std::uint64_t kMinBeyond = 10;

  LatencyHist() : buckets_(kBuckets, 0) {}

  static int index(std::uint64_t v) noexcept {
    if (v < static_cast<std::uint64_t>(kLinear)) return static_cast<int>(v);
    const int e = 63 - std::countl_zero(v);
    const auto sub = static_cast<int>((v >> (e - kSubBits)) & (kSub - 1));
    return kLinear + (e - kSubBits - 1) * kSub + sub;
  }

  /// Midpoint of bucket @p idx (the bucket's exact value below kLinear).
  static double midpoint(int idx) noexcept {
    if (idx < kLinear) return idx;
    const int e = (idx - kLinear) / kSub + kSubBits + 1;
    const int sub = (idx - kLinear) % kSub;
    const double width = std::ldexp(1.0, e - kSubBits);
    return (kSub + sub) * width + (width - 1) / 2;
  }

  void record(std::uint64_t v) noexcept {
    ++buckets_[static_cast<std::size_t>(index(v))];
    ++count_;
  }

  void merge(const LatencyHist& o) noexcept {
    for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }

  std::uint64_t count() const noexcept { return count_; }

  /// Nearest-rank percentile @p q in (0, 1], in ticks; nullopt when fewer
  /// than kMinBeyond samples lie beyond the rank.
  std::optional<double> percentile(double q) const noexcept {
    const std::uint64_t rank = rank_of(q, count_);
    if (count_ == 0 || count_ - rank < kMinBeyond) return std::nullopt;
    std::uint64_t cum = 0;
    for (int i = 0; i < kBuckets; ++i) {
      cum += buckets_[static_cast<std::size_t>(i)];
      if (cum >= rank) return midpoint(i);
    }
    return std::nullopt;  // unreachable: cum reaches count_
  }

  /// 1-based nearest rank ceil(q * n), clamped to [1, n]; the epsilon keeps
  /// q * n that is an integer in exact arithmetic from rounding up.
  static std::uint64_t rank_of(double q, std::uint64_t n) noexcept {
    if (n == 0) return 0;
    const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
    return std::clamp<std::uint64_t>(static_cast<std::uint64_t>(std::max(r, 1.0)), 1, n);
  }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Batch-ack latency attribution
// ---------------------------------------------------------------------------

/// Under group persistency an op is acknowledged only when the batch barrier
/// covering it returns.  The tracker remembers the start tick of every op
/// staged in the open batch and, at the ack, charges each one the time from
/// its own start to the ack.
class BatchAckTracker {
 public:
  void staged(Op op, std::uint64_t t0) { pending_.push_back({op, t0}); }

  /// The barrier covering every staged op returned at tick @p t_ack;
  /// @p sink(op, start_tick, latency_ticks) is called once per staged op.
  template <typename Sink>
  void acked(std::uint64_t t_ack, Sink&& sink) {
    for (const Pending& p : pending_) sink(p.op, p.t0, t_ack - p.t0);
    pending_.clear();
  }

  std::size_t pending() const noexcept { return pending_.size(); }

 private:
  struct Pending {
    Op op;
    std::uint64_t t0;
  };
  std::vector<Pending> pending_;
};

// ---------------------------------------------------------------------------
// Counter deltas around a measured phase
// ---------------------------------------------------------------------------

/// @p num / @p den, 0 when nothing was counted in the denominator.
inline double ratio(double num, std::uint64_t den) noexcept {
  return den == 0 ? 0.0 : num / static_cast<double>(den);
}

/// Registry snapshots taken at the start and end of the measured phase, so
/// work done while loading (or after the phase) never enters a per-op ratio.
class PhaseCounters {
 public:
  void begin() { before_ = rnt::obs::snapshot(); }
  void end() { after_ = rnt::obs::snapshot(); }

  std::uint64_t delta(std::string_view name) const {
    return after_.counter(name) - before_.counter(name);
  }
  double per_op(std::string_view name, std::uint64_t ops) const {
    return ratio(static_cast<double>(delta(name)), ops);
  }
  double per_kop(std::string_view name, std::uint64_t ops) const {
    return 1000.0 * per_op(name, ops);
  }

 private:
  rnt::obs::Snapshot before_;
  rnt::obs::Snapshot after_;
};

// ---------------------------------------------------------------------------
// Values and the oracles that check them
// ---------------------------------------------------------------------------

/// Writer id of values stored by the load (and of churn inserts, which write
/// each key exactly once).
inline constexpr std::uint64_t kLoadWriter = 0xFF;
inline constexpr std::uint64_t kSeqMask = (1ull << 40) - 1;

/// A value names its writer and that writer's sequence number and carries a
/// 16-bit check over the key, so a value returned for the wrong key, a torn
/// value and a lost update are all detectable.
inline std::uint64_t make_value(std::uint64_t key, std::uint64_t writer,
                                std::uint64_t seq) noexcept {
  const std::uint64_t body = (writer << 40) | (seq & kSeqMask);
  return (rnt::mix64(key ^ body) & 0xFFFF000000000000ull) | body;
}

inline std::uint64_t load_value(std::uint64_t key) noexcept {
  return make_value(key, kLoadWriter, 0);
}

struct DecodedValue {
  bool intact;
  std::uint64_t writer;
  std::uint64_t seq;
};

inline DecodedValue decode_value(std::uint64_t key, std::uint64_t v) noexcept {
  const std::uint64_t writer = (v >> 40) & 0xFF;
  const std::uint64_t seq = v & kSeqMask;
  return {make_value(key, writer, seq) == v, writer, seq};
}

/// One client thread's oracle over keys every thread may update: the last
/// value this thread wrote to each key (0 = never written).  Aligned to a
/// cache line: each thread's oracle is updated on every op it runs.
class alignas(rnt::kCacheLineSize) WriterOracle {
 public:
  WriterOracle(std::size_t keys, std::uint64_t writer, std::uint64_t writers)
      : last_(keys, 0), writer_(writer), writers_(writers) {}

  /// The value the next update of @p key by this thread stores.
  std::uint64_t next_value(std::uint64_t key) noexcept {
    return make_value(key, writer_, ++seq_);
  }
  /// The update of key index @p idx to @p v was applied.
  void wrote(std::size_t idx, std::uint64_t v) noexcept { last_[idx] = v; }
  std::uint64_t last(std::size_t idx) const noexcept { return last_[idx]; }

  /// A find of a live key by this thread returned @p got.  It must be an
  /// intact value for the key from the load or a known writer; once this
  /// thread has written the key the load value is a lost update, and a value
  /// of its own must be its latest write.
  bool check_read(std::size_t idx, std::uint64_t key,
                  std::optional<std::uint64_t> got) const noexcept {
    if (!got) return false;
    const DecodedValue d = decode_value(key, *got);
    if (!d.intact) return false;
    if (d.writer == kLoadWriter) return last_[idx] == 0 && d.seq == 0;
    if (d.writer == writer_) return *got == last_[idx];
    return d.writer < writers_;
  }

 private:
  std::vector<std::uint64_t> last_;
  std::uint64_t writer_;
  std::uint64_t writers_;
  std::uint64_t seq_ = 0;
};

/// End state of a key after every writer stopped: the last write of one of
/// the threads that wrote it, or the load value if none did.
inline bool final_value_ok(std::size_t idx, std::uint64_t key,
                           std::optional<std::uint64_t> got,
                           const std::vector<WriterOracle>& oracles) noexcept {
  if (!got) return false;
  bool written = false;
  for (const WriterOracle& o : oracles) {
    if (o.last(idx) == 0) continue;
    written = true;
    if (o.last(idx) == *got) return true;
  }
  return !written && *got == load_value(key);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// Shortest decimal that reads back as exactly @p v (JSON has no inf/nan).
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

inline std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

}  // namespace perfbench
