// Process-wide metrics registry — the unified home for every counter the
// library keeps (persistent instructions, HTM attempts and aborts, epoch
// reclamation, pool allocation, per-tree structural counters).
//
// Three metric kinds:
//
//   * Counter   — monotonically increasing u64, sharded per thread: inc() is
//                 a relaxed load+add+store on a thread-local cell (no RMW, no
//                 lock prefix), so instrumenting a hot path costs a couple of
//                 nanoseconds.  Aggregation sums live thread cells plus the
//                 folded totals of exited threads.
//   * Gauge     — process-wide i64 set/add (atomic; for slowly-changing
//                 state like configured latency or pool high-water marks).
//   * Histogram — per-thread LatencyHistogram shards merged on demand.
//
// Handles (Counter/Gauge/Histogram) are cheap, copyable, and registered by
// name; registering the same name twice returns the same metric.  Intended
// use is one namespace-scope (or function-local static) handle per call
// site, so registration cost is paid once.
//
// snapshot() returns a consistent point-in-time view of everything; see
// obs/export.hpp for the JSON / Prometheus serialisations.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.hpp"

namespace rnt::obs {

using MetricId = std::uint32_t;

enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Aggregated histogram summary for snapshots/export.
struct HistogramSummary {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;  ///< exact total of recorded values (ns)
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
  /// Cumulative distribution over non-empty buckets: (upper bound ns,
  /// observations <= bound).  Prometheus `_bucket{le=...}` source.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
};

/// Point-in-time view of the whole registry (entries sorted by name).
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSummary>> histograms;

  /// Counter value by exact name; 0 if absent (export/test convenience).
  std::uint64_t counter(std::string_view name) const noexcept;
};

namespace detail {

/// Raced-but-well-defined accesses to plain u64 cells shared between one
/// incrementing owner thread and concurrent aggregators: atomic_ref with
/// relaxed order compiles to the same plain load/add/store on x86.
inline std::uint64_t cell_load(const std::uint64_t& c) noexcept {
  return std::atomic_ref<const std::uint64_t>(c).load(std::memory_order_relaxed);
}
inline void cell_store(std::uint64_t& c, std::uint64_t v) noexcept {
  std::atomic_ref<std::uint64_t>(c).store(v, std::memory_order_relaxed);
}
inline void cell_add(std::uint64_t& c, std::uint64_t n) noexcept {
  cell_store(c, cell_load(c) + n);
}

/// This thread's counter-cell window.  constinit on the declaration tells
/// every including TU there is no dynamic initialiser, so inc() reads it
/// without a call through the TLS init wrapper.  Grown by slow_cell() on
/// first touch of a counter id past the window.
struct TlsCells {
  std::uint64_t* data;
  std::uint32_t size;
};
extern constinit thread_local TlsCells t_cells;

std::uint64_t* slow_cell(MetricId id);  // registers/extends this thread's slab

}  // namespace detail

/// Register (or look up) a metric.  Thread-safe, idempotent by name; the
/// kind must match the prior registration.
MetricId register_metric(const char* name, Kind kind);

class Counter {
 public:
  explicit Counter(const char* name) : id_(register_metric(name, Kind::kCounter)) {}

  void inc(std::uint64_t n = 1) const noexcept {
    const detail::TlsCells v = detail::t_cells;
    std::uint64_t* c = id_ < v.size ? v.data + id_ : detail::slow_cell(id_);
    detail::cell_add(*c, n);
  }

  /// This thread's count: 0 before the thread's first inc().  Diff it
  /// around a region for exact per-thread counts (Table-1 persists, the
  /// per-op trace fields) that other threads cannot disturb.
  std::uint64_t local() const noexcept {
    const detail::TlsCells v = detail::t_cells;
    return id_ < v.size ? detail::cell_load(v.data[id_]) : 0;
  }

  /// Aggregate over all threads, including exited ones.
  std::uint64_t value() const;

  MetricId id() const noexcept { return id_; }

 private:
  MetricId id_;
};

class Gauge {
 public:
  explicit Gauge(const char* name);
  void set(std::int64_t v) const noexcept;
  void add(std::int64_t d) const noexcept;
  std::int64_t value() const noexcept;
  MetricId id() const noexcept { return id_; }

 private:
  MetricId id_;
  std::atomic<std::int64_t>* cell_;  // stable storage owned by the registry
};

class Histogram {
 public:
  explicit Histogram(const char* name) : id_(register_metric(name, Kind::kHistogram)) {}
  /// Record into this thread's shard (no synchronisation).
  void record(std::uint64_t v) const noexcept;
  /// Merge every thread's shard (including exited threads') into one.
  LatencyHistogram aggregate() const;
  MetricId id() const noexcept { return id_; }

 private:
  MetricId id_;
};

// --- aggregation ----------------------------------------------------------

/// Aggregated value of one counter (live shards + exited-thread total).
std::uint64_t counter_value(MetricId id);

/// Snapshot every registered metric.
Snapshot snapshot();

}  // namespace rnt::obs
