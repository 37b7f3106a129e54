#include "obs/metrics.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace rnt::obs {

namespace {

// Per-thread storage for Counter cells and Histogram shards.  Registered
// with the registry on first use; the destructor folds every value into the
// per-metric retired totals so exited threads keep counting.
struct Slab {
  std::vector<std::uint64_t> cells;                         // by counter id
  std::vector<std::unique_ptr<LatencyHistogram>> hists;     // by metric id
  ~Slab();
};

struct Metric {
  std::string name;
  Kind kind;
  std::uint64_t retired = 0;                    // folded from exited threads
  std::atomic<std::int64_t> gauge{0};
  LatencyHistogram retired_hist;                // folded histogram shards
};

struct Registry {
  std::mutex mu;
  std::deque<Metric> metrics;  // deque: references stay stable as it grows
  std::vector<Slab*> slabs;

  MetricId find_or_add(const char* name, Kind kind) {
    std::lock_guard lk(mu);
    for (MetricId i = 0; i < metrics.size(); ++i) {
      if (metrics[i].name == name) {
        if (metrics[i].kind != kind)
          throw std::logic_error("obs: metric re-registered with a different kind: " +
                                 metrics[i].name);
        return i;
      }
    }
    Metric& m = metrics.emplace_back();  // Metric is pinned (atomic member)
    m.name = name;
    m.kind = kind;
    return static_cast<MetricId>(metrics.size() - 1);
  }

  // Sum of one counter's shards; caller holds mu.
  std::uint64_t sum_locked(MetricId id) const {
    std::uint64_t v = metrics[id].retired;
    for (const Slab* s : slabs)
      if (id < s->cells.size()) v += detail::cell_load(s->cells[id]);
    return v;
  }
};

// Leaked singleton: threads may still be folding their slabs while static
// destructors run, so the registry must outlive everything.
Registry& reg() {
  static Registry* r = new Registry;
  return *r;
}

Slab& tls_slab() {
  thread_local Slab s;
  return s;
}

Slab::~Slab() {
  Registry& r = reg();
  std::lock_guard lk(r.mu);
  for (MetricId i = 0; i < cells.size(); ++i) r.metrics[i].retired += cells[i];
  for (MetricId i = 0; i < hists.size(); ++i)
    if (hists[i]) r.metrics[i].retired_hist.merge(*hists[i]);
  std::erase(r.slabs, this);
}

}  // namespace

namespace detail {

constinit thread_local TlsCells t_cells{nullptr, 0};

std::uint64_t* slow_cell(MetricId id) {
  Registry& r = reg();
  Slab& s = tls_slab();
  std::lock_guard lk(r.mu);
  if (std::find(r.slabs.begin(), r.slabs.end(), &s) == r.slabs.end())
    r.slabs.push_back(&s);
  if (id >= s.cells.size()) s.cells.resize(r.metrics.size(), 0);
  t_cells = {s.cells.data(), static_cast<std::uint32_t>(s.cells.size())};
  return &s.cells[id];
}

}  // namespace detail

MetricId register_metric(const char* name, Kind kind) {
  return reg().find_or_add(name, kind);
}

std::uint64_t Counter::value() const { return counter_value(id_); }

Gauge::Gauge(const char* name) : id_(register_metric(name, Kind::kGauge)) {
  Registry& r = reg();
  std::lock_guard lk(r.mu);
  cell_ = &r.metrics[id_].gauge;
}
void Gauge::set(std::int64_t v) const noexcept {
  cell_->store(v, std::memory_order_relaxed);
}
void Gauge::add(std::int64_t d) const noexcept {
  cell_->fetch_add(d, std::memory_order_relaxed);
}
std::int64_t Gauge::value() const noexcept {
  return cell_->load(std::memory_order_relaxed);
}

void Histogram::record(std::uint64_t v) const noexcept {
  Registry& r = reg();
  Slab& s = tls_slab();
  if (id_ >= s.hists.size() || !s.hists[id_]) {
    std::lock_guard lk(r.mu);
    if (std::find(r.slabs.begin(), r.slabs.end(), &s) == r.slabs.end())
      r.slabs.push_back(&s);
    if (id_ >= s.hists.size()) s.hists.resize(id_ + 1);
    if (!s.hists[id_]) s.hists[id_] = std::make_unique<LatencyHistogram>();
  }
  s.hists[id_]->record(v);
}

LatencyHistogram Histogram::aggregate() const {
  Registry& r = reg();
  std::lock_guard lk(r.mu);
  LatencyHistogram out = r.metrics[id_].retired_hist;
  for (const Slab* s : r.slabs)
    if (id_ < s->hists.size() && s->hists[id_]) out.merge(*s->hists[id_]);
  return out;
}

std::uint64_t counter_value(MetricId id) {
  Registry& r = reg();
  std::lock_guard lk(r.mu);
  return r.sum_locked(id);
}

std::uint64_t Snapshot::counter(std::string_view name) const noexcept {
  for (const auto& [n, v] : counters)
    if (n == name) return v;
  return 0;
}

Snapshot snapshot() {
  Registry& r = reg();
  std::lock_guard lk(r.mu);
  Snapshot out;
  for (MetricId i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    switch (m.kind) {
      case Kind::kCounter:
        out.counters.emplace_back(m.name, r.sum_locked(i));
        break;
      case Kind::kGauge:
        out.gauges.emplace_back(m.name, m.gauge.load(std::memory_order_relaxed));
        break;
      case Kind::kHistogram: {
        LatencyHistogram h = m.retired_hist;
        for (const Slab* s : r.slabs)
          if (i < s->hists.size() && s->hists[i]) h.merge(*s->hists[i]);
        HistogramSummary sum;
        sum.count = h.count();
        sum.sum = h.sum();
        sum.min = h.min();
        sum.max = h.max();
        sum.mean = h.mean();
        sum.p50 = h.percentile(0.50);
        sum.p90 = h.percentile(0.90);
        sum.p99 = h.percentile(0.99);
        sum.p999 = h.percentile(0.999);
        sum.buckets = h.cumulative_buckets();
        out.histograms.emplace_back(m.name, sum);
        break;
      }
    }
  }
  auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

}  // namespace rnt::obs
