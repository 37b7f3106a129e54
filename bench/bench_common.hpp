// Shared infrastructure for the paper-reproduction benchmark binaries.
//
// Every bench prints the series/rows of one table or figure from the paper.
// Defaults are sized to finish in tens of seconds on a small machine; pass
// --paper for the paper's full parameters (16M warm keys, 5 s per op).
//
// Common flags:
//   --paper            paper-scale parameters
//   --warm=N           warm-up key count
//   --seconds=S        measure duration per op
//   --write-ns=N       NVM write latency to inject (default 140, the paper's
//                      NVDIMM write latency; 0 = DRAM-speed)
//   --seed=N           workload seed
//   --stats-json=FILE  after the run, write the obs registry snapshot
//                      (persist/HTM/epoch/pool/structural counters) as JSON
//                      to FILE ("-" = stdout); see src/obs/export.hpp for
//                      the document shape
//   --trace=N          keep a per-thread flight-recorder ring of the last N
//                      operations; included under "trace" in the JSON dump
//   --sample-ms=N      background time-series sampler: snapshot the metrics
//                      registry every N ms; windowed rates exported under
//                      "timeseries" in the JSON dump (src/obs/sampler.hpp)
//   --perfetto=FILE    write the flight-recorder ring as a chrome://tracing
//                      / ui.perfetto.dev JSON timeline to FILE at exit;
//                      implies a default --trace=4096 if --trace is absent
//   --heatmap-buckets=N  arm the contention heatmap with N key-range buckets
//                      (power of two in [2, 4096]); aborts/fallbacks are
//                      attributed by key range and exported under "heatmap"
//                      in the JSON dump (src/obs/heatmap.hpp)
//   --shards=N         shard count for the sharded panels (power of two in
//                      [1, 16]); benches without a sharded mode ignore it
//   --batch=K          group-persistency batch size: modifies per trailing
//                      fence in the sharded/batched segments (default 1,
//                      i.e. eager per-op fences)
//
// Either telemetry flag also arms per-op phase attribution
// (obs::set_phase_timing), populating the lat.phase.* histograms.
//
// Unknown flags are rejected with a usage message (exit 2) so typos cannot
// silently run a bench with default parameters.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/timing.hpp"
#include "nvm/persist.hpp"
#include "nvm/pool.hpp"
#include "obs/buildinfo.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/export.hpp"
#include "obs/heatmap.hpp"
#include "obs/phase.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "workload/ycsb.hpp"

namespace rnt::bench {

struct BenchOptions {
  std::uint64_t warm = 200'000;
  /// Request-distribution key space for the simulated contention figures
  /// (8, 9, 10).  Calibrated so the simulator's hot-leaf pressure matches
  /// the per-op latencies the paper reports in Fig 9 — ideal YCSB-Zipf over
  /// the full 16M keys produces far less concentration than the paper's
  /// measured contention implies (see EXPERIMENTS.md).
  std::uint64_t hot_keys = 20'000;
  double seconds = 0.5;
  double remove_seconds = 0.1;
  std::uint32_t write_ns = 140;
  std::uint32_t per_line_ns = 2;
  std::uint64_t seed = 42;
  bool paper = false;
  std::string stats_json{};      ///< --stats-json=FILE ("" = no export)
  std::uint64_t trace_events = 0;  ///< --trace=N per-thread ring capacity
  bool trace_in_json = false;    ///< explicit --trace: include "trace" in JSON
  std::uint32_t sample_ms = 0;   ///< --sample-ms=N sampler interval (0 = off)
  std::string perfetto{};        ///< --perfetto=FILE ("" = no timeline export)
  std::uint32_t heatmap_buckets = 0;  ///< --heatmap-buckets=N (0 = heatmap off)
  /// --shards=N shard count for the sharded panels/segments (power of two in
  /// [1, PmemPool::kNumRoots]); 1 = unsharded.
  std::uint32_t shards = 1;
  /// --batch=K group-persistency batch size (modifies per trailing fence);
  /// 1 = eager persists (the paper's Table-1 profile).
  std::uint32_t batch = 1;
  /// --recovery-workers=N parallel-recovery workers for the fig7 panels;
  /// 0 = tree default (auto).
  std::uint32_t recovery_workers = 0;

  static void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [flags]\n"
                 "  --paper            paper-scale parameters\n"
                 "  --warm=N           warm-up key count\n"
                 "  --hot-keys=N       request-distribution key space\n"
                 "  --seconds=S        measure duration per op\n"
                 "  --write-ns=N       injected NVM write latency (ns)\n"
                 "  --seed=N           workload seed\n"
                 "  --stats-json=FILE  write metrics snapshot as JSON (\"-\" = stdout)\n"
                 "  --trace=N          per-thread flight-recorder ring of N events\n"
                 "  --sample-ms=N      time-series sampler interval (JSON \"timeseries\")\n"
                 "  --perfetto=FILE    write chrome://tracing timeline JSON to FILE\n"
                 "  --heatmap-buckets=N  contention heatmap with N key-range buckets\n"
                 "                     (power of two, %u-%u); JSON \"heatmap\" section\n"
                 "  --shards=N         shard count (power of two, 1-%d)\n"
                 "  --batch=K          group-persistency batch size (modifies per fence)\n"
                 "  --recovery-workers=N  parallel-recovery workers (fig7 panels)\n",
                 argv0, obs::kHeatmapMinBuckets, obs::kHeatmapMaxBuckets,
                 nvm::PmemPool::kNumRoots);
  }

  /// Strict positive-integer flag value: the whole string must be digits and
  /// the result nonzero, so "--sample-ms=0", "--sample-ms=-5" and
  /// "--sample-ms=5x" are all rejected instead of silently truncated.
  static bool parse_positive_u32(const char* s, std::uint32_t* out) {
    if (*s == '\0') return false;
    char* end = nullptr;
    const unsigned long v = std::strtoul(s, &end, 10);
    if (*end != '\0' || *s == '-' || v == 0 || v > 0xffffffffUL) return false;
    *out = static_cast<std::uint32_t>(v);
    return true;
  }

  static BenchOptions parse(int argc, char** argv) {
    BenchOptions o;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto val = [&](const char* prefix) -> const char* {
        const std::size_t n = std::strlen(prefix);
        return a.compare(0, n, prefix) == 0 ? a.c_str() + n : nullptr;
      };
      if (a == "--paper") {
        o.paper = true;
        o.warm = 16'000'000;
        o.seconds = 5.0;
      } else if (const char* v = val("--warm=")) {
        o.warm = std::strtoull(v, nullptr, 10);
      } else if (const char* v = val("--hot-keys=")) {
        o.hot_keys = std::strtoull(v, nullptr, 10);
      } else if (const char* v = val("--seconds=")) {
        o.seconds = std::strtod(v, nullptr);
      } else if (const char* v = val("--write-ns=")) {
        o.write_ns = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
      } else if (const char* v = val("--seed=")) {
        o.seed = std::strtoull(v, nullptr, 10);
      } else if (const char* v = val("--stats-json=")) {
        o.stats_json = v;
      } else if (const char* v = val("--trace=")) {
        o.trace_events = std::strtoull(v, nullptr, 10);
        o.trace_in_json = o.trace_events != 0;
      } else if (const char* v = val("--sample-ms=")) {
        if (!parse_positive_u32(v, &o.sample_ms)) {
          std::fprintf(stderr,
                       "%s: --sample-ms wants a positive integer, got '%s'\n",
                       argv[0], v);
          usage(argv[0]);
          std::exit(2);
        }
      } else if (const char* v = val("--perfetto=")) {
        o.perfetto = v;
      } else if (const char* v = val("--heatmap-buckets=")) {
        if (!parse_positive_u32(v, &o.heatmap_buckets) ||
            !obs::heatmap_valid_buckets(o.heatmap_buckets)) {
          std::fprintf(stderr,
                       "%s: --heatmap-buckets wants a power of two in [%u, %u],"
                       " got '%s'\n",
                       argv[0], obs::kHeatmapMinBuckets, obs::kHeatmapMaxBuckets,
                       v);
          usage(argv[0]);
          std::exit(2);
        }
      } else if (const char* v = val("--shards=")) {
        if (!parse_positive_u32(v, &o.shards) ||
            o.shards > static_cast<std::uint32_t>(nvm::PmemPool::kNumRoots) ||
            (o.shards & (o.shards - 1)) != 0) {
          std::fprintf(stderr,
                       "%s: --shards wants a power of two in [1, %d], got '%s'\n",
                       argv[0], nvm::PmemPool::kNumRoots, v);
          usage(argv[0]);
          std::exit(2);
        }
      } else if (const char* v = val("--batch=")) {
        if (!parse_positive_u32(v, &o.batch)) {
          std::fprintf(stderr,
                       "%s: --batch wants a positive integer, got '%s'\n",
                       argv[0], v);
          usage(argv[0]);
          std::exit(2);
        }
      } else if (const char* v = val("--recovery-workers=")) {
        if (!parse_positive_u32(v, &o.recovery_workers)) {
          std::fprintf(stderr,
                       "%s: --recovery-workers wants a positive integer, "
                       "got '%s'\n",
                       argv[0], v);
          usage(argv[0]);
          std::exit(2);
        }
      } else if (a == "--help" || a == "-h") {
        usage(argv[0]);
        std::exit(0);
      } else {
        std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], a.c_str());
        usage(argv[0]);
        std::exit(2);
      }
    }
    if (!o.perfetto.empty() && o.trace_events == 0)
      o.trace_events = 4096;  // a timeline needs events to draw
    if (o.trace_events != 0) obs::set_trace_capacity(o.trace_events);
    if (o.sample_ms != 0 || !o.perfetto.empty()) obs::set_phase_timing(true);
    if (o.sample_ms != 0)
      obs::sampler().start({.interval_ms = o.sample_ms, .capacity = 600});
    if (o.heatmap_buckets != 0) {
      // Benches that know their key space (fig 8-10) reconfigure with it
      // before the run; this default covers the full 64-bit key domain.
      obs::heatmap_configure({.buckets = o.heatmap_buckets, .key_space = 0});
      obs::set_heatmap_enabled(true);
    }
    return o;
  }

  void apply_nvm_config() const {
    nvm::config().write_latency_ns = write_ns;
    nvm::config().per_line_ns = per_line_ns;
  }

  /// Pool size comfortably holding `warm` keys for the fattest leaf design.
  std::size_t pool_size(double growth_factor = 2.0) const {
    const std::size_t bytes =
        static_cast<std::size_t>(static_cast<double>(warm) * 80.0 * growth_factor);
    return std::max<std::size_t>(bytes, std::size_t{64} << 20);
  }
};

/// Honour the telemetry export flags: stop the sampler (so its final window
/// covers the run's tail), write the --perfetto timeline, then the
/// --stats-json registry snapshot (plus trace rings when --trace is on and
/// the "timeseries" section when --sample-ms was given) tagged with build
/// provenance and the bench's parameters.  Every bench main calls this once
/// on its way out.
inline void export_stats(const BenchOptions& o, const std::string& bench_name,
                         const std::vector<obs::MetaField>& extra_meta = {}) {
  if (o.sample_ms != 0) obs::sampler().stop();
  if (!o.perfetto.empty()) obs::write_chrome_trace(o.perfetto);
  if (o.stats_json.empty()) return;
  std::vector<obs::MetaField> meta = obs::standard_meta();
  const std::vector<obs::MetaField> bench_meta = {
      {"bench", bench_name, false},
      {"warm", std::to_string(o.warm), true},
      {"hot_keys", std::to_string(o.hot_keys), true},
      {"seconds", std::to_string(o.seconds), true},
      {"write_ns", std::to_string(o.write_ns), true},
      {"seed", std::to_string(o.seed), true},
      {"paper", o.paper ? "true" : "false", true},
  };
  meta.insert(meta.end(), bench_meta.begin(), bench_meta.end());
  if (o.heatmap_buckets != 0)
    meta.push_back({"heatmap_buckets", std::to_string(o.heatmap_buckets), true});
  if (o.shards != 1) meta.push_back({"shards", std::to_string(o.shards), true});
  if (o.batch != 1) meta.push_back({"batch", std::to_string(o.batch), true});
  if (o.recovery_workers != 0)
    meta.push_back(
        {"recovery_workers", std::to_string(o.recovery_workers), true});
  meta.insert(meta.end(), extra_meta.begin(), extra_meta.end());
  obs::write_json_snapshot(o.stats_json, meta, o.trace_in_json,
                           o.sample_ms != 0);
}

/// Bijective key scrambler: warm keys are mix64(0..warm-1); fresh insert
/// keys continue at mix64(warm + j).  Distinct, uniformly spread.
inline std::uint64_t nth_key(std::uint64_t i) { return mix64(i); }

/// Closed-loop single-thread measurement: run `op(i)` until the deadline,
/// return executed ops per second.  `op` receives a sequence number.
template <typename Fn>
double measure_rate(double seconds, Fn&& op) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t ops = 0;
  const std::uint64_t t0 = now_ns();
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      op(ops);
      ++ops;
    }
    if (now_ns() >= deadline) break;
  }
  const double elapsed = static_cast<double>(now_ns() - t0) * 1e-9;
  return static_cast<double>(ops) / elapsed;
}

/// Execute one workload::Op from an OpStream against @p tree, mapping stream
/// keys through nth_key and drawing insert keys from @p fresh (so conditional
/// inserts succeed every time, as the figure benches require).  kScan uses the
/// caller-provided buffer to avoid per-op allocation, and falls back to a
/// point find on trees without a scan_n (keeps mixed loops uniform across the
/// zoo).  This is the one mix dispatcher all benches share, so adding an op
/// type to MixSpec reaches every mixed loop.
template <typename Tree>
void execute_op(Tree& tree, const workload::Op& op, std::uint64_t* fresh,
                std::vector<std::pair<std::uint64_t, std::uint64_t>>& scan_buf) {
  switch (op.type) {
    case workload::OpType::kFind:
      (void)tree.find(nth_key(op.key));
      break;
    case workload::OpType::kInsert:
      (void)tree.insert(nth_key((*fresh)++), 1);
      break;
    case workload::OpType::kUpdate:
      (void)tree.update(nth_key(op.key), op.key);
      break;
    case workload::OpType::kRemove:
      (void)tree.remove(nth_key(op.key));
      break;
    case workload::OpType::kScan:
      if constexpr (requires {
                      tree.scan_n(std::uint64_t{}, std::size_t{}, scan_buf);
                    }) {
        (void)tree.scan_n(nth_key(op.key), op.scan_n, scan_buf);
      } else {
        (void)tree.find(nth_key(op.key));
      }
      break;
  }
}

// --- table printing -------------------------------------------------------

inline void print_header(const std::string& title,
                         const std::vector<std::string>& cols) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-14s", "");
  for (const auto& c : cols) std::printf("%14s", c.c_str());
  std::printf("\n");
}

inline void print_row(const std::string& name, const std::vector<double>& vals,
                      const char* fmt = "%14.3f") {
  std::printf("%-14s", name.c_str());
  for (double v : vals) std::printf(fmt, v);
  std::printf("\n");
}

inline void print_note(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::printf("  # ");
  std::vprintf(fmt, args);
  std::printf("\n");
  va_end(args);
}

}  // namespace rnt::bench
