// Micro-benchmarks of the primitive costs everything else builds on:
// persist instructions (with and without injected latency), CAS log
// allocation, seqlock snapshots, version-lock operations, slot-array
// updates, Zipfian generation, and single leaf-level operations per tree.
//
// These numbers calibrate the discrete-event simulator's stage costs (see
// src/sim) and make the injected-latency model auditable.
#include <benchmark/benchmark.h>

#include <bit>
#include <map>
#include <string>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "core/rntree.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "core/slot_util.hpp"
#include "htm/rtm.hpp"
#include "htm/seqlock.hpp"
#include "htm/version_lock.hpp"
#include "nvm/persist.hpp"
#include "nvm/pool.hpp"
#include "workload/zipfian.hpp"

namespace {

using namespace rnt;

void BM_PersistOneLine_NoLatency(benchmark::State& state) {
  nvm::config().write_latency_ns = 0;
  nvm::config().per_line_ns = 0;
  alignas(64) char buf[64];
  for (auto _ : state) nvm::persist(buf, 64);
}
BENCHMARK(BM_PersistOneLine_NoLatency);

void BM_PersistOneLine_140ns(benchmark::State& state) {
  nvm::config().write_latency_ns = 140;
  nvm::config().per_line_ns = 2;
  alignas(64) char buf[64];
  for (auto _ : state) nvm::persist(buf, 64);
  nvm::config().write_latency_ns = 0;
}
BENCHMARK(BM_PersistOneLine_140ns);

void BM_PersistWholeLeaf_140ns(benchmark::State& state) {
  nvm::config().write_latency_ns = 140;
  nvm::config().per_line_ns = 2;
  alignas(64) char buf[1216];
  for (auto _ : state) nvm::persist(buf, sizeof(buf));
  nvm::config().write_latency_ns = 0;
}
BENCHMARK(BM_PersistWholeLeaf_140ns);

// Alg 2 as the tree runs it: claim the lowest set bit of a leaf's free-index
// mask with one CAS; a full mask is refilled as a shrink split would.
void BM_CasAllocate(benchmark::State& state) {
  std::atomic<std::uint64_t> free_mask{~std::uint64_t{0}};
  for (auto _ : state) {
    std::uint64_t m = free_mask.load(std::memory_order_relaxed);
    if (m == 0) {
      free_mask.store(~std::uint64_t{0}, std::memory_order_relaxed);
      continue;
    }
    if (free_mask.compare_exchange_weak(m, m & (m - 1), std::memory_order_acq_rel))
      benchmark::DoNotOptimize(std::countr_zero(m));
  }
}
BENCHMARK(BM_CasAllocate);

void BM_SeqlockSnapshot(benchmark::State& state) {
  htm::SeqCounter seq;
  alignas(64) std::uint8_t slot[64] = {};
  alignas(64) std::uint8_t snap[64];
  for (auto _ : state) {
    const std::uint32_t s = seq.read_begin();
    std::memcpy(snap, slot, 64);
    benchmark::DoNotOptimize(seq.read_validate(s));
    benchmark::DoNotOptimize(snap);
  }
}
BENCHMARK(BM_SeqlockSnapshot);

void BM_VersionLockCycle(benchmark::State& state) {
  htm::VersionLock vl;
  for (auto _ : state) {
    vl.lock();
    vl.unlock();
  }
}
BENCHMARK(BM_VersionLockCycle);

void BM_AtomicExec(benchmark::State& state) {
  htm::SpinLock fb;
  std::uint64_t x = 0;
  for (auto _ : state) {
    htm::atomic_exec(&fb, [&] { ++x; });
  }
  benchmark::DoNotOptimize(x);
}
BENCHMARK(BM_AtomicExec);

void BM_SlotInsert(benchmark::State& state) {
  struct E {
    std::uint64_t key, value;
  };
  alignas(64) std::uint8_t slot[64] = {};
  E logs[64];
  for (int i = 0; i < 64; ++i) logs[i] = {static_cast<std::uint64_t>(i) * 2, 0};
  for (auto _ : state) {
    slot[0] = 32;
    for (int i = 0; i < 32; ++i) slot[1 + i] = static_cast<std::uint8_t>(i);
    const int pos = core::slot_lower_bound(slot, logs, std::uint64_t{33});
    core::slot_insert_at(slot, pos, 40);
    benchmark::DoNotOptimize(slot);
  }
}
BENCHMARK(BM_SlotInsert);

void BM_ZipfianNext(benchmark::State& state) {
  workload::ZipfianGenerator gen(1 << 20, 0.8, 1);
  for (auto _ : state) benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_ZipfianNext);

void BM_ScrambledZipfianNext(benchmark::State& state) {
  workload::ScrambledZipfianGenerator gen(1 << 20, 0.99, 1);
  for (auto _ : state) benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_ScrambledZipfianNext);

void BM_RNTreeFind(benchmark::State& state) {
  nvm::config().write_latency_ns = 0;
  nvm::PmemPool pool(std::size_t{128} << 20);
  core::RNTree<> tree(pool);
  for (std::uint64_t i = 0; i < 100'000; ++i) tree.upsert(mix64(i), i);
  Xoshiro256 rng(7);
  for (auto _ : state)
    benchmark::DoNotOptimize(tree.find(mix64(rng.next_below(100'000))));
}
BENCHMARK(BM_RNTreeFind);

void BM_RNTreeUpsert_140ns(benchmark::State& state) {
  nvm::config().write_latency_ns = 140;
  nvm::config().per_line_ns = 2;
  nvm::PmemPool pool(std::size_t{512} << 20);
  core::RNTree<> tree(pool);
  for (std::uint64_t i = 0; i < 100'000; ++i) tree.upsert(mix64(i), i);
  Xoshiro256 rng(7);
  for (auto _ : state) tree.upsert(mix64(rng.next_below(100'000)), 1);
  nvm::config().write_latency_ns = 0;
}
BENCHMARK(BM_RNTreeUpsert_140ns);

void BM_MixYcsbE(benchmark::State& state) {
  // Scan-heavy service mix (95% scan-of-100 / 5% insert) through the shared
  // execute_op dispatcher — exercises the OpType::kScan path end to end.
  nvm::config().write_latency_ns = 0;
  nvm::PmemPool pool(std::size_t{256} << 20);
  core::RNTree<> tree(pool);
  constexpr std::uint64_t kWarm = 100'000;
  for (std::uint64_t i = 0; i < kWarm; ++i) tree.upsert(mix64(i), i);
  workload::OpStream mix(workload::MixSpec::ycsb_e(),
                         workload::KeyDist::kUniform, kWarm, 0.0, 7);
  std::uint64_t fresh = kWarm;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> scan_buf;
  for (auto _ : state) {
    bench::execute_op(tree, mix.next(), &fresh, scan_buf);
    benchmark::DoNotOptimize(scan_buf);
  }
}
BENCHMARK(BM_MixYcsbE);

}  // namespace

// ---------------------------------------------------------------------------
// Perf-gate mode (--gate-json=FILE): one canonical single-thread workload
// whose numbers are committed as BENCH_micro.json and compared by
// tools/perf_gate.py in CI.  The workload is fixed — changing it invalidates
// every committed baseline, so version it via the "schema" meta field.
//
// Four rate phases (closed-loop, default 0.4 s each):
//   calib  — a pure-CPU mix64 loop; a machine-speed normalizer so the gate
//            can compare *ratios* (tree rate / calib rate) across hosts
//   find   — uniform point lookups over the warm keys
//   insert — fresh-key inserts continuing past the warm range
//   mixed  — 50% find / 25% update / 25% fresh insert
// plus the Table-1 persist-count check: the mode (most frequent value) of
// per-op persist-instruction deltas over 64 ops per class.  Modes are exact
// machine-independent integers — any drift is a correctness-level failure,
// not noise.
// ---------------------------------------------------------------------------
namespace {

template <typename Fn>
std::uint64_t persist_mode_of(Fn&& op) {
  const obs::Counter& persists = nvm::persist_counters().persist;
  std::map<std::uint64_t, int> freq;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t before = persists.local();
    op(i);
    freq[persists.local() - before]++;
  }
  std::uint64_t best = 0;
  int best_n = -1;
  for (const auto& [v, n] : freq)
    if (n > best_n) { best = v; best_n = n; }
  return best;
}

int run_gate(const std::string& path, std::uint64_t warm, double secs) {
  nvm::config().write_latency_ns = 0;
  nvm::config().per_line_ns = 0;

  nvm::PmemPool pool(std::max<std::size_t>(std::size_t{256} << 20, warm * 160));
  core::RNTree<> tree(pool);
  for (std::uint64_t i = 0; i < warm; ++i) tree.upsert(mix64(i), i);

  std::uint64_t acc = 0;
  const double calib =
      bench::measure_rate(secs, [&](std::uint64_t i) { acc ^= mix64(i); });

  Xoshiro256 rng(42);
  const double find = bench::measure_rate(secs, [&](std::uint64_t) {
    auto r = tree.find(mix64(rng.next_below(warm)));
    if (r) acc ^= *r;
  });

  std::uint64_t fresh = warm;
  const double insert = bench::measure_rate(secs, [&](std::uint64_t) {
    tree.insert(mix64(fresh), fresh);
    ++fresh;
  });

  const double mixed = bench::measure_rate(secs, [&](std::uint64_t i) {
    switch (i & 3) {
      case 0:
      case 1: {
        auto r = tree.find(mix64(rng.next_below(warm)));
        if (r) acc ^= *r;
        break;
      }
      case 2:
        tree.update(mix64(rng.next_below(warm)), i);
        break;
      default:
        tree.insert(mix64(fresh), fresh);
        ++fresh;
        break;
    }
  });

  const std::uint64_t find_p = persist_mode_of(
      [&](int i) { (void)tree.find(mix64(static_cast<std::uint64_t>(i) * 97 % warm)); });
  const std::uint64_t update_p = persist_mode_of([&](int i) {
    (void)tree.update(mix64(static_cast<std::uint64_t>(i) * 131 % warm), 7);
  });
  const std::uint64_t insert_p = persist_mode_of([&](int) {
    (void)tree.insert(mix64(fresh), fresh);
    ++fresh;
  });
  const std::uint64_t remove_p = persist_mode_of([&](int i) {
    (void)tree.remove(mix64(static_cast<std::uint64_t>(i) * 131 % warm));
  });

  // Group-persistency gate: fences per update eagerly (KV fence + slot fence
  // = 2) and per batch of 8 updates under one nvm::BatchScope (8 KV fences +
  // 1 trailing barrier = 9).  Exact integers; regression here means the
  // fence-amortization machinery broke.
  const auto fences = [] {
    const nvm::PersistCounters& c = nvm::persist_counters();
    return c.fence.local() + c.batch_fence.local();
  };
  const auto fence_mode_of = [&](int rounds, auto&& op) {
    std::map<std::uint64_t, int> freq;
    for (int i = 0; i < rounds; ++i) {
      const std::uint64_t before = fences();
      op(i);
      freq[fences() - before]++;
    }
    std::uint64_t best = 0;
    int best_n = -1;
    for (const auto& [v, n] : freq)
      if (n > best_n) { best = v; best_n = n; }
    return best;
  };
  const std::uint64_t update_f = fence_mode_of(64, [&](int i) {
    (void)tree.update(mix64(static_cast<std::uint64_t>(i) * 193 % warm), 9);
  });
  const std::uint64_t batch8_f = fence_mode_of(16, [&](int i) {
    nvm::BatchScope scope;
    for (int j = 0; j < 8; ++j)
      (void)tree.update(
          mix64(static_cast<std::uint64_t>(i * 8 + j) * 197 % warm), 11);
  });

  auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    return std::string(buf);
  };
  std::vector<rnt::obs::MetaField> meta = rnt::obs::standard_meta();
  const std::vector<rnt::obs::MetaField> gate_meta = {
      {"bench", "micro_gate", false},
      // v2: adds the group-persistency fence modes (update_fences_mode,
      // batch8_fences_mode).  Re-baseline BENCH_micro.json on schema bumps.
      {"schema", "rnt-gate-v2", false},
      {"warm", std::to_string(warm), true},
      {"seconds", num(secs), true},
      {"calib_mops", num(calib * 1e-6), true},
      {"find_mops", num(find * 1e-6), true},
      {"insert_mops", num(insert * 1e-6), true},
      {"mixed_mops", num(mixed * 1e-6), true},
      {"find_persists_mode", std::to_string(find_p), true},
      {"insert_persists_mode", std::to_string(insert_p), true},
      {"update_persists_mode", std::to_string(update_p), true},
      {"remove_persists_mode", std::to_string(remove_p), true},
      {"update_fences_mode", std::to_string(update_f), true},
      {"batch8_fences_mode", std::to_string(batch8_f), true},
  };
  meta.insert(meta.end(), gate_meta.begin(), gate_meta.end());
  rnt::obs::write_json_snapshot(path, meta, false);
  std::printf("gate: calib %.2f Mops | find %.4f | insert %.4f | mixed %.4f"
              " | persists f/i/u/r = %llu/%llu/%llu/%llu"
              " | fences u/batch8 = %llu/%llu -> %s\n",
              calib * 1e-6, find * 1e-6, insert * 1e-6, mixed * 1e-6,
              (unsigned long long)find_p, (unsigned long long)insert_p,
              (unsigned long long)update_p, (unsigned long long)remove_p,
              (unsigned long long)update_f, (unsigned long long)batch8_f,
              path.c_str());
  return acc == 0x12345 ? 1 : 0;  // keep acc observable; always returns 0
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): peel off the repo-wide
// --stats-json=FILE / --trace=N / --sample-ms=N / --perfetto=FILE flags plus
// the gate-mode flags (google-benchmark rejects flags it does not know)
// before handing the rest to the library.
int main(int argc, char** argv) {
  std::string stats_json;
  std::string gate_json;
  std::string perfetto;
  std::uint64_t gate_warm = 200'000;
  double gate_secs = 0.4;
  std::uint32_t sample_ms = 0;
  bool tracing = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--stats-json=", 0) == 0) {
      stats_json = a.substr(13);
    } else if (a.rfind("--gate-json=", 0) == 0) {
      gate_json = a.substr(12);
    } else if (a.rfind("--gate-warm=", 0) == 0) {
      gate_warm = std::strtoull(a.c_str() + 12, nullptr, 10);
    } else if (a.rfind("--gate-seconds=", 0) == 0) {
      gate_secs = std::strtod(a.c_str() + 15, nullptr);
    } else if (a.rfind("--trace=", 0) == 0) {
      rnt::obs::set_trace_capacity(std::strtoull(a.c_str() + 8, nullptr, 10));
      tracing = true;
    } else if (a.rfind("--sample-ms=", 0) == 0) {
      sample_ms =
          static_cast<std::uint32_t>(std::strtoul(a.c_str() + 12, nullptr, 10));
    } else if (a.rfind("--perfetto=", 0) == 0) {
      perfetto = a.substr(11);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (!perfetto.empty() && !tracing) {
    rnt::obs::set_trace_capacity(4096);
    tracing = true;
  }
  if (sample_ms != 0 || !perfetto.empty()) rnt::obs::set_phase_timing(true);
  if (sample_ms != 0) rnt::obs::sampler().start({.interval_ms = sample_ms});
  if (!gate_json.empty())
    return run_gate(gate_json, gate_warm, gate_secs);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (sample_ms != 0) rnt::obs::sampler().stop();
  if (!perfetto.empty()) rnt::obs::write_chrome_trace(perfetto);
  if (!stats_json.empty()) {
    std::vector<rnt::obs::MetaField> meta = rnt::obs::standard_meta();
    meta.push_back({"bench", "micro", false});
    rnt::obs::write_json_snapshot(stats_json, meta, tracing, sample_ms != 0);
  }
  return 0;
}
