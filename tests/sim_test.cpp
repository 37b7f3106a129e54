// Tests for the discrete-event simulator: kernel semantics (scheduler,
// delays, FIFO mutex, NVM channel queueing) and model-level properties the
// figure benches rely on (determinism, single-thread sanity, linear uniform
// scaling, skew-induced contrasts between the tree models).
#include <gtest/gtest.h>

#include "sim/models.hpp"
#include "sim/simulator.hpp"

namespace rnt::sim {
namespace {

// --- kernel -----------------------------------------------------------

Task record_times(Scheduler& s, std::vector<SimTime>& out, SimTime d, int n) {
  for (int i = 0; i < n; ++i) {
    co_await Delay{s, d};
    out.push_back(s.now());
  }
}

TEST(Scheduler, DelaysAdvanceVirtualTime) {
  Scheduler s;
  std::vector<SimTime> times;
  s.spawn(record_times(s, times, 100, 5));
  s.run_until(10'000);
  ASSERT_EQ(times.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(times[i], 100u * (i + 1));
  EXPECT_EQ(s.now(), 10'000u);
}

TEST(Scheduler, HorizonStopsExecution) {
  Scheduler s;
  std::vector<SimTime> times;
  s.spawn(record_times(s, times, 1000, 100));
  s.run_until(3'500);
  EXPECT_EQ(times.size(), 3u);  // events at 1000, 2000, 3000
}

TEST(Scheduler, InterleavesWorkersByTime) {
  Scheduler s;
  std::vector<SimTime> a, b;
  s.spawn(record_times(s, a, 300, 3));  // 300, 600, 900
  s.spawn(record_times(s, b, 200, 3));  // 200, 400, 600
  s.run_until(10'000);
  EXPECT_EQ(a, (std::vector<SimTime>{300, 600, 900}));
  EXPECT_EQ(b, (std::vector<SimTime>{200, 400, 600}));
}

Task lock_user(Scheduler& s, SimMutex& m, SimTime hold,
               std::vector<std::pair<SimTime, SimTime>>& spans) {
  co_await m.acquire(s);
  const SimTime t0 = s.now();
  co_await Delay{s, hold};
  spans.emplace_back(t0, s.now());
  m.release(s);
}

TEST(SimMutex, SerializesHolders) {
  Scheduler s;
  SimMutex m;
  std::vector<std::pair<SimTime, SimTime>> spans;
  for (int i = 0; i < 4; ++i) s.spawn(lock_user(s, m, 100, spans));
  s.run_until(10'000);
  ASSERT_EQ(spans.size(), 4u);
  // Non-overlapping, back to back: [0,100),[100,200),...
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].first, 100u * i);
    EXPECT_EQ(spans[i].second, 100u * (i + 1));
  }
}

TEST(SimMutex, LockedQuery) {
  Scheduler s;
  SimMutex m;
  std::vector<std::pair<SimTime, SimTime>> spans;
  EXPECT_FALSE(m.locked());
  s.spawn(lock_user(s, m, 500, spans));
  s.run_until(100);  // holder acquired at t=0, releases at 500
  EXPECT_TRUE(m.locked());
  s.run_until(1'000);
  EXPECT_FALSE(m.locked());
}

TEST(ChannelPool, UncontendedStallIsFenceLatency) {
  ChannelPool pool(6, 160, 25);
  EXPECT_EQ(pool.persist_latency(1000), 160u);
}

TEST(ChannelPool, OccupancyQueuesUnderBandwidthPressure) {
  ChannelPool pool(2, 100, 50);
  // Four simultaneous persists on two channels occupying 50 ns each: the
  // first pair stalls only the fence latency, the second also queues.
  EXPECT_EQ(pool.persist_latency(0), 100u);
  EXPECT_EQ(pool.persist_latency(0), 100u);
  EXPECT_EQ(pool.persist_latency(0), 150u);
  EXPECT_EQ(pool.persist_latency(0), 150u);
}

TEST(ChannelPool, IdleChannelsRecover) {
  ChannelPool pool(1, 100, 40);
  EXPECT_EQ(pool.persist_latency(0), 100u);
  EXPECT_EQ(pool.persist_latency(1'000'000), 100u);  // long idle gap
}

// --- models -----------------------------------------------------------

SimConfig base_config(TreeModel m, int threads, double theta) {
  SimConfig cfg;
  cfg.model = m;
  cfg.threads = threads;
  cfg.zipf_theta = theta;
  cfg.keys = 200'000;
  cfg.horizon_ns = 20'000'000;  // 20 ms virtual
  return cfg;
}

TEST(SimModels, DeterministicAcrossRuns) {
  const SimConfig cfg = base_config(TreeModel::kRNTreeDS, 8, 0.8);
  const SimResult a = run_simulation(cfg);
  const SimResult b = run_simulation(cfg);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.find_retries, b.find_retries);
  EXPECT_EQ(a.read_latency.percentile(0.99), b.read_latency.percentile(0.99));
}

TEST(SimModels, SingleThreadThroughputMatchesOpCost) {
  // One worker, closed loop: throughput ~= 1 / mean_op_cost.  An RNTree
  // update costs ~ traverse+alloc+write+persist + search+slot+persist
  // ~= 840 ns; a find ~= 450 ns; 50/50 mix ~= 645 ns/op -> ~1.55 Mops.
  const SimConfig cfg = base_config(TreeModel::kRNTreeDS, 1, 0.0);
  const SimResult r = run_simulation(cfg);
  EXPECT_GT(r.mops, 1.0);
  EXPECT_LT(r.mops, 2.5);
}

TEST(SimModels, UniformWorkloadScalesNearLinearly) {
  const SimResult one = run_simulation(base_config(TreeModel::kRNTreeDS, 1, 0.0));
  const SimResult eight =
      run_simulation(base_config(TreeModel::kRNTreeDS, 8, 0.0));
  EXPECT_GT(eight.mops, one.mops * 5.5);  // paper Fig 8(a): linear
}

TEST(SimModels, FPTreeUniformAlsoScales) {
  const SimResult one = run_simulation(base_config(TreeModel::kFPTree, 1, 0.0));
  const SimResult eight = run_simulation(base_config(TreeModel::kFPTree, 8, 0.0));
  EXPECT_GT(eight.mops, one.mops * 4.0);
}

// Contention-sensitive checks use the hot-set size the figure benches are
// calibrated to (EXPERIMENTS.md discusses the calibration: the paper's
// request distribution concentrates far more than ideal YCSB-Zipf over the
// full 16M keys would).
SimConfig skew_config(TreeModel m, int threads, double theta) {
  SimConfig cfg = base_config(m, threads, theta);
  cfg.keys = 20'000;
  return cfg;
}

TEST(SimModels, SkewedFPTreeLagsRNTree) {
  // Fig 8(b): under Zipf(0.8) RNTree clearly outperforms FPTree at high
  // thread counts.
  const SimResult rn = run_simulation(skew_config(TreeModel::kRNTree, 24, 0.8));
  const SimResult fp = run_simulation(skew_config(TreeModel::kFPTree, 24, 0.8));
  EXPECT_GT(rn.mops, fp.mops * 1.3);
}

TEST(SimModels, FPTreeSkewScalingPlateaus) {
  // FPTree gains much less from extra threads under skew; RNTree keeps
  // scaling (Fig 8(b)).
  const SimResult fp4 = run_simulation(skew_config(TreeModel::kFPTree, 4, 0.8));
  const SimResult fp24 = run_simulation(skew_config(TreeModel::kFPTree, 24, 0.8));
  const SimResult rn4 = run_simulation(skew_config(TreeModel::kRNTree, 4, 0.8));
  const SimResult rn24 = run_simulation(skew_config(TreeModel::kRNTree, 24, 0.8));
  const double fp_gain = fp24.mops / fp4.mops;
  const double rn_gain = rn24.mops / rn4.mops;
  EXPECT_GT(rn_gain, fp_gain * 1.2);
}

TEST(SimModels, DualSlotReadLatencyBeatsSingleSlot) {
  // Fig 9: RNTree+DS reads are (nearly) never blocked; plain RNTree reads
  // wait out slot flushes on hot leaves.
  SimConfig rn = base_config(TreeModel::kRNTree, 16, 0.9);
  SimConfig ds = base_config(TreeModel::kRNTreeDS, 16, 0.9);
  const SimResult r_rn = run_simulation(rn);
  const SimResult r_ds = run_simulation(ds);
  EXPECT_LT(r_ds.read_latency.percentile(0.99),
            r_rn.read_latency.percentile(0.99));
  EXPECT_LT(r_ds.find_retries, r_rn.find_retries);
}

TEST(SimModels, FPTreeReadLatencyWorstUnderContention) {
  const SimResult fp = run_simulation(base_config(TreeModel::kFPTree, 16, 0.9));
  const SimResult ds = run_simulation(base_config(TreeModel::kRNTreeDS, 16, 0.9));
  EXPECT_GT(fp.read_latency.percentile(0.99),
            ds.read_latency.percentile(0.99));
}

TEST(SimModels, SkewSensitivity) {
  // Fig 10: FPTree degrades sharply as theta grows; RNTree much less.
  const SimResult fp_mild = run_simulation(base_config(TreeModel::kFPTree, 8, 0.5));
  const SimResult fp_hot = run_simulation(base_config(TreeModel::kFPTree, 8, 0.99));
  const SimResult rn_mild = run_simulation(base_config(TreeModel::kRNTree, 8, 0.5));
  const SimResult rn_hot = run_simulation(base_config(TreeModel::kRNTree, 8, 0.99));
  const double fp_drop = fp_hot.mops / fp_mild.mops;
  const double rn_drop = rn_hot.mops / rn_mild.mops;
  EXPECT_LT(fp_drop, rn_drop);  // FPTree loses a larger fraction
}

TEST(SimModels, OpenLoopLatencyExplodesPastSaturation) {
  SimConfig cfg = base_config(TreeModel::kFPTree, 8, 0.8);
  cfg.open_rate = 20'000;  // well under capacity
  const SimResult light = run_simulation(cfg);
  cfg.open_rate = 2'000'000;  // far beyond per-worker capacity
  const SimResult heavy = run_simulation(cfg);
  EXPECT_GT(heavy.update_latency.percentile(0.5),
            light.update_latency.percentile(0.5) * 5);
}

TEST(SimModels, OpenLoopRespectsArrivalRate) {
  SimConfig cfg = base_config(TreeModel::kRNTreeDS, 4, 0.0);
  cfg.open_rate = 50'000;  // 50 Kops/worker -> 200 Kops total
  cfg.horizon_ns = 100'000'000;
  const SimResult r = run_simulation(cfg);
  EXPECT_NEAR(r.mops, 0.2, 0.04);
}

// --- SMO model (COW vs in-place install transactions) ------------------

SimConfig smo_config(bool cow, int threads) {
  SimConfig cfg = base_config(TreeModel::kRNTreeDS, threads, 0.0);
  cfg.update_pct = 100;   // insert-only: split-heavy
  cfg.keys_per_leaf = 16; // small fanout: SMO every ~16 modifies
  cfg.smo.enabled = true;
  cfg.smo.cow = cow;
  return cfg;
}

TEST(SimModels, SmoModelDeterministic) {
  const SimConfig cfg = smo_config(false, 16);
  const SimResult a = run_simulation(cfg);
  const SimResult b = run_simulation(cfg);
  EXPECT_EQ(a.smo_count, b.smo_count);
  EXPECT_EQ(a.aborts_capacity, b.aborts_capacity);
}

TEST(SimModels, CowSmoNeverCapacityAborts) {
  // A one-cache-line install transaction cannot overflow the write set: the
  // COW model records zero capacity aborts no matter the core count.
  const SimResult r = run_simulation(smo_config(true, 64));
  EXPECT_GT(r.smo_count, 100u);
  EXPECT_EQ(r.aborts_capacity, 0u);
}

TEST(SimModels, InplaceSmoSuffersCapacityAborts) {
  // The whole-path write set aborts a fixed share of attempts
  // (capacity_permille = 400, two attempts before fallback).
  const SimResult r = run_simulation(smo_config(false, 64));
  EXPECT_GT(r.smo_count, 100u);
  EXPECT_GT(r.aborts_capacity, r.smo_count / 4);
}

TEST(SimModels, CowSmoOutscalesInplaceAtHighCores) {
  // The in-place path's capacity-abort fallbacks serialize on the fallback
  // lock as cores grow; COW installs never take it (Fig 8-style contrast).
  const SimResult cow = run_simulation(smo_config(true, 64));
  const SimResult inp = run_simulation(smo_config(false, 64));
  EXPECT_GT(cow.mops, inp.mops);
  EXPECT_EQ(cow.htm_fallbacks, 0u);
  EXPECT_GT(inp.htm_fallbacks, 0u);
}

TEST(SimModels, DefaultPublishesNeverWaitOnTheShardFallbackLock) {
  // As built, a publish falls back under the leaf lock its writer already
  // holds, so with no storm the only fallbacks are in-place SMO escalations
  // (at most one per SMO).  A publish subscribed to the shard fallback lock
  // would add one fallback per publish that found an escalated SMO inside.
  const SimResult r = run_simulation(smo_config(false, 64));
  EXPECT_GT(r.htm_fallbacks, 0u) << "no SMO escalated to the shard lock";
  EXPECT_LE(r.htm_fallbacks, r.smo_count);
}

// --- leaf-lock vs global fallback under a capacity-abort storm ----------

SimConfig storm_config(bool global, std::uint32_t permille) {
  SimConfig cfg;
  cfg.model = TreeModel::kRNTreeDS;
  cfg.threads = 16;
  cfg.keys = 20'000;
  cfg.keys_per_leaf = 48;
  cfg.update_pct = 100;
  cfg.horizon_ns = 20'000'000;
  cfg.global_fallback = global;
  cfg.storm.enabled = true;  // hot set + 30% hot-set traffic skew
  cfg.storm.key = 7;
  cfg.storm.permille = permille;  // 0 = calm baseline, same traffic
  return cfg;
}

double storm_cold_ratio(bool global) {
  const SimResult calm = run_simulation(storm_config(global, 0));
  const SimResult storm = run_simulation(storm_config(global, 800));
  EXPECT_GT(calm.cold_ops, 0u);
  return static_cast<double>(storm.cold_ops) /
         static_cast<double>(calm.cold_ops);
}

TEST(SimModels, LeafLockFallbackSurvivesCapacityStormGlobalCollapses) {
  // Also exported by bench_ablation_fallback and enforced by
  // smoke_fallback_storm: under a permille-800 capacity-abort storm on a hot
  // leaf set, cold traffic keeps nearly all of its calm throughput when
  // publishes fall back under their own leaf lock, while the global
  // fallback lock convoys every publish and collapses.
  const double leaf = storm_cold_ratio(false);
  const double global = storm_cold_ratio(true);
  EXPECT_GE(leaf, 0.9) << "storm leaked past the hot leaf set";
  EXPECT_LT(global, 0.5) << "global baseline failed to collapse";
  EXPECT_LT(global, leaf);
}

TEST(SimModels, StormRunsAreDeterministic) {
  const SimResult a = run_simulation(storm_config(false, 800));
  const SimResult b = run_simulation(storm_config(false, 800));
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.cold_ops, b.cold_ops);
  EXPECT_EQ(a.hot_ops, b.hot_ops);
  EXPECT_EQ(a.htm_fallbacks, b.htm_fallbacks);
  EXPECT_GT(a.htm_fallbacks, 0u) << "storm never exhausted the retry budget";
  EXPECT_GT(a.hot_ops, 0u);
}

TEST(SimModels, ReadIntensiveMixFavoursDualSlot) {
  // Fig 8(c): 90% reads, skewed — RNTree+DS near-linear, others behind.
  SimConfig ds = base_config(TreeModel::kRNTreeDS, 16, 0.8);
  ds.update_pct = 10;
  SimConfig fp = base_config(TreeModel::kFPTree, 16, 0.8);
  fp.update_pct = 10;
  const SimResult r_ds = run_simulation(ds);
  const SimResult r_fp = run_simulation(fp);
  EXPECT_GT(r_ds.mops, r_fp.mops);
}

}  // namespace
}  // namespace rnt::sim
