// Per-tree operation models for the concurrency simulator (Figures 8-10).
//
// Each model encodes where its tree spends time relative to its leaf lock
// and the NVM channels — the structure the paper's scalability argument
// rests on:
//
//   RNTree      — KV flush OUTSIDE the lock; short critical section (slot
//                 update + slot flush); readers validate a per-modification
//                 window over the persistent slot array, so they stall while
//                 a writer's slot flush is in flight.  The slot publish is
//                 an HTM section whose fallback is the leaf lock the writer
//                 already holds (RNTree::publish_slot runs
//                 atomic_exec(nullptr, ...)), so a publish that exhausts its
//                 attempts takes no further lock.
//   RNTree+DS   — same writer path plus the transient-slot copy; the
//                 reader-visible window shrinks to that copy (tens of ns),
//                 so readers effectively never block (S4.3).
//   FPTree      — "selective concurrency": the whole modify including all
//                 three flushes runs under the leaf lock, and finds abort to
//                 the root whenever the leaf is locked; traversal runs as an
//                 HTM transaction with a GLOBAL fallback lock after repeated
//                 aborts, which is what folds the whole tree into a single
//                 serialization point under skew (S3.4, Figs 8-10).
//
// The paper's global-fallback-lock design survives as one ablation switch
// (SimConfig::global_fallback): RNTree publishes then subscribe to the
// per-shard fallback lock that FPTree and the in-place SMO model take.
//
// Stage costs are configurable; defaults approximate the single-thread
// measurements of the real implementations in this repository (see
// bench_micro) with the paper's 140 ns NVM write latency.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/histogram.hpp"

namespace rnt::sim {

enum class TreeModel { kRNTree, kRNTreeDS, kFPTree };

/// NVM channels: one 6-way interleave set (the paper's testbed).
inline constexpr int kNvmChannels = 6;

/// Share (percent) of each worker's ops a capacity-abort storm redirects at
/// its hot leaf set; the uniform remainder is the cold traffic.
inline constexpr std::uint32_t kStormHotPct = 30;

/// Stride of the storm's hot leaf set: the leaves whose index is congruent
/// to the storm key's leaf modulo kStormHotStride.
inline constexpr std::size_t kStormHotStride = 64;

/// Stage costs in virtual nanoseconds.
struct Costs {
  std::uint64_t traverse = 300;       ///< root -> leaf through DRAM inner nodes
  std::uint64_t cas_alloc = 30;       ///< lock-free log allocation (Alg 2)
  std::uint64_t kv_write = 30;        ///< store the 16-byte entry
  /// Effective service time of one persistent instruction under load.  The
  /// paper's *unloaded* NVDIMM write latency is 140 ns, but its own Fig 4
  /// throughputs and Fig 9 latencies imply ~0.4-0.5 us per flush+fence once
  /// fence round-trips and write-queue pressure are included; 450 ns makes
  /// the simulator's absolute latencies land in Fig 9's ranges.
  std::uint64_t persist = 450;
  /// Channel occupancy per flushed line (bandwidth term): 64 B / 34 GB/s
  /// plus controller overhead.
  std::uint64_t persist_occupancy = 25;
  std::uint64_t leaf_search = 100;    ///< slot binary search / bitmap+fp probe
  std::uint64_t slot_update = 60;     ///< slot rewrite inside the HTM section
  std::uint64_t slot_copy = 40;       ///< htmLeafCopySlot (dual slot array)
  std::uint64_t read_snapshot = 150;  ///< snapshot + binary search (find)
  std::uint64_t fp_scan = 180;        ///< FPTree fingerprint + key probe
  std::uint64_t compact = 2000;       ///< leaf compaction, amortised 1/32 mods
  std::uint64_t backoff = 40;         ///< retry pause
};

struct SimConfig {
  TreeModel model = TreeModel::kRNTreeDS;
  int threads = 8;
  std::uint64_t keys = 1'000'000;
  std::uint64_t keys_per_leaf = 48;
  double zipf_theta = 0.0;  ///< 0 = uniform
  int update_pct = 50;      ///< YCSB-A default; rest are finds
  std::uint64_t horizon_ns = 50'000'000;
  std::uint64_t seed = 42;
  /// Open-loop request rate per worker (ops/s); 0 = closed loop.
  double open_rate = 0.0;
  /// ShardedTree modeling (fig8 --shards): leaves are partitioned over this
  /// many independent shards.  FPTree's fallback lock becomes per-shard (the
  /// whole point: abort storms stay local); per-shard shard.<i>.ops counters
  /// tick when shards > 1.
  int shards = 1;
  /// Group persistency (fig8 --batch): every worker batches K modifies per
  /// trailing barrier.  The RNTree models' slot flush then pays channel
  /// occupancy only (counted nvm.batch_persist) and every K-th modify pays
  /// one full persist as the barrier (counted nvm.batch_fence) — fences/op
  /// drop from 2 to 1 + 1/K.  1 = eager (paper's Table-1 profile).
  int batch = 1;
  /// Ablation knob (bench_ablation_overlap): perform the KV flush INSIDE the
  /// leaf critical section (the decoupled design of S3.4) instead of the
  /// paper's overlapped placement.  Applies to the RNTree models only.
  bool flush_inside_lock = false;
  /// Ablation knob (bench_ablation_fallback): RNTree slot publishes fall
  /// back under the per-shard global fallback lock (the paper's design)
  /// instead of the leaf lock the writer already holds (as built).  Every
  /// publish then subscribes to that lock, so one fallback holder stalls
  /// the whole shard's publishes.
  bool global_fallback = false;
  /// Scripted capacity-abort storm (bench_ablation_fallback): kStormHotPct%
  /// of every worker's ops are redirected at a hot leaf set (every
  /// kStormHotStride-th leaf, in step with @p key's leaf), whose publishes
  /// capacity-abort with probability @p permille per attempt; two aborts
  /// exhaust the retry budget and the publish runs under its fallback lock
  /// (the leaf lock, or the shard lock with global_fallback).
  struct Storm {
    bool enabled = false;
    std::uint64_t key = 0;
    std::uint32_t permille = 800;
  } storm;
  /// Scripted conflict injection (heatmap validation): every op that lands
  /// on @p key's leaf suffers @p aborts simulated conflict aborts and then a
  /// fallback, attributed to the heatmap like the real retry machine's.
  struct Inject {
    bool enabled = false;
    std::uint64_t key = 0;
    int aborts = 3;
  } inject;
  /// SMO transaction modeling (bench_ablation_smo): every ~keys_per_leaf-th
  /// RNTree modify triggers a structural modification.  cow = true models
  /// the RCU-HTM install (out-of-place build, then a one-cache-line install
  /// transaction whose abort probability is contention only); cow = false
  /// models the in-place rewrite, whose whole-path write set suffers
  /// capacity aborts (capacity_permille) independent of contention and
  /// escalates to the shard fallback lock — the serialization the paper's
  /// capacity-abort storms produce at high core counts.
  struct Smo {
    bool enabled = false;
    bool cow = true;
    std::uint64_t build_ns = 350;    ///< out-of-place node construction
    std::uint64_t install_ns = 90;   ///< one-line validate+swap transaction
    std::uint64_t inplace_ns = 900;  ///< in-place multi-node rewrite txn
    /// Probability (permille) one in-place SMO attempt capacity-aborts.
    std::uint32_t capacity_permille = 400;
  } smo;
  Costs costs;
};

struct SimResult {
  double mops = 0.0;  ///< completed operations per virtual second / 1e6
  LatencyHistogram read_latency;
  LatencyHistogram update_latency;
  std::uint64_t completed = 0;
  std::uint64_t find_retries = 0;
  std::uint64_t htm_fallbacks = 0;
  std::uint64_t smo_count = 0;         ///< SMOs executed (smo.enabled)
  std::uint64_t aborts_capacity = 0;   ///< capacity aborts in SMO/storm txns
  /// Storm accounting (storm.enabled): completed ops split by membership in
  /// the hot leaf set.
  std::uint64_t hot_ops = 0;
  std::uint64_t cold_ops = 0;
};

/// Run one deterministic simulation.
SimResult run_simulation(const SimConfig& cfg);

}  // namespace rnt::sim
