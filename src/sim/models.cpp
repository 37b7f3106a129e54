#include "sim/models.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "htm/smo.hpp"
#include "nvm/persist.hpp"
#include "obs/heatmap.hpp"
#include "shard/shard_obs.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "workload/zipfian.hpp"

namespace rnt::sim {

namespace {

// Real-time observability of the virtual-time simulation: the same counter
// families the live trees feed, so --sample-ms and --perfetto work on the
// DES benches too.  Counters tick in real time as the scheduler executes
// (giving the sampler live rates); latencies and phase shares are recorded
// in *virtual* nanoseconds (the modelled quantities).
struct SimMetrics {
  obs::Counter ops{"op.completed"};
  obs::Counter finds{"op.find"};
  obs::Counter updates{"op.update"};
};

SimMetrics& sim_metrics() {
  static SimMetrics m;
  return m;
}

// Distinct trace tracks per simulation run: virtual clocks restart at zero
// every run, so reusing thread ids would stack unrelated runs onto the same
// timeline.
std::uint32_t next_tid_base() {
  static std::atomic<std::uint32_t> run{0};
  return 1000 * (run.fetch_add(1, std::memory_order_relaxed) + 1);
}

/// Per-op virtual-time phase accumulator (indices follow obs::Phase).
struct SimPhases {
  SimTime t[obs::kPhaseCount] = {};
  void add(obs::Phase p, SimTime ns) { t[static_cast<int>(p)] += ns; }
};

/// Simulated leaf: the lock plus a virtual seqlock over the reader-visible
/// slot array.  pub_seq odd = a writer's publish window is open.
struct LeafSim {
  SimMutex lock;
  std::uint64_t pub_seq = 0;
  SimTime last_commit = 0;  ///< FPTree read validation
};

struct Ctx {
  const SimConfig& cfg;
  Scheduler& sched;
  ChannelPool channels;
  std::vector<LeafSim> leaves;
  /// The HTM fallback lock, one per shard (global when shards == 1): FPTree
  /// traversals, in-place SMO escalations and, with cfg.global_fallback,
  /// RNTree publishes take it; a storm on shard i serializes only shard i.
  std::vector<SimMutex> fallbacks;
  std::uint32_t tid_base = 0;  ///< trace track base for this run's workers
  std::size_t inject_leaf = ~std::size_t{0};  ///< scripted-conflict target
  /// The storm's hot leaf set: the leaves whose index is congruent to the
  /// storm key's leaf modulo kStormHotStride (hot_base).
  std::size_t hot_base = 0;
  std::vector<std::size_t> hot_leaves;
  // aggregated results
  std::uint64_t completed = 0;
  std::uint64_t find_retries = 0;
  std::uint64_t htm_fallbacks = 0;
  std::uint64_t smo_count = 0;
  std::uint64_t aborts_capacity = 0;
  std::uint64_t hot_ops = 0;
  std::uint64_t cold_ops = 0;
  LatencyHistogram read_latency;
  LatencyHistogram update_latency;

  Ctx(const SimConfig& c, Scheduler& s)
      : cfg(c),
        sched(s),
        channels(kNvmChannels, c.costs.persist, c.costs.persist_occupancy),
        leaves(static_cast<std::size_t>(
            std::max<std::uint64_t>(1, c.keys / c.keys_per_leaf))),
        fallbacks(static_cast<std::size_t>(std::max(1, c.shards))) {
    if (c.inject.enabled)
      inject_leaf = static_cast<std::size_t>(mix64(c.inject.key ^ 0x9E37) %
                                             leaves.size());
    if (c.storm.enabled) {
      hot_base = static_cast<std::size_t>(mix64(c.storm.key ^ 0x9E37) %
                                          leaves.size()) %
                 kStormHotStride;
      for (std::size_t l = hot_base; l < leaves.size(); l += kStormHotStride)
        hot_leaves.push_back(l);
    }
  }

  bool storm_hot(std::size_t leaf_idx) const noexcept {
    return cfg.storm.enabled && leaf_idx % kStormHotStride == hot_base;
  }
};

/// Key generator per worker: uniform or scrambled Zipfian over the key
/// space, mapped onto leaves ("We hash keys to distribute hottest keys to
/// different leaf nodes").
class KeyGen {
 public:
  KeyGen(const SimConfig& cfg, std::uint64_t seed)
      : uniform_(cfg.keys, seed), leaves_(std::max<std::uint64_t>(
                                      1, cfg.keys / cfg.keys_per_leaf)) {
    if (cfg.zipf_theta > 0.0)
      zipf_ = std::make_unique<workload::ScrambledZipfianGenerator>(
          cfg.keys, cfg.zipf_theta, seed);
  }

  struct Pick {
    std::uint64_t key;
    std::size_t leaf;
  };
  Pick next() {
    const std::uint64_t key = zipf_ ? zipf_->next() : uniform_.next();
    return {key, static_cast<std::size_t>(mix64(key ^ 0x9E37) % leaves_)};
  }

 private:
  workload::UniformGenerator uniform_;
  std::unique_ptr<workload::ScrambledZipfianGenerator> zipf_;
  std::uint64_t leaves_;
};

// ---------------------------------------------------------------------------
// Per-tree operation coroutines.  Each is a full op; the worker loop decides
// op type and leaf, then co_awaits the matching routine via a Task-less
// inline pattern (the logic lives in the worker coroutine to avoid nested
// coroutine frames).
// ---------------------------------------------------------------------------

Task worker(Ctx& ctx, int wid) {
  Scheduler& s = ctx.sched;
  const Costs& c = ctx.cfg.costs;
  const bool dual = ctx.cfg.model == TreeModel::kRNTreeDS;
  const bool fptree = ctx.cfg.model == TreeModel::kFPTree;
  Xoshiro256 rng(ctx.cfg.seed * 7919 + static_cast<std::uint64_t>(wid));
  KeyGen keys(ctx.cfg, ctx.cfg.seed * 104729 + static_cast<std::uint64_t>(wid));

  const bool open_loop = ctx.cfg.open_rate > 0.0;
  const SimTime interval =
      open_loop ? static_cast<SimTime>(1e9 / ctx.cfg.open_rate) : 0;
  SimTime next_arrival = 0;
  const int n_shards = std::max(1, ctx.cfg.shards);
  // Group persistency: each worker is one batching client; batch_pos counts
  // modifies since its last trailing barrier.
  const int batch = std::max(1, ctx.cfg.batch);
  int batch_pos = 0;

  while (s.now() < ctx.cfg.horizon_ns) {
    // --- arrival discipline ---
    SimTime arrival = s.now();
    if (open_loop) {
      if (next_arrival > s.now()) co_await Delay{s, next_arrival - s.now()};
      arrival = next_arrival;
      next_arrival += interval;
    }

    const bool is_update =
        rng.next_below(100) < static_cast<std::uint64_t>(ctx.cfg.update_pct);
    const KeyGen::Pick pick = keys.next();
    std::size_t leaf_idx = pick.leaf;
    // Storm traffic skew: kStormHotPct% of every worker's ops are
    // redirected at the hot leaf set; the uniform remainder is the cold
    // traffic whose survival the fallback ablation measures.
    if (ctx.cfg.storm.enabled && !ctx.hot_leaves.empty() &&
        rng.next_below(100) < kStormHotPct)
      leaf_idx = ctx.hot_leaves[rng.next_below(ctx.hot_leaves.size())];
    LeafSim& leaf = ctx.leaves[leaf_idx];
    const std::size_t shard_idx = leaf_idx % static_cast<std::size_t>(n_shards);
    SimMutex& fallback = ctx.fallbacks[shard_idx];
    if (n_shards > 1) shard::detail::count_shard_op(static_cast<int>(shard_idx));
    SimMetrics& sm = sim_metrics();
    const htm::HtmCounters& hc = htm::htm_counters();
    const nvm::PersistCounters& pc = nvm::persist_counters();
    const htm::SmoCounters& smoc = htm::smo_counters();
    SimPhases ph;
    obs::heatmap_record_at(pick.key, obs::HeatCause::kOp);

    // Scripted conflict injection (heatmap validation): every op landing on
    // the configured hot leaf suffers deterministic conflict aborts and a
    // fallback before the op proper, attributed exactly like the real retry
    // machine's events.
    if (ctx.cfg.inject.enabled && leaf_idx == ctx.inject_leaf) {
      const SimTime inj0 = s.now();
      for (int a = 0; a < ctx.cfg.inject.aborts; ++a) {
        hc.aborts_conflict.inc();
        obs::heatmap_record_at(ctx.cfg.inject.key, obs::HeatCause::kConflict);
        co_await Delay{s, c.backoff};
      }
      ctx.htm_fallbacks++;
      hc.fallbacks.inc();
      obs::heatmap_record_at(ctx.cfg.inject.key, obs::HeatCause::kFallback);
      ph.add(obs::Phase::kHtm, s.now() - inj0);
    }

    if (!fptree) {
      // ----------------- RNTree / RNTree+DS -----------------
      if (is_update) {
        // Steps 1-3 outside the lock (S4.2): traverse, allocate, write,
        // flush the KV entry.  (The decoupled ablation moves the KV flush
        // inside the critical section instead.)
        co_await Delay{s, c.traverse + c.cas_alloc + c.kv_write};
        if (!ctx.cfg.flush_inside_lock) {
          const SimTime d = ctx.channels.persist_latency(s.now());
          ph.add(obs::Phase::kPersist, d);
          pc.persist.inc();
          co_await Delay{s, d};
        }
        // Step 4: short critical section.
        {
          const SimTime t0 = s.now();
          co_await leaf.lock.acquire(s);
          ph.add(obs::Phase::kLockWait, s.now() - t0);
        }
        if (ctx.cfg.flush_inside_lock) {
          const SimTime d = ctx.channels.persist_latency(s.now());
          ph.add(obs::Phase::kPersist, d);
          pc.persist.inc();
          co_await Delay{s, d};
        }
        co_await Delay{s, c.leaf_search + c.slot_update};
        // Slot publish (RNTree::publish_slot): an HTM section whose
        // fallback is the leaf lock this writer already holds, so a publish
        // that exhausts its retry budget takes no further lock.  The
        // global-fallback ablation instead subscribes every publish to the
        // shard fallback lock: it cannot start while a holder is inside,
        // and under a sustained storm retrying is hopeless, so it joins the
        // FIFO and publishes under the lock itself — the convoy that
        // collapses the global baseline.
        const bool global = ctx.cfg.global_fallback;
        bool fell_back = global && fallback.locked();
        // Scripted capacity-abort storm: hot-set publishes capacity-abort
        // per attempt with storm.permille; after two aborts retrying is
        // hopeless and the publish runs under its fallback lock, held
        // across the flush.
        if (!fell_back && ctx.storm_hot(leaf_idx)) {
          int aborts = 0;
          while (aborts < 2 &&
                 rng.next_below(1000) < ctx.cfg.storm.permille) {
            ++aborts;
            ctx.aborts_capacity++;
            hc.aborts_capacity.inc();
            obs::heatmap_record_at(pick.key, obs::HeatCause::kCapacity);
            co_await Delay{s, c.backoff};
          }
          fell_back = aborts >= 2;
        }
        if (fell_back) {
          if (global) {
            const SimTime tl = s.now();
            co_await fallback.acquire(s);
            ph.add(obs::Phase::kLockWait, s.now() - tl);
          }
          ctx.htm_fallbacks++;
          hc.fallbacks.inc();
          obs::heatmap_record_at(pick.key, obs::HeatCause::kFallback);
        }
        // Group persistency (batch > 1): the slot flush defers its fence to
        // the batch barrier — it pays channel occupancy only (the clwb), and
        // every batch-th modify pays one full persist as the trailing
        // barrier.  Eager mode (batch == 1) is the paper's 2-fence profile.
        // Single-slot readers see the window of the whole slot flush (and,
        // under group persistency, of the barrier when this op closes the
        // batch); dual-slot readers see only the transient copy.
        const bool barrier_now = batch > 1 && ++batch_pos >= batch;
        if (barrier_now) batch_pos = 0;
        if (!dual) leaf.pub_seq++;
        if (batch > 1) {
          pc.batch_persist.inc();
          ph.add(obs::Phase::kPersist, c.persist_occupancy);
          co_await Delay{s, c.persist_occupancy};
          if (barrier_now) {
            const SimTime d = ctx.channels.persist_latency(s.now());
            ph.add(obs::Phase::kPersist, d);
            pc.batch_fence.inc();
            co_await Delay{s, d};
          }
        } else {
          const SimTime d = ctx.channels.persist_latency(s.now());
          ph.add(obs::Phase::kPersist, d);
          pc.persist.inc();
          co_await Delay{s, d};
        }
        leaf.pub_seq++;
        if (dual) {
          co_await Delay{s, c.slot_copy};
          leaf.pub_seq++;
        }
        if (fell_back && global) fallback.release(s);
        if (rng.next_below(32) == 0) {  // amortised compaction
          const SimTime t0 = s.now();
          co_await Delay{s, c.compact};
          const SimTime d = ctx.channels.persist_latency(s.now());
          ph.add(obs::Phase::kPersist, d);
          pc.persist.inc();
          co_await Delay{s, d};
          ph.add(obs::Phase::kSmo, s.now() - t0);  // inclusive of its persist
        }
        // Inner-node SMO model (bench_ablation_smo): roughly every
        // keys_per_leaf-th modify splits its leaf and must install the new
        // separator into the (transient) inner structure.
        if (ctx.cfg.smo.enabled &&
            rng.next_below(std::max<std::uint64_t>(2, ctx.cfg.keys_per_leaf)) ==
                0) {
          const SimConfig::Smo& smo = ctx.cfg.smo;
          const SimTime t0 = s.now();
          ctx.smo_count++;
          if (smo.cow) {
            // RCU-HTM: build replacement out of place, then a one-line
            // validate+swap transaction.  Its write set never capacity-
            // aborts; only conflicts (another install touching the same
            // spine) can, and they grow with core count but stay cheap —
            // the retry is another short install, not a serialized rewrite.
            co_await Delay{s, smo.build_ns};
            const std::uint64_t conflict_pm = std::min<std::uint64_t>(
                400, 2 * static_cast<std::uint64_t>(ctx.cfg.threads));
            for (int attempts = 0;
                 attempts < 3 && rng.next_below(1000) < conflict_pm;
                 ++attempts) {
              hc.aborts_conflict.inc();
              co_await Delay{s, c.backoff + smo.install_ns};
            }
            co_await Delay{s, smo.install_ns};
            smoc.installs.inc();
          } else {
            // In-place rewrite: the whole inner path is the transaction's
            // write set, so a fixed (size-driven, contention-independent)
            // share of attempts capacity-aborts; retrying a capacity abort
            // is hopeless, so it escalates to the shard fallback lock and
            // serializes — the storm the paper measures at high cores.
            bool done = false;
            for (int attempts = 0; attempts < 2 && !done; ++attempts) {
              co_await Delay{s, smo.inplace_ns};
              if (rng.next_below(1000) >= smo.capacity_permille) {
                done = true;
              } else {
                ctx.aborts_capacity++;
                hc.aborts_capacity.inc();
                co_await Delay{s, c.backoff};
              }
            }
            if (!done) {
              const SimTime tl = s.now();
              co_await fallback.acquire(s);
              ph.add(obs::Phase::kLockWait, s.now() - tl);
              ctx.htm_fallbacks++;
              hc.fallbacks.inc();
              co_await Delay{s, smo.inplace_ns};
              fallback.release(s);
            }
          }
          ph.add(obs::Phase::kSmo, s.now() - t0);
        }
        leaf.last_commit = s.now();
        leaf.lock.release(s);
      } else {
        // find (Alg 4): wait-free traversal + seqlock-validated snapshot.
        co_await Delay{s, c.traverse};
        for (;;) {
          if ((leaf.pub_seq & 1) != 0) {
            ctx.find_retries++;
            co_await Delay{s, c.backoff};
            continue;
          }
          const std::uint64_t s0 = leaf.pub_seq;
          co_await Delay{s, c.read_snapshot};
          if (leaf.pub_seq != s0) {
            ctx.find_retries++;
            continue;
          }
          break;
        }
      }
    } else if (is_update) {
      // ----------------- FPTree update -----------------
      // Traversal runs as an HTM transaction; reading the leaf's lock word
      // while a writer holds it is a conflict, so updates to a hot leaf
      // also abort-and-retry from the root, and escalate to the global
      // fallback lock (held for the traversal) when the retry budget runs
      // out.  The explicit leaf lock is then taken and the WHOLE modify,
      // flushes included, runs inside it (S3.4's "selective concurrency").
      const SimTime loop0 = s.now();
      SimTime lock_wait = 0;
      for (int attempts = 0;;) {
        // Subscription: an attempt while the fallback lock is held aborts
        // at once; the implementation then spins until release before the
        // next try (so storms serialize everyone but do not self-amplify).
        while (fallback.locked()) co_await Delay{s, c.backoff};
        co_await Delay{s, c.traverse};
        if (!leaf.lock.locked() && !fallback.locked() &&
            rng.next_below(128) != 0)
          break;  // traversal committed
        hc.aborts_conflict.inc();
        obs::heatmap_record_at(pick.key, obs::HeatCause::kConflict);
        if (++attempts >= 3) {
          const SimTime tl = s.now();
          co_await fallback.acquire(s);
          lock_wait += s.now() - tl;
          ctx.htm_fallbacks++;
          hc.fallbacks.inc();
          obs::heatmap_record_at(pick.key, obs::HeatCause::kFallback);
          co_await Delay{s, c.traverse};
          fallback.release(s);
          break;
        }
        co_await Delay{s, c.backoff};
      }
      ph.add(obs::Phase::kHtm, s.now() - loop0 - lock_wait);
      ph.add(obs::Phase::kLockWait, lock_wait);
      {
        const SimTime t0 = s.now();
        co_await leaf.lock.acquire(s);
        ph.add(obs::Phase::kLockWait, s.now() - t0);
      }
      co_await Delay{s, c.fp_scan + c.kv_write};
      for (int flush = 0; flush < 3; ++flush) {  // KV, fp, bitmap
        const SimTime d = ctx.channels.persist_latency(s.now());
        ph.add(obs::Phase::kPersist, d);
        pc.persist.inc();
        co_await Delay{s, d};
      }
      leaf.last_commit = s.now();
      leaf.lock.release(s);
    } else {
      // ----------------- FPTree find -----------------
      // The whole find (traverse + leaf probe) is one HTM transaction; it
      // "will always abort the transaction and traverse from the root
      // again if the leaf is locked by another update" (S6.3.1).  Because
      // the leaf lock is held across flushes, consecutive retries keep
      // hitting the same locked leaf; after the retry budget the find
      // escalates to the GLOBAL fallback lock and, while holding it, must
      // still wait out the leaf writer — the serialization convoy that
      // caps FPTree's scalability under skew (Figs 8(b), 9, 10).
      //
      const SimTime loop0 = s.now();
      SimTime lock_wait = 0;
      for (int attempts = 0;;) {
        bool committed = false;
        while (fallback.locked()) co_await Delay{s, c.backoff};
        co_await Delay{s, c.traverse};
        const SimTime t0 = s.now();
        if (!leaf.lock.locked() && !fallback.locked() &&
            rng.next_below(128) != 0) {
          co_await Delay{s, c.fp_scan};
          committed = !leaf.lock.locked() && leaf.last_commit <= t0;
        }
        if (committed) break;
        ctx.find_retries++;
        hc.aborts_conflict.inc();
        obs::heatmap_record_at(pick.key, obs::HeatCause::kConflict);
        if (++attempts >= 3) {
          const SimTime tl = s.now();
          co_await fallback.acquire(s);
          lock_wait += s.now() - tl;
          ctx.htm_fallbacks++;
          hc.fallbacks.inc();
          obs::heatmap_record_at(pick.key, obs::HeatCause::kFallback);
          co_await Delay{s, c.traverse};
          const SimTime tw = s.now();
          while (leaf.lock.locked()) co_await Delay{s, c.backoff};
          lock_wait += s.now() - tw;  // convoy: waiting out the leaf writer
          co_await Delay{s, c.fp_scan};
          fallback.release(s);
          break;
        }
        co_await Delay{s, c.backoff};
      }
      ph.add(obs::Phase::kHtm, s.now() - loop0 - lock_wait);
      ph.add(obs::Phase::kLockWait, lock_wait);
    }

    // --- bookkeeping ---
    const SimTime latency = s.now() - arrival;
    if (is_update)
      ctx.update_latency.record(latency);
    else
      ctx.read_latency.record(latency);
    ctx.completed++;
    if (ctx.cfg.storm.enabled)
      (ctx.storm_hot(leaf_idx) ? ctx.hot_ops : ctx.cold_ops)++;
    sm.ops.inc();
    (is_update ? sm.updates : sm.finds).inc();
    if (obs::phase_timing_enabled())
      for (int p = 0; p < obs::kPhaseCount; ++p)
        if (ph.t[p] != 0)
          obs::record_phase_ns(static_cast<obs::Phase>(p), ph.t[p]);
    if (obs::trace_enabled()) {
      obs::TraceEvent ev{};
      ev.ts_ns = s.now();  // virtual clock
      ev.key = leaf_idx;
      ev.leaf_off = leaf_idx;
      ev.latency_ns = latency;
      ev.thread_id = ctx.tid_base + static_cast<std::uint32_t>(wid);
      ev.op = static_cast<std::uint16_t>(is_update ? obs::OpKind::kUpdate
                                                   : obs::OpKind::kFind);
      ev.result = static_cast<std::uint16_t>(obs::OpResult::kOk);
      ev.phase_htm_ns = static_cast<std::uint32_t>(ph.t[0]);
      ev.phase_lock_ns = static_cast<std::uint32_t>(ph.t[1]);
      ev.phase_persist_ns = static_cast<std::uint32_t>(ph.t[2]);
      ev.phase_smo_ns = static_cast<std::uint32_t>(ph.t[3]);
      obs::trace_virtual(ev);
    }
  }
}

}  // namespace

SimResult run_simulation(const SimConfig& cfg) {
  Scheduler sched;
  Ctx ctx(cfg, sched);
  ctx.tid_base = next_tid_base();
  for (int w = 0; w < cfg.threads; ++w) sched.spawn(worker(ctx, w));
  sched.run_until(cfg.horizon_ns);

  SimResult res;
  res.completed = ctx.completed;
  res.mops = static_cast<double>(ctx.completed) /
             (static_cast<double>(cfg.horizon_ns) * 1e-9) / 1e6;
  res.read_latency = ctx.read_latency;
  res.update_latency = ctx.update_latency;
  res.find_retries = ctx.find_retries;
  res.htm_fallbacks = ctx.htm_fallbacks;
  res.smo_count = ctx.smo_count;
  res.aborts_capacity = ctx.aborts_capacity;
  res.hot_ops = ctx.hot_ops;
  res.cold_ops = ctx.cold_ops;
  return res;
}

}  // namespace rnt::sim
