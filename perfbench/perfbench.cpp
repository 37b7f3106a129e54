// End-to-end benchmark: closed-loop real-thread workloads over the public
// tree APIs, one workload per invocation.  README.md says why each workload
// exists and which layer metric should move which end-to-end metric.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics, measured with every obs
// instrument disarmed.  --trace 1 runs an untraced and a phase-timed half on
// the same tree and prints the per-layer metrics of the traced half.  The
// last stdout line is one JSON object {correct, attempted, failed, metrics};
// the line before it is a JSON report with provenance, per-op sample counts
// and every percentile the samples support.  Exit status: 0 when every
// output was correct, 1 on a wrong output, 2 on bad arguments.
#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <initializer_list>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hints.hpp"
#include "common/rng.hpp"
#include "common/timing.hpp"
#include "core/rntree.hpp"
#include "epoch/ebr.hpp"
#include "harness.hpp"
#include "htm/rtm.hpp"
#include "nvm/persist.hpp"
#include "nvm/pool.hpp"
#include "obs/buildinfo.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "shard/sharded_tree.hpp"
#include "workload/zipfian.hpp"

namespace {

using namespace rnt;
using perfbench::LatencyHist;
using perfbench::Op;
using perfbench::ratio;

using Tree = core::RNTree<>;
using Sharded = shard::ShardedTree<>;

constexpr int kShards = 4;
constexpr std::size_t kScanLen = 100;
constexpr std::size_t kBatchOps = 8;
/// Ops pre-generated per thread; a run cycles through its stream.
constexpr std::size_t kStreamLen = std::size_t{1} << 21;
/// Keys timed by the find probes (taken from the workload's own finds).
constexpr std::size_t kProbeKeys = 100'000;
constexpr std::uint64_t kPermMul = 2654435761ull;  // prime: a bijection mod N

// A stream op: kind in the top three bits, payload below.
constexpr int kKindShift = 61;
constexpr std::uint64_t kPayloadMask = (std::uint64_t{1} << kKindShift) - 1;
constexpr std::uint64_t encode_op(Op op, std::uint64_t payload) {
  return (static_cast<std::uint64_t>(op) << kKindShift) | (payload & kPayloadMask);
}
constexpr Op op_kind(std::uint64_t op) { return static_cast<Op>(op >> kKindShift); }

/// Key of item @p i in the shared key space of ycsb_a_zipf/read_scan_large.
constexpr std::uint64_t item_key(std::uint64_t i) { return i * 8 + 1; }

/// Load order: a stride permutation of [0, n), so leaves split as they do
/// under unordered inserts rather than sequential ones.
std::uint64_t load_order(std::uint64_t i, std::uint64_t n, std::uint64_t seed) {
  return (i * kPermMul + seed) % n;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double ticks_to_ns(double ticks) { return ticks / tsc_per_ns(); }

/// Run @p fn(t) on @p threads threads and join them all; the first
/// exception any of them threw is rethrown after the join.
template <typename Fn>
void parallel(int threads, Fn&& fn) {
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        fn(t);
      } catch (...) {
        errors[static_cast<std::size_t>(t)] = std::current_exception();
      }
    });
  }
  for (auto& th : pool) th.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

/// Whole-run tallies of attempted and failed ops (load, measured phases and
/// verification all count).
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  void add(std::uint64_t a, std::uint64_t f) {
    attempted += a;
    failed += f;
  }
};

/// The measured phase is cut into this many equal windows by op start
/// time; end-to-end figures are medians over the windows, so a stretch of
/// interference from outside the benchmark moves one window, not the result.
constexpr int kWindows = 10;

/// One client thread's results; aligned so the counters it bumps on every
/// op never share a cache line with another thread's.
struct alignas(kCacheLineSize) ThreadStats {
  using OpHists = std::array<LatencyHist, perfbench::kOpKinds>;
  std::vector<OpHists> win = std::vector<OpHists>(kWindows);
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::array<std::uint64_t, obs::kPhaseCount> phase_ticks{};
  std::uint64_t start_tick = 0;
  std::uint64_t window_ticks = 1;

  /// Op @p op started at tick @p t0 and completed (was acknowledged)
  /// @p ticks later.
  void record(Op op, std::uint64_t t0, std::uint64_t ticks) {
    const std::uint64_t w = t0 > start_tick ? (t0 - start_tick) / window_ticks : 0;
    win[std::min<std::uint64_t>(w, kWindows - 1)][static_cast<int>(op)].record(ticks);
  }
};

struct FindProbe {
  double core_ns = 0;   ///< member RNTree::find per key
  double route_ns = 0;  ///< ShardedTree::find minus core_ns (0 unsharded)
};

/// Results of probe loops land here so the compiler cannot drop the calls.
std::atomic<std::uint64_t> g_probe_sink{0};

/// Time @p fn over @p keys: ns per key.
template <typename Fn>
double time_per_key(const std::vector<std::uint64_t>& keys, Fn&& fn) {
  std::uint64_t sink = 0;
  const std::uint64_t t0 = now_ns();
  for (const std::uint64_t k : keys) sink += fn(k);
  const std::uint64_t t1 = now_ns();
  g_probe_sink.fetch_add(sink, std::memory_order_relaxed);
  return static_cast<double>(t1 - t0) / static_cast<double>(keys.size());
}

/// Client thread @p t's share [lo, hi) of @p n items.
std::pair<std::uint64_t, std::uint64_t> slice(std::uint64_t n, int t, int threads) {
  const auto tt = static_cast<std::uint64_t>(t), nt = static_cast<std::uint64_t>(threads);
  return {n * tt / nt, n * (tt + 1) / nt};
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

class Workload {
 public:
  Workload(int threads, std::uint64_t seed) : threads_(threads), seed_(seed) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Fresh pool and tree holding the preloaded keys (the timed set-up).
  virtual void load(Tally& tally) = 0;
  /// Destroy the tree and its pool.
  virtual void drop() = 0;
  /// Client thread @p t runs op @p i of its stream (wrapping).
  virtual void step(int t, std::uint64_t i, ThreadStats& s) = 0;
  /// Called on thread @p t before its first step of a phase.
  virtual void start_thread(int) {}
  /// Called on thread @p t: acknowledge every op it applied so far.
  virtual void quiesce(int, ThreadStats&) {}
  /// Called on thread @p t after its last step of a phase.
  virtual void finish_thread(int t, ThreadStats& s) { quiesce(t, s); }
  virtual std::uint64_t live_keys() const = 0;
  /// Drop the tree without close() and reopen it down the crash path;
  /// returns the reopen time in seconds.
  virtual double crash_and_recover() = 0;
  /// Check the whole end state against the oracles.
  virtual void verify(Tally& tally) = 0;
  virtual FindProbe probe_find() = 0;
  virtual int height() const = 0;
  nvm::PmemPool& pool() { return *pool_; }

 protected:
  int threads_;
  std::uint64_t seed_;
  std::unique_ptr<nvm::PmemPool> pool_;
};

/// Drop @p tree without close() and reopen it from @p pool down the crash
/// path; returns the reopen time in seconds.
template <typename T, typename... Opt>
double crash_reopen(std::unique_ptr<T>& tree, nvm::PmemPool& pool, Opt... opt) {
  tree.reset();
  pool.reopen_volatile();
  const std::uint64_t t0 = now_ns();
  tree = std::make_unique<T>(typename T::recover_t{}, pool, opt...);
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Shared shape of the two workloads over item_key(0..n): parallel load in
/// permuted order.
template <typename T>
void load_items(T& tree, std::uint64_t n, int threads, std::uint64_t seed,
                Tally& tally) {
  parallel(threads, [&](int t) {
    std::uint64_t failed = 0;
    const auto [lo, hi] = slice(n, t, threads);
    for (std::uint64_t i = lo; i < hi; ++i) {
      const std::uint64_t k = item_key(load_order(i, n, seed));
      if (!tree.insert(k, perfbench::load_value(k)).ok()) ++failed;
    }
    tally.add(hi - lo, failed);
  });
}

/// The first kProbeKeys find keys of thread 0's stream.
std::vector<std::uint64_t> probe_keys_from(const std::vector<std::uint64_t>& stream) {
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < stream.size() && keys.size() < kProbeKeys; ++i)
    if (op_kind(stream[i]) == Op::kFind) keys.push_back(item_key(stream[i] & kPayloadMask));
  return keys;
}

// ycsb_a_zipf: one RNTree+DS, 50% find / 50% update, scrambled Zipfian.
class YcsbAZipf final : public Workload {
 public:
  static constexpr std::uint64_t kKeys = 1'000'000;
  static constexpr std::size_t kPoolBytes = std::size_t{256} << 20;

  YcsbAZipf(int threads, std::uint64_t seed) : Workload(threads, seed) {
    for (int t = 0; t < threads; ++t) {
      workload::ScrambledZipfianGenerator zipf(kKeys, 0.99, seed * 1000 + static_cast<std::uint64_t>(t));
      Xoshiro256 rng(seed * 7919 + static_cast<std::uint64_t>(t));
      std::vector<std::uint64_t> s(kStreamLen);
      for (auto& op : s) op = encode_op(rng.next_below(2) == 0 ? Op::kFind : Op::kUpdate, zipf.next());
      streams_.push_back(std::move(s));
    }
  }

  void load(Tally& tally) override {
    oracles_.clear();
    for (int t = 0; t < threads_; ++t)
      oracles_.emplace_back(kKeys, static_cast<std::uint64_t>(t), static_cast<std::uint64_t>(threads_));
    pool_ = std::make_unique<nvm::PmemPool>(kPoolBytes);
    tree_ = std::make_unique<Tree>(*pool_);
    load_items(*tree_, kKeys, threads_, seed_, tally);
  }

  void drop() override {
    tree_.reset();
    pool_.reset();
  }

  void step(int t, std::uint64_t i, ThreadStats& s) override {
    const std::uint64_t op = streams_[static_cast<std::size_t>(t)][i % kStreamLen];
    const std::uint64_t idx = op & kPayloadMask;
    const std::uint64_t key = item_key(idx);
    perfbench::WriterOracle& oracle = oracles_[static_cast<std::size_t>(t)];
    if (op_kind(op) == Op::kFind) {
      const std::uint64_t t0 = rdtsc();
      const std::optional<std::uint64_t> got = tree_->find(key);
      s.record(Op::kFind, t0, rdtsc() - t0);
      if (!oracle.check_read(idx, key, got)) ++s.failed;
    } else {
      const std::uint64_t v = oracle.next_value(key);
      const std::uint64_t t0 = rdtsc();
      const common::Status st = tree_->update(key, v);
      s.record(Op::kUpdate, t0, rdtsc() - t0);
      if (st.ok())
        oracle.wrote(idx, v);
      else
        ++s.failed;
    }
  }

  std::uint64_t live_keys() const override { return kKeys; }

  double crash_and_recover() override { return crash_reopen(tree_, *pool_); }

  void verify(Tally& tally) override {
    parallel(threads_, [&](int t) {
      std::uint64_t failed = 0;
      const auto [lo, hi] = slice(kKeys, t, threads_);
      for (std::uint64_t idx = lo; idx < hi; ++idx) {
        const std::uint64_t key = item_key(idx);
        if (!perfbench::final_value_ok(idx, key, tree_->find(key), oracles_)) ++failed;
      }
      tally.add(hi - lo, failed);
    });
    tally.add(1, tree_->size() == kKeys ? 0 : 1);
  }

  FindProbe probe_find() override {
    const std::vector<std::uint64_t> keys = probe_keys_from(streams_[0]);
    std::vector<double> core;
    for (int r = 0; r < 3; ++r)
      core.push_back(time_per_key(keys, [&](std::uint64_t k) { return tree_->find(k).value_or(0); }));
    return {median(core), 0.0};
  }

  int height() const override { return tree_->height(); }

 private:
  std::vector<std::vector<std::uint64_t>> streams_;
  std::vector<perfbench::WriterOracle> oracles_;
  std::unique_ptr<Tree> tree_;
};

Sharded::Options sharded_options() {
  Sharded::Options o;
  o.shards = kShards;
  o.partition = shard::Partition::kHash;
  return o;
}

/// Probe the member-tree find against the routed ShardedTree::find.
FindProbe probe_sharded_find(const Sharded& tree, const std::vector<std::uint64_t>& keys) {
  std::vector<int> shard_of(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) shard_of[i] = tree.shard_of(keys[i]);
  std::vector<double> core, routed;
  for (int r = 0; r < 3; ++r) {
    std::size_t i = 0;
    core.push_back(time_per_key(keys, [&](std::uint64_t k) {
      return tree.shard(shard_of[i++]).find(k).value_or(0);
    }));
    routed.push_back(time_per_key(keys, [&](std::uint64_t k) { return tree.find(k).value_or(0); }));
  }
  const double c = median(core);
  return {c, median(routed) - c};
}

// read_scan_large: 4 hash shards, 95% find / 5% scan-100, uniform keys.
class ReadScanLarge final : public Workload {
 public:
  static constexpr std::uint64_t kKeys = 8'000'000;
  static constexpr std::size_t kPoolBytes = std::size_t{1} << 30;

  ReadScanLarge(int threads, std::uint64_t seed)
      : Workload(threads, seed), bufs_(static_cast<std::size_t>(threads)) {
    for (int t = 0; t < threads; ++t) {
      Xoshiro256 rng(seed * 7919 + static_cast<std::uint64_t>(t));
      std::vector<std::uint64_t> s(kStreamLen);
      for (auto& op : s)
        op = encode_op(rng.next_below(100) < 5 ? Op::kScan : Op::kFind, rng.next_below(kKeys));
      streams_.push_back(std::move(s));
    }
  }

  void load(Tally& tally) override {
    pool_ = std::make_unique<nvm::PmemPool>(kPoolBytes);
    tree_ = std::make_unique<Sharded>(*pool_, sharded_options());
    load_items(*tree_, kKeys, threads_, seed_, tally);
  }

  void drop() override {
    tree_.reset();
    pool_.reset();
  }

  void step(int t, std::uint64_t i, ThreadStats& s) override {
    const std::uint64_t op = streams_[static_cast<std::size_t>(t)][i % kStreamLen];
    const std::uint64_t idx = op & kPayloadMask;
    const std::uint64_t key = item_key(idx);
    if (op_kind(op) == Op::kFind) {
      const std::uint64_t t0 = rdtsc();
      const std::optional<std::uint64_t> got = tree_->find(key);
      s.record(Op::kFind, t0, rdtsc() - t0);
      if (got != perfbench::load_value(key)) ++s.failed;
      return;
    }
    auto& buf = bufs_[static_cast<std::size_t>(t)].entries;
    const std::uint64_t t0 = rdtsc();
    tree_->scan_n(key, kScanLen, buf);
    s.record(Op::kScan, t0, rdtsc() - t0);
    if (!scan_ok(idx, buf)) ++s.failed;
  }

  std::uint64_t live_keys() const override { return kKeys; }

  double crash_and_recover() override { return crash_reopen(tree_, *pool_, sharded_options()); }

  void verify(Tally& tally) override {
    parallel(threads_, [&](int t) {
      std::uint64_t failed = 0;
      const auto [lo, hi] = slice(kKeys, t, threads_);
      for (std::uint64_t idx = lo; idx < hi; ++idx) {
        const std::uint64_t key = item_key(idx);
        if (tree_->find(key) != perfbench::load_value(key)) ++failed;
      }
      tally.add(hi - lo, failed);
    });
    tally.add(1, tree_->size() == kKeys ? 0 : 1);
  }

  FindProbe probe_find() override { return probe_sharded_find(*tree_, probe_keys_from(streams_[0])); }

  int height() const override { return tree_->height(); }

 private:
  /// A scan from item @p idx returns the next kScanLen items in key order
  /// (fewer only at the end of the key space), each with its load value.
  static bool scan_ok(std::uint64_t idx, const std::vector<std::pair<std::uint64_t, std::uint64_t>>& got) {
    const std::uint64_t want = std::min<std::uint64_t>(kScanLen, kKeys - idx);
    if (got.size() != want) return false;
    for (std::size_t m = 0; m < got.size(); ++m) {
      const std::uint64_t key = item_key(idx + m);
      if (got[m].first != key || got[m].second != perfbench::load_value(key)) return false;
    }
    return true;
  }

  std::vector<std::vector<std::uint64_t>> streams_;
  /// Per-thread scan output, on its own cache line.
  struct alignas(kCacheLineSize) ScanBuf {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  };
  std::vector<ScanBuf> bufs_;
  std::unique_ptr<Sharded> tree_;
};

// churn_batched: 4 hash shards, per-thread ModifyBatch (K=8); each thread
// inserts fresh keys of its own range, removes its oldest live key and
// value-checks finds of its live keys, so the live set stays level.  A
// thread's n-th key is a bijective scramble of n inside its range, so
// inserts and removes land on leaves spread over the range (splitting some)
// rather than at its two ends, where removes would empty whole leaves that
// the tree never frees.
class ChurnBatched final : public Workload {
 public:
  static constexpr std::uint64_t kKeys = 1'000'000;
  static constexpr std::size_t kPoolBytes = std::size_t{1} << 30;
  static constexpr int kRangeBits = 40;

  ChurnBatched(int threads, std::uint64_t seed)
      : Workload(threads, seed), per_thread_(kKeys / static_cast<std::uint64_t>(threads)),
        clients_(static_cast<std::size_t>(threads)) {
    for (int t = 0; t < threads; ++t) {
      Xoshiro256 rng(seed * 7919 + static_cast<std::uint64_t>(t));
      std::vector<std::uint64_t> s(kStreamLen);
      for (auto& op : s) {
        const std::uint64_t r = rng.next_below(10);
        op = encode_op(r < 4 ? Op::kInsert : r < 8 ? Op::kRemove : Op::kFind, rng.next());
      }
      streams_.push_back(std::move(s));
    }
  }

  /// Thread t's n-th key.
  static std::uint64_t key_of(int t, std::uint64_t n) {
    // Multiplying by an odd constant and xor-shifting are both bijections
    // on kRangeBits bits, so no two n of one thread share a key.
    constexpr std::uint64_t kMask = (std::uint64_t{1} << kRangeBits) - 1;
    std::uint64_t x = (n * 0x9E3779B97F4A7C15ull) & kMask;
    x ^= x >> (kRangeBits / 2);
    x = (x * 0xBF58476D1CE4E5B9ull) & kMask;
    x ^= x >> (kRangeBits / 2);
    return (static_cast<std::uint64_t>(t + 1) << kRangeBits) | x;
  }

  void load(Tally& tally) override {
    pool_ = std::make_unique<nvm::PmemPool>(kPoolBytes);
    tree_ = std::make_unique<Sharded>(*pool_, sharded_options());
    parallel(threads_, [&](int t) {
      std::uint64_t failed = 0;
      for (std::uint64_t n = 0; n < per_thread_; ++n) {
        const std::uint64_t k = key_of(t, n);
        if (!tree_->insert(k, perfbench::load_value(k)).ok()) ++failed;
      }
      tally.add(per_thread_, failed);
      clients_[static_cast<std::size_t>(t)].win = {0, per_thread_};
    });
  }

  void drop() override {
    tree_.reset();
    pool_.reset();
  }

  void start_thread(int t) override {
    clients_[static_cast<std::size_t>(t)].batch.emplace(*tree_, kBatchOps);
  }

  void step(int t, std::uint64_t i, ThreadStats& s) override {
    const auto ti = static_cast<std::size_t>(t);
    const std::uint64_t op = streams_[ti][i % kStreamLen];
    Client& c = clients_[ti];
    Window& w = c.win;
    Sharded::ModifyBatch& batch = *c.batch;
    Op kind = op_kind(op);
    if (kind == Op::kRemove && w.hi - w.lo <= 1) kind = Op::kInsert;  // never empty the range
    if (kind == Op::kFind) {
      const std::uint64_t key = key_of(t, w.lo + (op & kPayloadMask) % (w.hi - w.lo));
      const std::uint64_t t0 = rdtsc();
      const std::optional<std::uint64_t> got = tree_->find(key);
      s.record(Op::kFind, t0, rdtsc() - t0);
      if (got != perfbench::load_value(key)) ++s.failed;
      return;
    }
    const std::uint64_t key = key_of(t, kind == Op::kInsert ? w.hi : w.lo);
    const std::uint64_t t0 = rdtsc();
    if (kind == Op::kInsert) {
      if (batch.insert(key, perfbench::load_value(key)).ok())
        ++w.hi;
      else
        ++s.failed;
    } else {
      if (!batch.remove(key)) ++s.failed;
      ++w.lo;
    }
    c.acks.staged(kind, t0);
    if (batch.staged() == 0) ack(t, s);  // this op filled the batch: flushed
  }

  void quiesce(int t, ThreadStats& s) override {
    clients_[static_cast<std::size_t>(t)].batch->flush();
    ack(t, s);
  }

  void finish_thread(int t, ThreadStats& s) override {
    quiesce(t, s);
    clients_[static_cast<std::size_t>(t)].batch.reset();
  }

  std::uint64_t live_keys() const override {
    std::uint64_t n = 0;
    for (const Client& c : clients_) n += c.win.hi - c.win.lo;
    return n;
  }

  double crash_and_recover() override { return crash_reopen(tree_, *pool_, sharded_options()); }

  /// Every shard's ordered contents must be exactly its share of the live
  /// windows, each key with its value.
  void verify(Tally& tally) override {
    std::vector<std::vector<std::uint64_t>> want(kShards);
    for (int t = 0; t < threads_; ++t) {
      const Window& w = clients_[static_cast<std::size_t>(t)].win;
      for (std::uint64_t n = w.lo; n < w.hi; ++n) {
        const std::uint64_t k = key_of(t, n);
        want[static_cast<std::size_t>(tree_->shard_of(k))].push_back(k);
      }
    }
    std::vector<std::uint64_t> failed(kShards, 0), checked(kShards, 0);
    parallel(kShards, [&](int s) {
      auto& keys = want[static_cast<std::size_t>(s)];
      std::sort(keys.begin(), keys.end());
      std::size_t next = 0;
      std::uint64_t bad = 0;
      tree_->shard(s).scan(0, [&](std::uint64_t k, std::uint64_t v) {
        while (next < keys.size() && keys[next] < k) ++next, ++bad;  // missing
        if (next < keys.size() && keys[next] == k) {
          ++next;
          if (v != perfbench::load_value(k)) ++bad;
        } else {
          ++bad;  // not live
        }
        return true;
      });
      bad += keys.size() - next;
      failed[static_cast<std::size_t>(s)] = bad;
      checked[static_cast<std::size_t>(s)] = keys.size();
    });
    for (int s = 0; s < kShards; ++s)
      tally.add(checked[static_cast<std::size_t>(s)], failed[static_cast<std::size_t>(s)]);
  }

  FindProbe probe_find() override {
    std::vector<std::uint64_t> keys;
    Xoshiro256 rng(seed_);
    for (std::size_t i = 0; i < kProbeKeys; ++i) {
      const int t = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(threads_)));
      const Window& w = clients_[static_cast<std::size_t>(t)].win;
      keys.push_back(key_of(t, w.lo + rng.next_below(w.hi - w.lo)));
    }
    return probe_sharded_find(*tree_, keys);
  }

  int height() const override { return tree_->height(); }

 private:
  struct Window {
    std::uint64_t lo = 0;  ///< n of the oldest live key
    std::uint64_t hi = 0;  ///< n of the next fresh key
  };

  void ack(int t, ThreadStats& s) {
    const std::uint64_t now = rdtsc();
    clients_[static_cast<std::size_t>(t)].acks.acked(
        now, [&](Op op, std::uint64_t t0, std::uint64_t ticks) { s.record(op, t0, ticks); });
  }

  /// A client thread's state, written on every op: its own cache line.
  struct alignas(kCacheLineSize) Client {
    Window win;
    std::optional<Sharded::ModifyBatch> batch;
    perfbench::BatchAckTracker acks;
  };

  std::uint64_t per_thread_;
  std::vector<std::vector<std::uint64_t>> streams_;
  std::vector<Client> clients_;
  std::unique_ptr<Sharded> tree_;
};

// ---------------------------------------------------------------------------
// Measured phase
// ---------------------------------------------------------------------------

struct PhaseResult {
  std::vector<ThreadStats> threads;
  double elapsed_s = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t checkpoint_live = 0;

  std::uint64_t ops() const {
    std::uint64_t n = 0;
    for (const auto& t : threads) n += t.ops;
    return n;
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const auto& t : threads) n += t.failed;
    return n;
  }
  /// Latencies of @p ops in window @p w, or in the whole phase when w < 0.
  LatencyHist merged(std::initializer_list<Op> ops, int w = -1) const {
    LatencyHist h;
    for (const auto& t : threads)
      for (int i = 0; i < kWindows; ++i)
        if (w < 0 || w == i)
          for (const Op op : ops) h.merge(t.win[static_cast<std::size_t>(i)][static_cast<int>(op)]);
    return h;
  }
  /// Ops completed per second in window @p w (the last window also holds
  /// the ops that finished after the deadline).
  double window_ops_per_s(int w) const {
    const LatencyHist h = merged({Op::kFind, Op::kUpdate, Op::kInsert, Op::kRemove, Op::kScan}, w);
    const double len = elapsed_s / kWindows;
    return static_cast<double>(h.count()) / (w == kWindows - 1 ? elapsed_s - len * (kWindows - 1) : len);
  }
  double phase_ns(obs::Phase p) const {
    std::uint64_t ticks = 0;
    for (const auto& t : threads) ticks += t.phase_ticks[static_cast<std::size_t>(p)];
    return static_cast<double>(obs::phase_ticks_to_ns(ticks));
  }
  double ops_per_s() const { return static_cast<double>(ops()) / elapsed_s; }
};

/// Closed loop: every client thread issues its next op when the previous one
/// returns, for @p seconds.  With @p checkpoint > 0 each thread stops at
/// that op index, acknowledges its ops, and the pool size and live keys are
/// read while all threads wait; a thread runs on past the deadline until it
/// has passed the checkpoint, so the reading always follows the same op
/// count.
PhaseResult run_phase(Workload& w, int threads, double seconds, std::uint64_t checkpoint) {
  PhaseResult r;
  r.threads.resize(static_cast<std::size_t>(threads));
  std::barrier sync(threads, [&]() noexcept {
    r.checkpoint_bytes = w.pool().bytes_used();
    r.checkpoint_live = w.live_keys();
  });
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      ThreadStats& s = r.threads[static_cast<std::size_t>(t)];
      bool passed_checkpoint = checkpoint == 0;
      ready.fetch_add(1);
      try {
        w.start_thread(t);
        while (!go.load(std::memory_order_acquire)) cpu_relax();
        const obs::PhaseTicks p0 = obs::phase_ticks_snapshot();
        for (std::uint64_t i = 0;; ++i) {
          if (i == checkpoint && !passed_checkpoint) {
            w.quiesce(t, s);
            passed_checkpoint = true;
            sync.arrive_and_wait();
          }
          if (passed_checkpoint && stop.load(std::memory_order_relaxed)) break;
          w.step(t, i, s);
          ++s.ops;
        }
        w.finish_thread(t, s);
        const obs::PhaseTicks p1 = obs::phase_ticks_snapshot();
        for (int p = 0; p < obs::kPhaseCount; ++p)
          s.phase_ticks[static_cast<std::size_t>(p)] = p1.t[p] - p0.t[p];
      } catch (...) {
        errors[static_cast<std::size_t>(t)] = std::current_exception();
        if (!passed_checkpoint) sync.arrive_and_drop();
      }
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  const std::uint64_t t0 = now_ns();
  const std::uint64_t start_tick = rdtsc();
  const auto window_ticks = static_cast<std::uint64_t>(seconds * 1e9 / kWindows * tsc_per_ns());
  for (ThreadStats& s : r.threads) {
    s.start_tick = start_tick;
    s.window_ticks = std::max<std::uint64_t>(window_ticks, 1);
  }
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : clients) th.join();
  r.elapsed_s = static_cast<double>(now_ns() - t0) * 1e-9;
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
  return r;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Spec {
  const char* name;
  /// Independent rounds of a --trace 0 run, each on a freshly loaded tree.
  int rounds;
  int recovers_per_round;
  std::uint64_t checkpoint_ops;  ///< per thread; pool_bytes_per_key read here
};

constexpr Spec kSpecs[] = {
    {"ycsb_a_zipf", 5, 5, 1'000'000},
    {"read_scan_large", 3, 7, 1'000'000},
    {"churn_batched", 5, 5, 1'000'000},
};

std::unique_ptr<Workload> make_workload(const std::string& name, int threads, std::uint64_t seed) {
  if (name == "ycsb_a_zipf") return std::make_unique<YcsbAZipf>(threads, seed);
  if (name == "read_scan_large") return std::make_unique<ReadScanLarge>(threads, seed);
  return std::make_unique<ChurnBatched>(threads, seed);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload {ycsb_a_zipf|read_scan_large|churn_batched} "
               "--seed N --seconds S --trace {0|1}\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        a.workload = v;
        used = v.size();
      } else if (flag == "--seed") {
        a.seed = std::stoull(v, &used);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v, &used);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
        used = v.size();
      } else {
        usage(("unknown flag " + flag).c_str());
      }
      if (used != v.size()) usage(("bad value for " + flag).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!(a.seconds > 0 && a.seconds <= 600)) usage("--seconds must be in (0, 600]");
  bool known = false;
  for (const Spec& s : kSpecs) known = known || a.workload == s.name;
  if (!known) usage("unknown or missing --workload");
  return a;
}

/// Metric lines of the result object, in insertion order.
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!body_.empty()) body_ += ", ";
    body_ += perfbench::json_string(name) + ": {\"value\": " + perfbench::json_number(value) +
             ", \"unit\": " + perfbench::json_string(unit) + "}";
  }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Percentile in microseconds, or nullopt when the samples do not support it.
std::optional<double> pct_us(const LatencyHist& h, double q) {
  const std::optional<double> ticks = h.percentile(q);
  if (!ticks) return std::nullopt;
  return ticks_to_ns(*ticks) / 1000.0;
}

/// Per-op-type latency summary for the report: sample count always, each
/// percentile only when at least LatencyHist::kMinBeyond samples lie beyond.
std::string ops_report(const PhaseResult& r) {
  std::string out;
  for (int k = 0; k < perfbench::kOpKinds; ++k) {
    const LatencyHist h = r.merged({static_cast<Op>(k)});
    if (h.count() == 0) continue;
    if (!out.empty()) out += ", ";
    out += perfbench::json_string(perfbench::kOpNames[k]) + ": {\"count\": " + std::to_string(h.count());
    for (const auto& [q, label] : {std::pair{0.5, "p50_us"}, std::pair{0.99, "p99_us"}}) {
      if (const auto v = pct_us(h, q))
        out += ", " + perfbench::json_string(label) + ": " + perfbench::json_number(*v);
    }
    out += "}";
  }
  return "{" + out + "}";
}

std::string provenance(int threads) {
  std::string out;
  for (const obs::MetaField& f : obs::standard_meta()) {
    if (!out.empty()) out += ", ";
    out += perfbench::json_string(f.key) + ": " + (f.is_number ? f.value : perfbench::json_string(f.value));
  }
  const nvm::NvmConfig& cfg = nvm::config();
  out += ", \"client_threads\": " + std::to_string(threads);
  out += ", \"nvm_write_latency_ns\": " + std::to_string(cfg.write_latency_ns);
  out += ", \"nvm_per_line_ns\": " + std::to_string(cfg.per_line_ns);
  out += std::string(", \"rtm_supported\": ") + (htm::rtm_supported() ? "true" : "false");
  return "{" + out + "}";
}

/// Unit costs from single-threaded calls into each layer's public function.
struct Probes {
  double persist_line_ns = 0;
  double alloc_ns = 0;
  double pin_ns = 0;
};

Probes run_probes() {
  Probes p;
  constexpr int kRounds = 5;
  {
    alignas(kCacheLineSize) static char lines[64 * kCacheLineSize];
    std::vector<double> v;
    for (int r = 0; r < kRounds; ++r) {
      constexpr int kN = 4000;
      const std::uint64_t t0 = now_ns();
      for (int i = 0; i < kN; ++i) nvm::persist(lines + (i % 64) * kCacheLineSize, kCacheLineSize);
      v.push_back(static_cast<double>(now_ns() - t0) / kN);
    }
    p.persist_line_ns = median(v);
  }
  {
    // Leaf-sized alloc+free pairs; after the warm-up round every alloc is
    // served from the free list, as under churn.
    nvm::PmemPool pool(std::size_t{64} << 20);
    constexpr int kN = 1024;
    std::vector<std::uint64_t> offs(kN);
    std::vector<double> v;
    for (int r = 0; r <= kRounds; ++r) {
      const std::uint64_t t0 = now_ns();
      for (auto& o : offs) o = pool.alloc(sizeof(Tree::Leaf));
      for (const auto o : offs) pool.free(o, sizeof(Tree::Leaf));
      if (r > 0) v.push_back(static_cast<double>(now_ns() - t0) / kN);
    }
    p.alloc_ns = median(v);
  }
  {
    epoch::EpochManager em;
    std::vector<double> v;
    for (int r = 0; r < kRounds; ++r) {
      constexpr int kN = 100'000;
      const std::uint64_t t0 = now_ns();
      for (int i = 0; i < kN; ++i) {
        epoch::Guard g = em.pin();
      }
      v.push_back(static_cast<double>(now_ns() - t0) / kN);
    }
    p.pin_ns = median(v);
  }
  return p;
}

std::string json_array(const std::vector<double>& v) {
  std::string out;
  for (const double x : v) out += (out.empty() ? "" : ", ") + perfbench::json_number(x);
  return "[" + out + "]";
}

/// The --trace 0 run: spec.rounds rounds of set-up, a measured phase of
/// seconds / rounds, crash reopens and the end-state check, each on a fresh
/// pool and tree.  Each figure is the median over all rounds (over all their
/// windows, for the phase figures), so neither one round's memory placement
/// nor a burst of outside load decides it.  Adds the end-to-end metrics to
/// @p m; returns the report fields.
std::string measure_end_to_end(Workload& w, const Spec& spec, int threads, double seconds,
                               Tally& tally, Metrics& m) {
  const std::initializer_list<Op> kFinds = {Op::kFind};
  const std::initializer_list<Op> kOthers = {Op::kUpdate, Op::kInsert, Op::kRemove, Op::kScan};
  struct Windowed {
    const char* name;
    const char* unit;
    std::initializer_list<Op> ops;
    double q;  ///< percentile, or 0 for throughput
    std::vector<double> values = {};
  };
  Windowed windows[] = {
      {"ops_per_s", "1/s", {}, 0},
      {"find_p50_us", "us", kFinds, 0.5},
      {"find_p99_us", "us", kFinds, 0.99},
      {"nonfind_p50_us", "us", kOthers, 0.5},
      {"nonfind_p99_us", "us", kOthers, 0.99},
  };
  std::vector<double> setups, recovers, bytes_per_key;
  PhaseResult all;  // every round's threads, for the per-op report
  for (int r = 0; r < spec.rounds; ++r) {
    if (r > 0) w.drop();
    const std::uint64_t t0 = now_ns();
    w.load(tally);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    PhaseResult ph = run_phase(w, threads, seconds / spec.rounds, spec.checkpoint_ops);
    tally.add(ph.ops(), ph.failed());
    bytes_per_key.push_back(ratio(static_cast<double>(ph.checkpoint_bytes), ph.checkpoint_live));
    for (int k = 0; k < spec.recovers_per_round; ++k) recovers.push_back(w.crash_and_recover());
    w.verify(tally);

    // A window whose samples do not support a percentile is left out.
    for (Windowed& x : windows)
      for (int i = 0; i < kWindows; ++i) {
        if (x.q == 0) {
          x.values.push_back(ph.window_ops_per_s(i));
        } else if (const auto p = pct_us(ph.merged(x.ops, i), x.q)) {
          x.values.push_back(*p);
        }
      }
    all.elapsed_s += ph.elapsed_s;
    for (ThreadStats& t : ph.threads) all.threads.push_back(std::move(t));
  }

  std::string windows_json;
  for (const Windowed& x : windows) {
    if (x.values.empty()) throw std::runtime_error(std::string("too few samples for ") + x.name);
    m.add(x.name, median(x.values), x.unit);
    windows_json += (windows_json.empty() ? "" : ", ") + perfbench::json_string(x.name) + ": " + json_array(x.values);
  }
  m.add("setup_s", median(setups), "s");
  m.add("recover_s", median(recovers), "s");
  m.add("pool_bytes_per_key", median(bytes_per_key), "B/key");
  return "\"ops\": " + ops_report(all) + ", \"measured_s\": " + perfbench::json_number(all.elapsed_s) +
         ", \"windows\": {" + windows_json + "}, \"setup_runs_s\": " + json_array(setups) +
         ", \"recover_runs_s\": " + json_array(recovers) +
         ", \"checkpoint_ops_per_thread\": " + std::to_string(spec.checkpoint_ops) +
         ", \"pool_bytes_per_key_runs\": " + json_array(bytes_per_key);
}

/// The --trace 1 run: an untraced half, a phase-timed half, one crash
/// reopen, the end-state check and the probes.  Adds the per-layer metrics
/// of the traced half to @p m; returns the report fields.
std::string measure_layers(Workload& w, int threads, double seconds, Tally& tally, Metrics& m) {
  w.load(tally);
  const PhaseResult plain = run_phase(w, threads, seconds / 2, 0);
  tally.add(plain.ops(), plain.failed());
  perfbench::PhaseCounters c;
  obs::set_phase_timing(true);
  c.begin();
  const PhaseResult ph = run_phase(w, threads, seconds / 2, 0);
  c.end();
  obs::set_phase_timing(false);
  tally.add(ph.ops(), ph.failed());
  const int height = w.height();

  perfbench::PhaseCounters rec;
  rec.begin();
  w.crash_and_recover();
  rec.end();
  w.verify(tally);
  const FindProbe fp = w.probe_find();
  const Probes pr = run_probes();

  const std::uint64_t ops = ph.ops();
  const auto per_op_ns = [&](obs::Phase p) { return ratio(ph.phase_ns(p), ops); };
  const auto sum_per_op = [&](const char* a, const char* b) {
    return ratio(static_cast<double>(c.delta(a) + c.delta(b)), ops);
  };
  const double htm_ns = per_op_ns(obs::Phase::kHtm), wait_ns = per_op_ns(obs::Phase::kLockWait),
               persist_ns = per_op_ns(obs::Phase::kPersist), smo_ns = per_op_ns(obs::Phase::kSmo);
  const double busy_ns = ratio(ph.elapsed_s * 1e9 * threads, ops);
  const std::uint64_t scans = ph.merged({Op::kScan}).count();

  m.add("nvm.persists_per_op", sum_per_op("nvm.persist", "nvm.batch_persist"), "count/op");
  m.add("nvm.fences_per_op", sum_per_op("nvm.fence", "nvm.batch_fence"), "count/op");
  m.add("nvm.lines_per_op", c.per_op("nvm.lines", ops), "count/op");
  m.add("nvm.persist_ns_per_op", persist_ns, "ns/op");
  m.add("nvm.persist_line_ns", pr.persist_line_ns, "ns");
  m.add("pool.allocs_per_kop", c.per_kop("pool.allocs", ops), "count/kop");
  m.add("pool.freelist_hits_per_kop", c.per_kop("pool.freelist_hits", ops), "count/kop");
  m.add("pool.alloc_ns", pr.alloc_ns, "ns");
  m.add("htm.attempts_per_op", c.per_op("htm.attempts", ops), "count/op");
  m.add("htm.commit_ratio", c.per_op("htm.commits", c.delta("htm.attempts")), "ratio");
  m.add("htm.aborts_conflict_per_kop", c.per_kop("htm.aborts_conflict", ops), "count/kop");
  m.add("htm.aborts_capacity_per_kop", c.per_kop("htm.aborts_capacity", ops), "count/kop");
  m.add("htm.fallbacks_per_kop", c.per_kop("htm.fallbacks", ops), "count/kop");
  m.add("htm.lock_wait_timeouts", static_cast<double>(c.delta("htm.lock_wait_timeouts")), "count");
  m.add("htm.stripe.multi_acquires_per_kop", c.per_kop("htm.stripe.multi_acquires", ops), "count/kop");
  m.add("htm.publish_ns_per_op", htm_ns, "ns/op");
  m.add("htm.lock_wait_ns_per_op", wait_ns, "ns/op");
  m.add("tree.leaf_splits_per_kop", c.per_kop("tree.leaf_splits", ops), "count/kop");
  m.add("tree.shrink_splits_per_kop", c.per_kop("tree.shrink_splits", ops), "count/kop");
  m.add("htm.smo.installs_per_kop", c.per_kop("htm.smo.installs", ops), "count/kop");
  m.add("htm.smo.validation_failures_per_kop", c.per_kop("htm.smo.validation_failures", ops), "count/kop");
  m.add("htm.smo.legacy_path_per_kop", c.per_kop("htm.smo.legacy_path", ops), "count/kop");
  m.add("core.smo_ns_per_op", smo_ns, "ns/op");
  m.add("inner.height", height, "levels");
  m.add("core.find_ns", fp.core_ns, "ns");
  m.add("tree.find_retries_per_kop", c.per_kop("tree.find_retries", ops), "count/kop");
  m.add("tree.modify_restarts_per_kop", c.per_kop("tree.modify_restarts", ops), "count/kop");
  m.add("core.other_ns_per_op", busy_ns - htm_ns - wait_ns - persist_ns - smo_ns, "ns/op");
  m.add("recovery.leaves", static_cast<double>(rec.delta("recovery.leaves")), "count");
  m.add("recovery.workers", static_cast<double>(rec.delta("recovery.workers")), "count");
  m.add("recovery.parallel_runs", static_cast<double>(rec.delta("recovery.parallel_runs")), "count");
  m.add("epoch.pins_per_op", c.per_op("epoch.pins", ops), "count/op");
  m.add("epoch.pin_ns", pr.pin_ns, "ns");
  m.add("epoch.retires_per_kop", c.per_kop("epoch.retires", ops), "count/kop");
  m.add("epoch.freed_per_kop", c.per_kop("epoch.freed", ops), "count/kop");
  m.add("shard.route_ns", fp.route_ns, "ns");
  m.add("shard.scan.cross_per_scan", c.per_op("shard.scan.cross", scans), "count/scan");
  m.add("shard.batch.ops_per_flush", c.per_op("shard.batch.staged", c.delta("shard.batch.flushes")),
        "count/flush");
  m.add("obs.trace_overhead_pct", 100.0 * (plain.ops_per_s() - ph.ops_per_s()) / plain.ops_per_s(), "%");
  return "\"ops_untraced\": " + ops_report(plain) + ", \"ops_traced\": " + ops_report(ph) +
         ", \"ops_per_s_untraced\": " + perfbench::json_number(plain.ops_per_s()) +
         ", \"ops_per_s_traced\": " + perfbench::json_number(ph.ops_per_s());
}

int run(const Args& a) {
  const int threads = static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  const Spec& spec = *std::find_if(std::begin(kSpecs), std::end(kSpecs),
                                   [&](const Spec& s) { return a.workload == s.name; });
  std::unique_ptr<Workload> w = make_workload(a.workload, threads, a.seed);
  Tally tally;
  Metrics m;
  const std::string extra = a.trace ? measure_layers(*w, threads, a.seconds, tally, m)
                                    : measure_end_to_end(*w, spec, threads, a.seconds, tally, m);

  const std::uint64_t attempted = tally.attempted.load(), failed = tally.failed.load();
  const bool correct = failed == 0;
  std::printf("{\"report\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
              "\"meta\": %s, %s, \"failed_frac\": %s}}\n",
              perfbench::json_string(a.workload).c_str(), static_cast<unsigned long long>(a.seed),
              perfbench::json_number(a.seconds).c_str(), a.trace ? 1 : 0, provenance(threads).c_str(),
              extra.c_str(), perfbench::json_number(ratio(static_cast<double>(failed), attempted)).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
