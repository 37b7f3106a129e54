// Property-based differential test: seeded random op streams applied to
// every tree configuration AND a std::map oracle, with result- and
// state-equivalence checked op by op.  The stream deliberately hammers a
// tiny keyspace so duplicate inserts, updates of missing keys, and
// remove/reinsert cycles are common, and it survives two recovery cycles
// mid-stream (one clean close/reopen, one dirty crash-style reopen).
//
// On a mismatch the failing stream is shrunk ddmin-style (greedy chunk
// removal at halving granularity) and the minimal reproducer is printed as
// copy-pasteable steps, so a one-in-four-seeds failure lands as a five-line
// recipe rather than a 2000-op haystack.
// A second, fault-injected mode (run_fault_stream) replays seeded streams
// with a RandomAbortInjector installed and the tree pre-filled to the brink
// of a minimum-size pool: injected HTM aborts must be invisible to callers,
// and kPoolExhausted is the ONLY acceptable divergence from the oracle — an
// exhausted op is skipped by the oracle and the stream carries on, through
// both recovery cycles.  RNT_FAULT_SEEDS overrides the seed count (CI pins 4).
// FaultMode::kSmoAbortStorm narrows the same harness onto the COW SMO
// install path: a high-permille storm behind SmoTargetedInjector aborts
// ONLY install transactions (leaf ops run clean), driving every split's
// install through retry, validation-failure, and lock-fallback tiers while
// the oracle watches for any caller-visible effect.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/fptree.hpp"
#include "baselines/nvtree.hpp"
#include "baselines/wbtree.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "core/rntree.hpp"
#include "htm/abort_inject.hpp"
#include "htm/smo.hpp"
#include "nvm/persist.hpp"
#include "nvm/pool.hpp"
#include "shard/sharded_tree.hpp"

namespace rnt {
namespace {

struct Op {
  enum Kind : std::uint8_t { kInsert, kUpsert, kUpdate, kRemove, kFind, kScan };
  Kind kind;
  std::uint64_t key;
  std::uint64_t value;
};

const char* kind_name(Op::Kind k) {
  switch (k) {
    case Op::kInsert: return "insert";
    case Op::kUpsert: return "upsert";
    case Op::kUpdate: return "update";
    case Op::kRemove: return "remove";
    case Op::kFind: return "find";
    case Op::kScan: return "scan";
  }
  return "?";
}

/// ~2000 weighted ops over 96 distinct scrambled keys: small enough that
/// every key sees many lifecycle transitions, large enough to split leaves.
std::vector<Op> make_stream(std::uint64_t seed, std::size_t n) {
  Xoshiro256 rng(seed);
  std::vector<Op> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = mix64(rng.next_below(96));
    const std::uint64_t val = (seed << 32) ^ i;
    const std::uint64_t w = rng.next_below(100);
    Op::Kind kind;
    if (w < 25) kind = Op::kInsert;
    else if (w < 40) kind = Op::kUpsert;
    else if (w < 55) kind = Op::kUpdate;
    else if (w < 70) kind = Op::kRemove;
    else if (w < 95) kind = Op::kFind;
    else kind = Op::kScan;
    ops.push_back({kind, key, val});
  }
  return ops;
}

template <typename Tree>
void maybe_check_invariants(const Tree& t) {
  if constexpr (requires { t.check_invariants(); }) t.check_invariants();
}

/// Apply @p ops to a fresh tree and oracle; return a failure description or
/// nullopt.  Deterministic in @p ops alone, so the shrinker can re-run it.
/// Recovery cycles fire at len/3 (clean close + reopen) and 2*len/3 (dirty
/// reopen: volatile state dropped with NO close, crash recovery path).
template <typename Adapter>
std::optional<std::string> run_stream(const std::vector<Op>& ops) {
  nvm::PmemPool pool(std::size_t{64} << 20);
  auto tree = Adapter::make(pool);
  std::map<std::uint64_t, std::uint64_t> oracle;

  const std::size_t clean_at = ops.size() / 3;
  const std::size_t dirty_at = 2 * ops.size() / 3;
  auto fail = [&](std::size_t i, const std::string& what) {
    std::ostringstream os;
    os << "op " << i << " (" << kind_name(ops[i].kind) << " key=" << ops[i].key
       << " val=" << ops[i].value << "): " << what;
    return os.str();
  };

  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i == clean_at && i != 0) {
      tree->close();
      tree.reset();
      pool.reopen_volatile();
      if (!pool.clean_shutdown()) return "clean close did not mark pool clean";
      tree = Adapter::recover(pool);
    } else if (i == dirty_at && i != clean_at && i != 0) {
      tree.reset();  // no close(): volatile state is simply gone
      pool.reopen_volatile();
      if (pool.clean_shutdown()) return "dirty reopen unexpectedly clean";
      tree = Adapter::recover(pool);
    }

    const Op& op = ops[i];
    switch (op.kind) {
      case Op::kInsert: {
        const bool expect = oracle.emplace(op.key, op.value).second;
        if (tree->insert(op.key, op.value) != expect)
          return fail(i, expect ? "insert refused a fresh key"
                                : "insert accepted a duplicate key");
        break;
      }
      case Op::kUpsert:
        tree->upsert(op.key, op.value);
        oracle[op.key] = op.value;
        break;
      case Op::kUpdate: {
        auto it = oracle.find(op.key);
        const bool expect = it != oracle.end();
        if (expect) it->second = op.value;
        if (tree->update(op.key, op.value) != expect)
          return fail(i, expect ? "update failed on a live key"
                                : "update succeeded on a missing key");
        break;
      }
      case Op::kRemove: {
        const bool expect = oracle.erase(op.key) != 0;
        if (tree->remove(op.key) != expect)
          return fail(i, expect ? "remove failed on a live key"
                                : "remove succeeded on a missing key");
        break;
      }
      case Op::kFind: {
        const auto got = tree->find(op.key);
        auto it = oracle.find(op.key);
        if (got.has_value() != (it != oracle.end()))
          return fail(i, got ? "find returned a removed/never-inserted key"
                             : "find missed a live key");
        if (got && *got != it->second)
          return fail(i, "find returned a stale value");
        break;
      }
      case Op::kScan: {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
        tree->scan_n(0, oracle.size() + 8, got);
        if (got.size() != oracle.size())
          return fail(i, "scan size " + std::to_string(got.size()) +
                             " != oracle " + std::to_string(oracle.size()));
        auto it = oracle.begin();
        for (std::size_t j = 0; j < got.size(); ++j, ++it)
          if (got[j].first != it->first || got[j].second != it->second)
            return fail(i, "scan diverges from oracle at rank " +
                               std::to_string(j));
        break;
      }
    }
  }

  // Final full-state equivalence + structural invariants.
  maybe_check_invariants(*tree);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
  tree->scan_n(0, oracle.size() + 8, got);
  if (got.size() != oracle.size())
    return "final scan size " + std::to_string(got.size()) + " != oracle " +
           std::to_string(oracle.size());
  auto it = oracle.begin();
  for (std::size_t j = 0; j < got.size(); ++j, ++it)
    if (got[j].first != it->first || got[j].second != it->second)
      return "final state diverges from oracle at rank " + std::to_string(j);
  return std::nullopt;
}

/// Whether an op result reports pool exhaustion.  remove() still returns
/// plain bool on trees whose removes are allocation-free; those can never
/// exhaust.
template <typename R>
bool pool_exhausted_result(const R& r) {
  if constexpr (std::is_same_v<R, common::Status>)
    return r.pool_exhausted();
  else
    return false;
}

/// Where the injected aborts land.
enum class FaultMode {
  kGlobalAborts,   ///< every transaction, moderate rate (the original mode)
  kSmoAbortStorm,  ///< SMO install transactions only, storm rate
  /// Every transaction outside an SMO install (the leaf slot publishes),
  /// storm rate: publishes retry and fall back constantly under their leaf
  /// lock alone while installs commit untouched; none of it may be visible
  /// to the oracle.
  kPublishStorm,
};

/// Fault-injected stream: like run_stream, but with seeded random HTM abort
/// injection installed, a minimum-size pool pre-filled until inserts fail,
/// and exhaustion-aware oracle semantics — an op that returns kPoolExhausted
/// is a no-op for the oracle; any other divergence is a failure.
template <typename Adapter>
std::optional<std::string> run_fault_stream(const std::vector<Op>& ops,
                                            std::uint64_t seed,
                                            FaultMode mode) {
  const bool storm = mode != FaultMode::kGlobalAborts;
  htm::RandomAbortInjector inj(seed, /*abort_permille=*/storm ? 800 : 300);
  htm::SmoTargetedInjector smo_only(inj);
  htm::PublishTargetedInjector publish_only(inj);
  htm::AbortInjector* chosen = &inj;
  if (mode == FaultMode::kSmoAbortStorm) chosen = &smo_only;
  if (mode == FaultMode::kPublishStorm) chosen = &publish_only;
  htm::ScopedAbortInjector scope(chosen);

  nvm::PmemPool pool(std::size_t{2} << 20);  // minimum size: ~1 MiB of data
  auto tree = Adapter::make(pool);
  std::map<std::uint64_t, std::uint64_t> oracle;

  // Pre-fill to the brink with keys disjoint from the stream's scrambled
  // keyspace, so the stream runs against a full pool from op 0 on.
  for (std::uint64_t i = 0; i < 10'000'000; ++i) {
    const std::uint64_t k = 0x4000000000000000ull + i * 2;
    if (!tree->insert(k, i)) break;
    oracle.emplace(k, i);
  }
  if (oracle.size() < 100) return "pre-fill never approached exhaustion";

  const std::size_t clean_at = ops.size() / 3;
  const std::size_t dirty_at = 2 * ops.size() / 3;
  auto fail = [&](std::size_t i, const std::string& what) {
    std::ostringstream os;
    os << "op " << i << " (" << kind_name(ops[i].kind) << " key=" << ops[i].key
       << " val=" << ops[i].value << "): " << what;
    return os.str();
  };

  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i == clean_at && i != 0) {
      tree->close();
      tree.reset();
      pool.reopen_volatile();
      if (!pool.clean_shutdown()) return "clean close did not mark pool clean";
      tree = Adapter::recover(pool);
    } else if (i == dirty_at && i != clean_at && i != 0) {
      tree.reset();  // no close(): volatile state is simply gone
      pool.reopen_volatile();
      if (pool.clean_shutdown()) return "dirty reopen unexpectedly clean";
      tree = Adapter::recover(pool);
    }

    const Op& op = ops[i];
    switch (op.kind) {
      case Op::kInsert: {
        const bool expect = oracle.count(op.key) == 0;
        const common::Status st = tree->insert(op.key, op.value);
        if (st.pool_exhausted()) break;  // refused: oracle unchanged
        if (static_cast<bool>(st) != expect)
          return fail(i, expect ? "insert refused a fresh key"
                                : "insert accepted a duplicate key");
        if (st) oracle.emplace(op.key, op.value);
        break;
      }
      case Op::kUpsert: {
        const common::Status st = tree->upsert(op.key, op.value);
        if (st.pool_exhausted()) break;
        if (!st) return fail(i, "upsert failed without exhaustion");
        oracle[op.key] = op.value;
        break;
      }
      case Op::kUpdate: {
        const bool expect = oracle.count(op.key) != 0;
        const common::Status st = tree->update(op.key, op.value);
        if (st.pool_exhausted()) break;
        if (static_cast<bool>(st) != expect)
          return fail(i, expect ? "update failed on a live key"
                                : "update succeeded on a missing key");
        if (st) oracle[op.key] = op.value;
        break;
      }
      case Op::kRemove: {
        const bool expect = oracle.count(op.key) != 0;
        const auto r = tree->remove(op.key);
        if (pool_exhausted_result(r)) break;
        if (static_cast<bool>(r) != expect)
          return fail(i, expect ? "remove failed on a live key"
                                : "remove succeeded on a missing key");
        if (r) oracle.erase(op.key);
        break;
      }
      case Op::kFind: {
        const auto got = tree->find(op.key);
        auto it = oracle.find(op.key);
        if (got.has_value() != (it != oracle.end()))
          return fail(i, got ? "find returned a removed/never-inserted key"
                             : "find missed a live key");
        if (got && *got != it->second)
          return fail(i, "find returned a stale value");
        break;
      }
      case Op::kScan: {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
        tree->scan_n(0, oracle.size() + 8, got);
        if (got.size() != oracle.size())
          return fail(i, "scan size " + std::to_string(got.size()) +
                             " != oracle " + std::to_string(oracle.size()));
        auto it = oracle.begin();
        for (std::size_t j = 0; j < got.size(); ++j, ++it)
          if (got[j].first != it->first || got[j].second != it->second)
            return fail(i, "scan diverges from oracle at rank " +
                               std::to_string(j));
        break;
      }
    }
  }

  // Final full-state equivalence.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
  tree->scan_n(0, oracle.size() + 8, got);
  if (got.size() != oracle.size())
    return "final scan size " + std::to_string(got.size()) + " != oracle " +
           std::to_string(oracle.size());
  auto it = oracle.begin();
  for (std::size_t j = 0; j < got.size(); ++j, ++it)
    if (got[j].first != it->first || got[j].second != it->second)
      return "final state diverges from oracle at rank " + std::to_string(j);
  return std::nullopt;
}

/// RNT_FAULT_SEEDS fault-injected replays per tree (CI pins 4).
inline std::uint64_t fault_seed_count() {
  if (const char* s = std::getenv("RNT_FAULT_SEEDS")) {
    const long v = std::atol(s);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return 4;
}

template <typename Adapter>
void run_fault_differential(const char* name,
                            FaultMode mode = FaultMode::kGlobalAborts) {
  const std::uint64_t seeds = fault_seed_count();
  for (std::uint64_t s = 0; s < seeds; ++s) {
    const std::uint64_t seed = 0xF00D + s * 131;
    const std::vector<Op> ops = make_stream(seed, 1200);
    const auto failure = run_fault_stream<Adapter>(ops, seed, mode);
    if (failure)
      FAIL() << name << " fault seed " << seed << ": " << *failure
             << "\nreproduce: RNT_FAULT_SEEDS=" << seeds
             << " differential_test --gtest_filter=*Fault*";
  }
}

/// ddmin-lite: greedily delete chunks (halving granularity) while the
/// failure reproduces.  Bounded by re-run count, not op count.
template <typename Adapter>
std::vector<Op> shrink_stream(std::vector<Op> ops) {
  int budget = 300;
  for (std::size_t chunk = ops.size() / 2; chunk >= 1 && budget > 0;
       chunk = chunk == 1 ? 0 : chunk / 2) {
    for (std::size_t start = 0; start + chunk <= ops.size() && budget > 0;) {
      std::vector<Op> candidate;
      candidate.reserve(ops.size() - chunk);
      candidate.insert(candidate.end(), ops.begin(),
                       ops.begin() + static_cast<std::ptrdiff_t>(start));
      candidate.insert(candidate.end(),
                       ops.begin() + static_cast<std::ptrdiff_t>(start + chunk),
                       ops.end());
      --budget;
      if (run_stream<Adapter>(candidate).has_value())
        ops = std::move(candidate);  // still fails without the chunk
      else
        start += chunk;
    }
    if (chunk == 1) break;
  }
  return ops;
}

template <typename Adapter>
void run_differential(const char* name) {
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    const std::vector<Op> ops = make_stream(seed, 2000);
    const auto failure = run_stream<Adapter>(ops);
    if (!failure) continue;
    const std::vector<Op> minimal = shrink_stream<Adapter>(ops);
    const auto mini_failure = run_stream<Adapter>(minimal);
    std::ostringstream os;
    os << name << " seed " << seed << ": " << *failure
       << "\nminimal reproducer (" << minimal.size() << " ops, failure: "
       << mini_failure.value_or("did not reproduce after shrink") << "):\n";
    for (const Op& op : minimal)
      os << "  " << kind_name(op.kind) << " key=" << op.key
         << " val=" << op.value << "\n";
    FAIL() << os.str();
  }
}

// Adapters: make + recover per tree configuration (mirrors the crash-sweep
// adapters, minus the sweep machinery).
using RN = core::RNTree<std::uint64_t, std::uint64_t>;
using NV = baselines::NVTree<std::uint64_t, std::uint64_t>;
using WB = baselines::WBTree<std::uint64_t, std::uint64_t>;
using WBSO = baselines::WBTreeSO<std::uint64_t, std::uint64_t>;
using FP = baselines::FPTree<std::uint64_t, std::uint64_t>;

template <bool DualSlot>
struct RnAdapter {
  static std::unique_ptr<RN> make(nvm::PmemPool& p) {
    return std::make_unique<RN>(p, RN::Options{.dual_slot = DualSlot});
  }
  static std::unique_ptr<RN> recover(nvm::PmemPool& p) {
    return std::make_unique<RN>(RN::recover_t{}, p,
                                RN::Options{.dual_slot = DualSlot});
  }
};

template <typename T>
struct PlainAdapter {
  static std::unique_ptr<T> make(nvm::PmemPool& p) {
    return std::make_unique<T>(p);
  }
  static std::unique_ptr<T> recover(nvm::PmemPool& p) {
    return std::make_unique<T>(typename T::recover_t{}, p);
  }
};

// Sharding facade over four hash-partitioned RNTrees: the oracle checks the
// cross-shard k-way merge (kScan) and multi-root recovery on top of the
// member trees' own semantics.
struct ShardedAdapter {
  using SH = shard::ShardedTree<std::uint64_t, std::uint64_t>;
  static SH::Options opts() {
    return {.shards = 4, .partition = shard::Partition::kHash};
  }
  static std::unique_ptr<SH> make(nvm::PmemPool& p) {
    return std::make_unique<SH>(p, opts());
  }
  static std::unique_ptr<SH> recover(nvm::PmemPool& p) {
    return std::make_unique<SH>(SH::recover_t{}, p, opts());
  }
};

struct NvCondAdapter {
  static std::unique_ptr<NV> make(nvm::PmemPool& p) {
    return std::make_unique<NV>(p, NV::Options{.conditional_write = true});
  }
  static std::unique_ptr<NV> recover(nvm::PmemPool& p) {
    return std::make_unique<NV>(NV::recover_t{}, p,
                                NV::Options{.conditional_write = true});
  }
};

class DifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = nvm::config();
    nvm::config().write_latency_ns = 0;
    nvm::config().per_line_ns = 0;
  }
  void TearDown() override { nvm::config() = saved_; }
  nvm::NvmConfig saved_;
};

TEST_F(DifferentialTest, RnTreeSingleSlot) {
  run_differential<RnAdapter<false>>("rntree-single");
}
TEST_F(DifferentialTest, RnTreeDualSlot) {
  run_differential<RnAdapter<true>>("rntree-dual");
}
TEST_F(DifferentialTest, NvTreeConditional) {
  run_differential<NvCondAdapter>("nvtree-cond");
}
TEST_F(DifferentialTest, WbTree) { run_differential<PlainAdapter<WB>>("wbtree"); }
TEST_F(DifferentialTest, WbTreeSlotOnly) {
  run_differential<PlainAdapter<WBSO>>("wbtree-so");
}
TEST_F(DifferentialTest, FpTree) { run_differential<PlainAdapter<FP>>("fptree"); }
TEST_F(DifferentialTest, ShardedHash4) {
  run_differential<ShardedAdapter>("sharded-hash4");
}

// Fault-injected mode: random HTM aborts + a pool pre-filled to exhaustion.
TEST_F(DifferentialTest, FaultRnTreeSingleSlot) {
  run_fault_differential<RnAdapter<false>>("rntree-single");
}
TEST_F(DifferentialTest, FaultRnTreeDualSlot) {
  run_fault_differential<RnAdapter<true>>("rntree-dual");
}
TEST_F(DifferentialTest, FaultNvTreeConditional) {
  run_fault_differential<NvCondAdapter>("nvtree-cond");
}
TEST_F(DifferentialTest, FaultWbTree) {
  run_fault_differential<PlainAdapter<WB>>("wbtree");
}
TEST_F(DifferentialTest, FaultWbTreeSlotOnly) {
  run_fault_differential<PlainAdapter<WBSO>>("wbtree-so");
}
TEST_F(DifferentialTest, FaultFpTree) {
  run_fault_differential<PlainAdapter<FP>>("fptree");
}
TEST_F(DifferentialTest, FaultShardedHash4) {
  run_fault_differential<ShardedAdapter>("sharded-hash4");
}

// SMO abort storms: 800-permille seeded aborts aimed ONLY at SMO install
// transactions.  The pre-fill's sequential splits and both recovery
// rebuilds run every install through retry / validation-failure / lock
// fallback; none of it may be visible to the oracle.
TEST_F(DifferentialTest, FaultCowSmoDualSlot) {
  run_fault_differential<RnAdapter<true>>("rntree-dual-smostorm",
                                          FaultMode::kSmoAbortStorm);
}
TEST_F(DifferentialTest, FaultCowSmoSingleSlot) {
  run_fault_differential<RnAdapter<false>>("rntree-single-smostorm",
                                           FaultMode::kSmoAbortStorm);
}

// Publish storm: 800-permille seeded aborts aimed at every transaction
// outside an SMO install.  Each publish's fallback runs under its leaf lock
// alone; none of it may diverge from the oracle.
TEST_F(DifferentialTest, FaultPublishStorm) {
  run_fault_differential<RnAdapter<true>>("rntree-dual-publishstorm",
                                          FaultMode::kPublishStorm);
}

}  // namespace
}  // namespace rnt
