// Crash-consistency sweeps for the baseline trees, mirroring the RNTree
// sweeps: replay a deterministic op sequence, power-fail at every tracked
// NVM event, recover, verify acknowledged effects.
//
// What each design guarantees (and what is therefore asserted):
//   * NVTree    — entry flushed before the nElement counter: ops are atomic
//                 at the counter flush.  Swept under strict AND random-
//                 eviction crashes.
//   * wB+tree-SO— the 8-byte slot word is the atomic commit point.  Swept
//                 under both modes.
//   * FPTree    — the bitmap word is the atomic commit point (entry and
//                 fingerprint flushed first).  Swept under both modes.
//   * wB+tree   — the valid bit protects the 64-byte slot array, but the
//                 in-place rewrite is only recoverable when unflushed lines
//                 are LOST (the old array reappears); if a torn slot line is
//                 evicted to NVM the published design needs its occupancy
//                 bitmap to rebuild, which the paper's simplified
//                 re-implementation (and ours) lacks.  Swept under strict
//                 crashes only — documented in DESIGN.md.
//   * CDDS      — reproduced as a Table-1 cost model only; its multi-stage
//                 sorted-shift recovery is out of scope (DESIGN.md).
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "baselines/fptree.hpp"
#include "baselines/nvtree.hpp"
#include "baselines/wbtree.hpp"
#include "common/rng.hpp"
#include "nvm/pool.hpp"
#include "nvm/shadow.hpp"

namespace rnt::baselines {
namespace {

struct OpRec {
  int kind;  // 0=insert 1=update 2=remove
  std::uint64_t key, value;
};

std::vector<OpRec> make_ops(int n, std::uint64_t key_space, std::uint64_t seed) {
  std::vector<OpRec> ops;
  Xoshiro256 rng(seed);
  for (int i = 0; i < n; ++i)
    ops.push_back({static_cast<int>(rng.next_below(3)), rng.next_below(key_space),
                   rng.next() | 1});
  return ops;
}

/// One crash run for tree type T; returns false once crash_at exceeds the
/// run's total events.
template <typename T, typename MakeFn, typename RecoverFn>
bool run_one(const std::vector<OpRec>& ops, std::uint64_t crash_at,
             nvm::EvictionMode mode, std::uint64_t seed, MakeFn&& make,
             RecoverFn&& recover_fn) {
  nvm::PmemPool pool(std::size_t{4} << 20);
  auto tree = make(pool);
  nvm::ShadowPool shadow(pool);
  shadow.schedule_crash_after(crash_at);

  std::map<std::uint64_t, std::uint64_t> acked;
  bool crashed = false;
  std::uint64_t pending_key = 0, pending_value = 0;
  int pending_kind = -1;
  try {
    for (const OpRec& op : ops) {
      pending_key = op.key;
      pending_value = op.value;
      pending_kind = op.kind;
      switch (op.kind) {
        case 0:
          if (tree->insert(op.key, op.value)) acked[op.key] = op.value;
          break;
        case 1:
          if (tree->update(op.key, op.value)) acked[op.key] = op.value;
          break;
        default:
          if (tree->remove(op.key)) acked.erase(op.key);
      }
      pending_kind = -1;
    }
  } catch (const nvm::CrashPoint&) {
    crashed = true;
  }
  if (!crashed) {
    shadow.cancel_scheduled_crash();
    return false;
  }

  tree.reset();
  shadow.simulate_crash(mode, seed);
  pool.reopen_volatile();
  auto recovered = recover_fn(pool);

  for (auto& [k, v] : acked) {
    auto res = recovered->find(k);
    if (pending_kind >= 0 && k == pending_key) {
      // In-flight op on this key: all-or-nothing.
      EXPECT_TRUE(pending_kind == 2
                      ? (!res || *res == v)
                      : (res && (*res == v || *res == pending_value)))
          << "key " << k << " @" << crash_at;
    } else {
      EXPECT_TRUE(res.has_value()) << "lost acked key " << k << " @" << crash_at;
      if (res) {
        EXPECT_EQ(*res, v) << "key " << k << " @" << crash_at;
      }
    }
  }
  // An in-flight insert may at most add its own key; nothing else new.
  if (pending_kind == 0) {
    auto res = recovered->find(pending_key);
    EXPECT_TRUE(!res || acked.count(pending_key) != 0 || *res == pending_value)
        << "@" << crash_at;
  }
  return true;
}

template <typename T, typename MakeFn, typename RecoverFn>
void sweep(const std::vector<OpRec>& ops, nvm::EvictionMode mode,
           std::uint64_t seed, MakeFn&& make, RecoverFn&& recover_fn,
           std::uint64_t stride = 1) {
  std::uint64_t crash_at = 1;
  std::uint64_t runs = 0;
  while (run_one<T>(ops, crash_at, mode, seed, make, recover_fn)) {
    crash_at += stride;
    ++runs;
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(runs * stride, 60u) << "sweep covered suspiciously few crash points";
}

// --- per-tree factories -------------------------------------------------

auto make_nvtree = [](nvm::PmemPool& pool) {
  return std::make_unique<NVTree<>>(pool,
                                    NVTree<>::Options{.conditional_write = true});
};
auto recover_nvtree = [](nvm::PmemPool& pool) {
  return std::make_unique<NVTree<>>(NVTree<>::recover_t{}, pool,
                                    NVTree<>::Options{.conditional_write = true});
};
auto make_wb = [](nvm::PmemPool& pool) { return std::make_unique<WBTree<>>(pool); };
auto recover_wb = [](nvm::PmemPool& pool) {
  return std::make_unique<WBTree<>>(WBTree<>::recover_t{}, pool);
};
auto make_wbso = [](nvm::PmemPool& pool) {
  return std::make_unique<WBTreeSO<>>(pool);
};
auto recover_wbso = [](nvm::PmemPool& pool) {
  return std::make_unique<WBTreeSO<>>(WBTreeSO<>::recover_t{}, pool);
};
auto make_fp = [](nvm::PmemPool& pool) { return std::make_unique<FPTree<>>(pool); };
auto recover_fp = [](nvm::PmemPool& pool) {
  return std::make_unique<FPTree<>>(FPTree<>::recover_t{}, pool);
};

// --- sweeps ---------------------------------------------------------------

TEST(BaselineCrash, NVTreeEveryCrashPointStrict) {
  sweep<NVTree<>>(make_ops(50, 16, 5), nvm::EvictionMode::kNone, 0, make_nvtree,
                  recover_nvtree);
}

TEST(BaselineCrash, NVTreeRandomEviction) {
  const auto ops = make_ops(50, 16, 5);
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    sweep<NVTree<>>(ops, nvm::EvictionMode::kRandomEviction, seed, make_nvtree,
                    recover_nvtree, /*stride=*/7);
}

TEST(BaselineCrash, NVTreeThroughSplits) {
  std::vector<OpRec> ops;
  for (int i = 0; i < 120; ++i)
    ops.push_back({0, static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(i + 1)});
  sweep<NVTree<>>(ops, nvm::EvictionMode::kNone, 0, make_nvtree, recover_nvtree,
                  /*stride=*/3);
}

TEST(BaselineCrash, WBTreeEveryCrashPointStrict) {
  sweep<WBTree<>>(make_ops(50, 16, 9), nvm::EvictionMode::kNone, 0, make_wb,
                  recover_wb);
}

TEST(BaselineCrash, WBTreeThroughSplitsStrict) {
  std::vector<OpRec> ops;
  for (int i = 0; i < 120; ++i)
    ops.push_back({0, static_cast<std::uint64_t>(i * 2), static_cast<std::uint64_t>(i + 1)});
  sweep<WBTree<>>(ops, nvm::EvictionMode::kNone, 0, make_wb, recover_wb,
                  /*stride=*/3);
}

TEST(BaselineCrash, WBTreeSOEveryCrashPointStrict) {
  sweep<WBTreeSO<>>(make_ops(50, 10, 13), nvm::EvictionMode::kNone, 0, make_wbso,
                    recover_wbso);
}

TEST(BaselineCrash, WBTreeSORandomEviction) {
  const auto ops = make_ops(50, 10, 13);
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    sweep<WBTreeSO<>>(ops, nvm::EvictionMode::kRandomEviction, seed, make_wbso,
                      recover_wbso, /*stride=*/7);
}

TEST(BaselineCrash, FPTreeEveryCrashPointStrict) {
  sweep<FPTree<>>(make_ops(50, 16, 21), nvm::EvictionMode::kNone, 0, make_fp,
                  recover_fp);
}

TEST(BaselineCrash, FPTreeRandomEviction) {
  const auto ops = make_ops(50, 16, 21);
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    sweep<FPTree<>>(ops, nvm::EvictionMode::kRandomEviction, seed, make_fp,
                    recover_fp, /*stride=*/7);
}

TEST(BaselineCrash, FPTreeThroughSplits) {
  std::vector<OpRec> ops;
  for (int i = 0; i < 120; ++i)
    ops.push_back({0, static_cast<std::uint64_t>(i * 3), static_cast<std::uint64_t>(i + 1)});
  sweep<FPTree<>>(ops, nvm::EvictionMode::kNone, 0, make_fp, recover_fp,
                  /*stride=*/3);
}

}  // namespace
}  // namespace rnt::baselines
