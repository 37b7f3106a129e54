// Per-tree adapters for the crash-point sweep harness: construction,
// recovery, structural counters (registry deltas), Table-1 persistent-instruction counts, and
// the per-tree op stream that drives the compaction class.
//
// kEvictionSafe: WBTree's full-cache-line slot array cannot survive a torn
// line, so (as documented in DESIGN.md) it is swept under strict kNone
// crashes only; every other tree also runs the kRandomEviction sweeps.
//
// kHasCompaction: WBTreeSO and FPTree have no compaction path (update
// re-points / re-bits in place), so their sixth op class exercises the
// nearest recovery-relevant analogue instead — reusing a log position /
// bitmap slot freed by a remove.
#pragma once

#include <memory>

#include "baselines/fptree.hpp"
#include "baselines/nvtree.hpp"
#include "baselines/wbtree.hpp"
#include "core/rntree.hpp"
#include "crash_sweep/harness.hpp"

namespace rnt::crash_sweep {

/// Structural counts come from the process-wide registry counters, which
/// every tree of a family shares: callers only ever take deltas.
inline std::uint64_t counter(const char* name) {
  return obs::Counter(name).value();
}

template <bool DualSlot>
struct RnTreeAdapter {
  using Tree = core::RNTree<Key, Value>;
  static constexpr const char* kName =
      DualSlot ? "rntree-dual" : "rntree-single";
  static constexpr bool kEvictionSafe = true;
  static constexpr bool kHasCompaction = true;
  static constexpr std::uint64_t kInsertPersists = 2;
  static constexpr std::uint64_t kUpdatePersists = 2;
  static constexpr std::uint64_t kRemovePersists = 1;
  // Leaves hold ~31 keys after sequential splits; 700 inserts make 20+
  // leaves, past the inner fanout of 16.
  static constexpr std::uint64_t kSmoPrepKeys = 700;

  static std::unique_ptr<Tree> make(nvm::PmemPool& p) {
    return std::make_unique<Tree>(p, typename Tree::Options{.dual_slot = DualSlot});
  }
  static std::unique_ptr<Tree> recover(nvm::PmemPool& p) {
    return std::make_unique<Tree>(typename Tree::recover_t{}, p,
                                  typename Tree::Options{.dual_slot = DualSlot});
  }
  static std::uint64_t splits() { return counter("tree.leaf_splits"); }
  static std::uint64_t compactions() { return counter("tree.shrink_splits"); }
  /// RNTree removes never consume a log entry, so compaction is driven by
  /// out-of-place updates: 8 live keys, then updates until the consumed-log
  /// counter fills and the low-occupancy split compacts in place.
  static Step compaction_step(std::uint64_t i) {
    if (i < 8) return Step{Step::kInsert, 5 + i * 10, 0xC000 + i};
    return Step{Step::kUpdate, 5 + (i % 8) * 10, 0xC100 + i};
  }
};

struct NvTreeAdapter {
  using Tree = baselines::NVTree<Key, Value>;
  static constexpr const char* kName = "nvtree";
  static constexpr bool kEvictionSafe = true;
  static constexpr bool kHasCompaction = true;
  static constexpr std::uint64_t kInsertPersists = 2;
  static constexpr std::uint64_t kUpdatePersists = 2;
  static constexpr std::uint64_t kRemovePersists = 2;  // remove appends too
  static constexpr std::uint64_t kSmoPrepKeys = 700;

  static std::unique_ptr<Tree> make(nvm::PmemPool& p) {
    return std::make_unique<Tree>(
        p, typename Tree::Options{.conditional_write = true});
  }
  static std::unique_ptr<Tree> recover(nvm::PmemPool& p) {
    return std::make_unique<Tree>(
        typename Tree::recover_t{}, p,
        typename Tree::Options{.conditional_write = true});
  }
  static std::uint64_t splits() { return counter("shell.splits"); }
  static std::uint64_t compactions() { return counter("shell.compactions"); }
  /// NVTree removes append log entries, so a remove CAN trigger the
  /// low-occupancy compaction: 8 live keys, then (insert fresh, remove it)
  /// pairs grow the log by one entry per op while live stays at 8.  The op
  /// that finds the log full — a remove, by the stream's parity — compacts.
  static Step compaction_step(std::uint64_t i) {
    if (i < 8) return Step{Step::kInsert, 5 + i * 10, 0xC000 + i};
    if (i % 2 == 1) return Step{Step::kInsert, 1000 + i, 0xC100 + i};
    return Step{Step::kRemove, 1000 + (i - 1), 0};
  }
};

struct WbTreeAdapter {
  using Tree = baselines::WBTree<Key, Value>;
  static constexpr const char* kName = "wbtree";
  static constexpr bool kEvictionSafe = false;  // torn slot line (DESIGN.md)
  static constexpr bool kHasCompaction = true;
  static constexpr std::uint64_t kInsertPersists = 4;
  static constexpr std::uint64_t kUpdatePersists = 4;
  static constexpr std::uint64_t kRemovePersists = 3;
  static constexpr std::uint64_t kSmoPrepKeys = 700;

  static std::unique_ptr<Tree> make(nvm::PmemPool& p) {
    return std::make_unique<Tree>(p);
  }
  static std::unique_ptr<Tree> recover(nvm::PmemPool& p) {
    return std::make_unique<Tree>(typename Tree::recover_t{}, p);
  }
  static std::uint64_t splits() { return counter("shell.splits"); }
  static std::uint64_t compactions() { return counter("shell.compactions"); }
  /// Out-of-place updates consume log entries until the log fills with 8
  /// live keys — the low-occupancy path compacts in place.
  static Step compaction_step(std::uint64_t i) {
    if (i < 8) return Step{Step::kInsert, 5 + i * 10, 0xC000 + i};
    return Step{Step::kUpdate, 5 + (i % 8) * 10, 0xC100 + i};
  }
};

struct WbTreeSoAdapter {
  using Tree = baselines::WBTreeSO<Key, Value>;
  static constexpr const char* kName = "wbtree-so";
  static constexpr bool kEvictionSafe = true;  // 8-byte atomic slot word
  static constexpr bool kHasCompaction = false;
  static constexpr std::uint64_t kInsertPersists = 2;
  static constexpr std::uint64_t kUpdatePersists = 2;
  static constexpr std::uint64_t kRemovePersists = 1;
  // 7-entry leaves: ~4 keys/leaf after sequential splits; 90 inserts make
  // 20+ leaves.
  static constexpr std::uint64_t kSmoPrepKeys = 90;

  static std::unique_ptr<Tree> make(nvm::PmemPool& p) {
    return std::make_unique<Tree>(p);
  }
  static std::unique_ptr<Tree> recover(nvm::PmemPool& p) {
    return std::make_unique<Tree>(typename Tree::recover_t{}, p);
  }
  static std::uint64_t splits() { return counter("shell.splits"); }
  static std::uint64_t compactions() { return counter("shell.compactions"); }
  /// No compaction path: the analogue is log-position reuse.  5 live keys
  /// leave 3 free positions among 8; a remove-then-reinsert cycle makes the
  /// reinsert take a position freed by the remove.  Step 12 (an odd cycle
  /// offset) reinserts the key step 11's remove just freed.
  static constexpr std::uint64_t kReuseTargetStep = 12;
  static Step compaction_step(std::uint64_t i) {
    if (i < 5) return Step{Step::kInsert, 5 + i * 10, 0xC000 + i};
    const std::uint64_t k = 5 + ((i - 5) / 2 % 5) * 10;
    if ((i - 5) % 2 == 0) return Step{Step::kRemove, k, 0};
    return Step{Step::kInsert, k, 0xC100 + i};
  }
};

struct FpTreeAdapter {
  using Tree = baselines::FPTree<Key, Value>;
  static constexpr const char* kName = "fptree";
  static constexpr bool kEvictionSafe = true;  // 8-byte atomic bitmap commit
  static constexpr bool kHasCompaction = false;
  static constexpr std::uint64_t kInsertPersists = 3;
  static constexpr std::uint64_t kUpdatePersists = 3;
  static constexpr std::uint64_t kRemovePersists = 1;
  static constexpr std::uint64_t kSmoPrepKeys = 700;

  static std::unique_ptr<Tree> make(nvm::PmemPool& p) {
    return std::make_unique<Tree>(p);
  }
  static std::unique_ptr<Tree> recover(nvm::PmemPool& p) {
    return std::make_unique<Tree>(typename Tree::recover_t{}, p);
  }
  static std::uint64_t splits() { return counter("shell.splits"); }
  static std::uint64_t compactions() { return counter("shell.compactions"); }
  /// No compaction path: the analogue is bitmap-slot reuse.  Inserts take
  /// the lowest clear bit, so reinserting after a remove reuses the freed
  /// position (new KV + fingerprint over a stale slot).  Step 15 (an odd
  /// cycle offset) reinserts the key step 14's remove just freed.
  static constexpr std::uint64_t kReuseTargetStep = 15;
  static Step compaction_step(std::uint64_t i) {
    if (i < 8) return Step{Step::kInsert, 5 + i * 10, 0xC000 + i};
    const std::uint64_t k = 5 + ((i - 8) / 2 % 8) * 10;
    if ((i - 8) % 2 == 0) return Step{Step::kRemove, k, 0};
    return Step{Step::kInsert, k, 0xC100 + i};
  }
};

}  // namespace rnt::crash_sweep
