// RNTree — the paper's contribution (S4, S5): a durable NVM B+tree that uses
// HTM-sized atomic writes to keep leaves sorted with only two persistent
// instructions per modify, overlaps persistency with concurrency by flushing
// KV entries outside the leaf critical section, and (optionally) uses the
// dual slot array so readers never block on a writer's flush while still
// providing durable linearizability.
//
// Write path (Alg 1), annotated with the paper's four steps:
//   1. allocate a log entry  — lock-free CAS on nlogs (Alg 2)
//   2. write the KV          — plain stores, no coordination needed
//   3. flush the KV          — persistent instruction #1, OUTSIDE any lock
//   4. update the metadata   — leaf spinlock; the slot array is rewritten in
//      an HTM-atomic section and flushed (persistent instruction #2), then
//      (dual-slot mode) copied to the transient slot array readers use
//
// Read path (Alg 4): traverse the volatile inner tree (wait-free snapshot),
// take a stable version (spins only across splits), snapshot the slot array
// (transient one in dual-slot mode), binary-search OUTSIDE the atomic
// section, re-validate the version.  A reader only retries if the leaf split
// (dual-slot) or a writer's publish window overlapped (single-slot).
//
// Split (Alg 3): the whole leaf is logged to this thread's persistent undo
// slot, entries are compacted into the two halves, both leaves are persisted,
// the undo is retired, and the inner tree learns the new separator
// (htmTreeUpdate).  The version-lock's splitting bit makes readers wait;
// the version bump invalidates their snapshots.  Crash recovery rolls back
// any split whose undo slot is still ACTIVE.
//
// A shrink-split (S5.2.3: fewer than half the entries live when the log area
// fills) compacts the leaf in place under the same undo protection.
#pragma once

#include <atomic>
#include <cassert>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/hints.hpp"
#include "common/status.hpp"
#include "common/thread_id.hpp"
#include "core/rn_leaf.hpp"
#include "epoch/ebr.hpp"
#include "htm/rtm.hpp"
#include "inner/inner_tree.hpp"
#include "nvm/pool.hpp"
#include "obs/heatmap.hpp"
#include "obs/metrics.hpp"
#include "obs/op_scope.hpp"
#include "obs/phase.hpp"

namespace rnt::core {

namespace detail {

// Process-wide structural counters, the only count of these events (read
// them as deltas: every RNTree instance adds to the same counters).
// Thread-sharded, so counting costs a couple of nanoseconds on the
// already-rare split/retry paths.
struct TreeCounters {
  obs::Counter leaf_splits{"tree.leaf_splits"};
  obs::Counter shrink_splits{"tree.shrink_splits"};
  obs::Counter smo{"tree.smo"};  ///< all structure modifications
  obs::Counter find_retries{"tree.find_retries"};
  obs::Counter modify_restarts{"tree.modify_restarts"};
};

inline const TreeCounters& tree_counters() {
  static TreeCounters c;
  return c;
}

/// Registry view of the recovery path (ROADMAP item 5b): how recoveries ran
/// and what they found, exported like every other counter family.
struct RecoveryCounters {
  obs::Counter runs{"recovery.runs"};
  obs::Counter parallel_runs{"recovery.parallel_runs"};
  obs::Counter workers{"recovery.workers"};  ///< summed across runs
  obs::Counter leaves{"recovery.leaves"};
  obs::Counter corrupt_leaves{"recovery.corrupt_leaves"};
  obs::Counter rollbacks{"recovery.rollbacks"};  ///< undo rollbacks applied
};

inline const RecoveryCounters& recovery_counters() {
  static RecoveryCounters c;
  return c;
}

}  // namespace detail

template <typename Key = std::uint64_t, typename Value = std::uint64_t>
class RNTree {
 public:
  using Leaf = RnLeaf<Key, Value>;
  using Entry = typename Leaf::Entry;

  struct Options {
    /// Dual slot array (the paper's RNTree+DS).  Off = readers validate
    /// against the persistent slot array's modify window instead.
    bool dual_slot = true;
    /// Pool root slot holding the leftmost-leaf offset.
    int root_slot = 0;
    /// Recovery worker threads for the per-leaf transient rebuild: 0 = auto
    /// (serial below kParallelRecoveryMinLeaves, 8 workers above), 1 =
    /// always serial, N > 1 = up to N workers.
    int recovery_workers = 0;
  };

  /// Auto-mode recovery stays serial below this many leaves: thread spawn
  /// overhead beats the rebuild cost, and tiny-tree recoveries (tests,
  /// crash sweeps) stay deterministic single-threaded.
  static constexpr std::size_t kParallelRecoveryMinLeaves = 1024;

  /// Create a fresh tree in @p pool.
  RNTree(nvm::PmemPool& pool, Options opt = {})
      : pool_(pool), opt_(opt), inner_(epochs_) {
    // Dirty-flag protocol: the clean flag must be cleared (and durable)
    // strictly before the first pool mutation, so a crash mid-construction
    // is always routed down the crash-recovery path.
    pool_.mark_dirty();
    const std::uint64_t off = pool_.alloc(sizeof(Leaf));
    if (off == 0) throw std::bad_alloc();
    Leaf* leaf = pool_.ptr<Leaf>(off);
    leaf->init();
    nvm::on_modified(leaf, sizeof(Leaf));
    nvm::persist(leaf, sizeof(Leaf));
    pool_.set_root(opt.root_slot, off);
    inner_.init_single(leaf);
  }

  /// Recover a tree from @p pool: reconstruction after a clean shutdown,
  /// full crash recovery (undo processing + counter rebuild) otherwise.
  /// Throws std::runtime_error("RNTree::recover: <detail>") when the
  /// persistent state is inconsistent.
  struct recover_t {};
  RNTree(recover_t, nvm::PmemPool& pool, Options opt = {})
      : RNTree(recover_t{}, pool, begin_recovery(pool), opt) {
    if (!recovery_status_.ok())
      throw std::runtime_error(std::string("RNTree::recover: ") +
                               recovery_detail_);
  }

  /// Recover with an externally sampled shutdown state.  A multi-tree pool
  /// owner (ShardedTree) must sample clean_shutdown() ONCE and mark the pool
  /// dirty ONCE before recovering each member tree — otherwise the first
  /// member's mark_dirty() would force every later member down the crash
  /// path.  The caller owns the dirty/clean flag protocol.  Does not throw
  /// on corruption: the outcome is in recovery_status().
  RNTree(recover_t, nvm::PmemPool& pool, bool crashed, Options opt)
      : pool_(pool), opt_(opt), inner_(epochs_) {
    recovery_status_ = recover_status(crashed);
  }

  /// Non-throwing recovery surface (the structured-Status contract of the
  /// pool-exhaustion work): returns the recovered tree, or nullptr with
  /// @p status = kCorrupted — recovery_detail() names the corruption shape
  /// — when the persistent state is inconsistent (no leaves, broken
  /// high_key chain, torn leaf metadata).  Owns the dirty-flag protocol
  /// like the recover_t ctor.
  static std::unique_ptr<RNTree> recover_checked(nvm::PmemPool& pool,
                                                 common::Status& status,
                                                 Options opt = {}) {
    std::unique_ptr<RNTree> t(
        new RNTree(recover_t{}, pool, begin_recovery(pool), opt));
    status = t->recovery_status_;
    if (!status.ok()) return nullptr;
    return t;
  }

  /// Outcome of the recovery that built this tree (ok for a fresh tree).
  common::Status recovery_status() const noexcept { return recovery_status_; }

  /// Human-readable corruption shape from the last (checked) recovery;
  /// empty when recovery succeeded.
  const char* recovery_detail() const noexcept { return recovery_detail_; }

  RNTree(const RNTree&) = delete;
  RNTree& operator=(const RNTree&) = delete;

  /// Flush volatile leaf counters and mark the pool clean so the next open
  /// takes the fast reconstruction path.
  void close() {
    flush_headers();
    pool_.close_clean();
  }

  /// Persist every leaf's header line (plogs/nlogs) without touching the
  /// pool's clean flag.  ShardedTree flushes ALL member trees first and only
  /// then marks the shared pool clean, so a crash between two members' header
  /// flushes still reads as dirty.
  void flush_headers() {
    // plogs/nlogs live in the header line; persisting it makes the clean
    // path's trust in them sound.
    for (Leaf* leaf = leftmost(); leaf != nullptr; leaf = next_leaf(leaf)) {
      nvm::on_modified(leaf, kCacheLineSize);
      nvm::persist(leaf, kCacheLineSize);
    }
  }

  // ------------------------------------------------------------------
  // Basic operations
  // ------------------------------------------------------------------

  // Write operations return common::Status.  Status converts to bool with
  // the legacy meaning (true iff the op applied), so `if (t.insert(k, v))`
  // call sites are unchanged; code() additionally distinguishes a failed
  // precondition (kKeyExists/kKeyAbsent) from kPoolExhausted — the pool has
  // no room for a required leaf split and the op left the tree untouched.

  /// Conditional insert: fails (kKeyExists) if the key already exists.
  common::Status insert(Key k, Value v) { return modify(k, v, Mode::kInsert); }

  /// Conditional update: fails (kKeyAbsent) if the key does not exist.
  common::Status update(Key k, Value v) { return modify(k, v, Mode::kUpdate); }

  /// Unconditional insert-or-update (can still fail with kPoolExhausted).
  common::Status upsert(Key k, Value v) { return modify(k, v, Mode::kUpsert); }

  /// Remove; returns false if the key was absent.  A single persistent
  /// instruction (the slot-array flush) — no log entry is consumed.
  bool remove(Key k) {
    obs::OpScope op(obs::OpKind::kRemove, k);
    for (;;) {
      epoch::Guard g = epochs_.pin();
      Leaf* leaf = inner_.find_leaf(k);
      leaf = chase(leaf, k);
      prefetch_range(leaf, sizeof(Leaf));
      {
        obs::PhaseTimer pt(obs::Phase::kLockWait);
        leaf->vlock.lock();
      }
      if (!covers(leaf, k)) {
        leaf->vlock.unlock();
        detail::tree_counters().modify_restarts.inc();
        continue;
      }
      op.leaf(pool_.off(leaf));
      // Under the lock pslot and fps are quiescent and position-parallel:
      // probe them in place, no binary search.
      const int pos = slot_fp_find(leaf->pslot, leaf->fps, leaf->logs, k);
      if (pos < 0) {
        leaf->vlock.unlock();
        return op.finish(false);
      }
      alignas(kCacheLineSize) std::uint8_t snew[kCacheLineSize];
      alignas(kCacheLineSize) std::uint8_t fnew[kCacheLineSize];
      std::memcpy(snew, leaf->pslot, kCacheLineSize);
      std::memcpy(fnew, leaf->fps, kCacheLineSize);
      slot_fp_remove_at(snew, fnew, pos);
      publish_slot(leaf, snew, fnew);
      size_.fetch_sub(1, std::memory_order_relaxed);
      leaf->vlock.unlock();
      return op.finish(true);
    }
  }

  /// Point lookup (Alg 4).  The snapshot's fingerprint line filters slot
  /// positions branch-free before any full key is touched: a miss usually
  /// costs zero key loads, a hit one (false positives are verified through
  /// the indirection, so they only cost an extra load).
  RNT_NO_SANITIZE_THREAD std::optional<Value> find(Key k) const {
    obs::OpScope op(obs::OpKind::kFind, k);
    epoch::Guard g = epochs_.pin();
    for (;;) {
      Leaf* leaf = inner_.find_leaf(k);
      // Overlap the metadata lines' fetch (header + slot + fingerprints)
      // with the version read; matched KV lines are fetched on demand —
      // the fingerprint filter touches at most a couple of them.
      prefetch_range(leaf, 4 * kCacheLineSize);
      for (;;) {
        const std::uint64_t v = leaf->vlock.stable_version();
        if (beyond(leaf, k)) {
          Leaf* nxt = pool_.ptr<Leaf>(leaf->next.load(std::memory_order_acquire));
          if (leaf->vlock.stable_version() != v || nxt == nullptr) break;  // re-traverse
          leaf = nxt;
          continue;
        }
        alignas(kCacheLineSize) std::uint8_t snap[2 * kCacheLineSize];
        if (!snapshot_slot(leaf, snap)) {
          detail::tree_counters().find_retries.inc();
          continue;
        }
        const int pos = slot_fp_find(snap, snap + kCacheLineSize, leaf->logs, k);
        std::optional<Value> res;
        if (pos >= 0) {
          // Copy into a local before constructing the optional: the ctor is
          // an out-of-line template instantiation, and handing it a reference
          // into the (racy, validated-below) log line would put the shared
          // read outside this function's RNT_NO_SANITIZE_THREAD scope.
          const Value val = leaf->logs[snap[1 + pos]].value;
          res = val;
        }
        if (leaf->vlock.stable_version() != v) {
          detail::tree_counters().find_retries.inc();
          continue;  // split raced; snapshot may index rewritten logs
        }
        op.leaf(pool_.off(leaf));
        op.finish(res.has_value());
        return res;
      }
    }
  }

  /// Leaf-at-a-time range cursor (S5.2.4): the one way every scan reads
  /// leaves.  The constructor pins the epoch for the cursor's lifetime (so a
  /// Leaf* held between next() calls stays valid), descends once and
  /// prefetches the leaf it lands on, so a caller opening several cursors
  /// overlaps their leaf fetches.  next() B-link-chases to the leaf covering
  /// start, then walks the persistent next chain one validated leaf snapshot
  /// at a time.  Atomic per leaf, not across leaves.
  class Cursor {
   public:
    Cursor(const RNTree& t, Key start)
        : t_(&t), g_(t.epochs_.pin()), start_(start), leaf_(t.inner_.find_leaf(start)) {
      prefetch_range(leaf_, sizeof(Leaf));
    }

    /// Pool offset of the leaf the descent landed on (the scan's leaf).
    std::uint64_t leaf_off() const noexcept { return t_->pool_.off(leaf_); }

    /// Copy the next non-empty leaf's entries (ascending; only keys >=
    /// start on the first leaf) into @p out, which has room for
    /// Leaf::kLogCap.  Returns how many; 0 once the chain is exhausted.
    RNT_NO_SANITIZE_THREAD int next(Entry* out) {
      while (leaf_ != nullptr) {
        Leaf* leaf = leaf_;
        const std::uint64_t v = leaf->vlock.stable_version();
        if (first_ && beyond(leaf, start_)) {  // split moved start rightwards
          Leaf* nxt = t_->next_leaf(leaf);
          if (leaf->vlock.stable_version() == v && nxt != nullptr) leaf_ = nxt;
          continue;
        }
        alignas(kCacheLineSize) std::uint8_t snap[2 * kCacheLineSize];
        if (!t_->snapshot_slot(leaf, snap)) continue;
        const int from = first_ ? slot_lower_bound(snap, leaf->logs, start_) : 0;
        int n = 0;
        for (int i = from; i < snap[0]; ++i) out[n++] = leaf->logs[snap[1 + i]];
        Leaf* nxt = t_->next_leaf(leaf);
        if (leaf->vlock.stable_version() != v) continue;  // split raced: redo leaf
        if (nxt != nullptr) prefetch_range(nxt, sizeof(Leaf));
        // Heat every visited leaf beyond the first (the op's own key heated
        // that one), so a long scan heats the whole range it reads.
        if (!first_ && n > 0) obs::heatmap_record_at(out[0].key, obs::HeatCause::kOp);
        first_ = false;
        leaf_ = nxt;
        if (n > 0) return n;
      }
      return 0;
    }

    /// Feed entries to @p fn (counting them in @p visited) until it returns
    /// false (-> false) or the chain ends (-> true).
    template <typename Fn>
    bool drain(Fn& fn, std::size_t& visited) {
      Entry buf[Leaf::kLogCap];
      while (const int n = next(buf)) {
        for (int i = 0; i < n; ++i) {
          ++visited;
          if (!fn(buf[i].key, buf[i].value)) return false;
        }
      }
      return true;
    }

   private:
    const RNTree* t_;
    epoch::Guard g_;
    Key start_;
    Leaf* leaf_;
    bool first_ = true;
  };

  /// Range query (S5.2.4): visit entries with key >= @p start in ascending
  /// order until @p fn returns false.  fn(key, value) -> bool (continue?).
  /// Per-leaf atomic snapshots; the scan as a whole follows the persistent
  /// next chain exactly as the paper describes.
  template <typename Fn>
  std::size_t scan(Key start, Fn&& fn) const {
    obs::OpScope op(obs::OpKind::kScan, start);
    Cursor c(*this, start);
    op.leaf(c.leaf_off());
    std::size_t visited = 0;
    c.drain(fn, visited);
    op.finish(visited > 0);
    return visited;
  }

  /// Convenience: collect up to @p n entries starting at @p start.
  std::size_t scan_n(Key start, std::size_t n,
                     std::vector<std::pair<Key, Value>>& out) const {
    out.clear();
    out.reserve(n);
    scan(start, [&](Key k, Value v) {
      out.emplace_back(k, v);
      return out.size() < n;
    });
    return out.size();
  }

  /// Approximate number of live keys (exact when quiescent).
  std::size_t size() const noexcept {
    return static_cast<std::size_t>(size_.load(std::memory_order_relaxed));
  }

  bool dual_slot() const noexcept { return opt_.dual_slot; }
  int height() const noexcept { return inner_.height(); }

  /// Number of leaves (walks the chain; diagnostics).
  std::size_t leaf_count() const {
    std::size_t n = 0;
    for (Leaf* l = leftmost(); l != nullptr; l = next_leaf(l)) ++n;
    return n;
  }

  // ------------------------------------------------------------------
  // Structural introspection (obs/struct_audit.hpp)
  // ------------------------------------------------------------------

  /// Capacities the structural auditor normalises fill factors against.
  static constexpr int slot_capacity() noexcept {
    return static_cast<int>(kSlotCap);
  }
  static constexpr int log_capacity() noexcept {
    return static_cast<int>(Leaf::kLogCap);
  }
  static constexpr int inner_fanout() noexcept {
    return inner::InnerTree<Key, Leaf>::kFanout;
  }

  /// Epoch-safe read-only walk of the volatile inner tree: fn(level,
  /// separator_count) per node.  Safe concurrently with writers — the
  /// inner tree is COW and the guard keeps the snapshot's nodes alive.
  template <typename Fn>
  void visit_inner(Fn&& fn) const {
    epoch::Guard g = epochs_.pin();
    inner_.for_each_node(fn);
  }

  /// Epoch-safe walk of the persistent leaf chain: fn(live_entries,
  /// allocated_log_entries) per leaf.  Reads are relaxed snapshots —
  /// counts are approximate under concurrent writers, exact quiescent.
  template <typename Fn>
  void visit_leaves(Fn&& fn) const {
    epoch::Guard g = epochs_.pin();
    for (Leaf* l = leftmost(); l != nullptr; l = next_leaf(l))
      fn(static_cast<int>(l->pslot[0]),
         l->nlogs.load(std::memory_order_relaxed));
  }

  /// Validate structural invariants (tests): per-leaf sortedness/uniqueness,
  /// chain ordering against high_key, and slot indices within nlogs.
  /// Single-threaded use only.  Throws std::logic_error on violation.
  void check_invariants() const {
    Key prev{};
    bool have_prev = false;
    for (Leaf* l = leftmost(); l != nullptr; l = next_leaf(l)) {
      const int count = l->pslot[0];
      if (count > static_cast<int>(kSlotCap))
        throw std::logic_error("slot count exceeds capacity");
      const std::uint32_t nlogs = l->nlogs.load(std::memory_order_relaxed);
      std::uint64_t seen_idx = 0;
      for (int i = 0; i < count; ++i) {
        const std::uint32_t idx = l->pslot[1 + i];
        if (idx >= Leaf::kLogCap)
          throw std::logic_error("slot index beyond log capacity");
        if (idx >= nlogs)
          throw std::logic_error("slot index beyond allocated log entries");
        if ((seen_idx >> idx) & 1)
          throw std::logic_error("duplicate log index in slot array");
        seen_idx |= std::uint64_t{1} << idx;
        if (l->fps[i] != key_fp(l->logs[idx].key))
          throw std::logic_error("stale fingerprint at slot position");
        const Key k = l->logs[idx].key;
        if (have_prev && !(prev < k))
          throw std::logic_error("keys not strictly increasing");
        prev = k;
        have_prev = true;
        if (l->has_high.load(std::memory_order_relaxed) != 0 &&
            !(k < l->high_key.load(std::memory_order_relaxed)))
          throw std::logic_error("key at/above leaf high_key");
      }
    }
  }

 private:
  enum class Mode { kInsert, kUpdate, kUpsert };

  static constexpr std::uint32_t kNoEntry = ~0u;

  Leaf* leftmost() const noexcept {
    return pool_.ptr<Leaf>(pool_.root(opt_.root_slot));
  }
  Leaf* next_leaf(Leaf* l) const noexcept {
    return pool_.ptr<Leaf>(l->next.load(std::memory_order_acquire));
  }

  /// k is at/above this leaf's high bound (belongs to a right sibling).
  static bool beyond(const Leaf* leaf, Key k) noexcept {
    return leaf->has_high.load(std::memory_order_acquire) != 0 &&
           !(k < leaf->high_key.load(std::memory_order_acquire));
  }
  /// Under the leaf lock: leaf still covers k.
  static bool covers(const Leaf* leaf, Key k) noexcept { return !beyond(leaf, k); }

  /// B-link chase: follow next links until the leaf's range covers k.
  Leaf* chase(Leaf* leaf, Key k) const {
    for (;;) {
      const std::uint64_t v = leaf->vlock.stable_version();
      if (!beyond(leaf, k)) return leaf;
      Leaf* nxt = pool_.ptr<Leaf>(leaf->next.load(std::memory_order_acquire));
      if (leaf->vlock.stable_version() != v || nxt == nullptr) continue;
      leaf = nxt;
    }
  }

  /// Alg 2: lock-free log-entry allocation.  Returns kNoEntry when full.
  static std::uint32_t allocate_entry(Leaf* leaf) noexcept {
    std::uint32_t e = leaf->nlogs.load(std::memory_order_relaxed);
    for (;;) {
      if (e >= Leaf::kLogCap) return kNoEntry;
      if (leaf->nlogs.compare_exchange_weak(e, e + 1, std::memory_order_acq_rel,
                                            std::memory_order_relaxed))
        return e;
    }
  }

  /// Live-entry count read without the leaf lock: a relaxed load racing by
  /// design with the slot line's plain stores (a sizing hint only).  The
  /// builtin rather than std::atomic_ref, whose out-of-line load TSan would
  /// still instrument inside this RNT_NO_SANITIZE_THREAD scope.
  RNT_NO_SANITIZE_THREAD static std::uint8_t racy_live_count(
      const Leaf* leaf) noexcept {
    return __atomic_load_n(&leaf->pslot[0], __ATOMIC_RELAXED);
  }

  /// Publish a new slot-array image: HTM-atomic store of the full cache
  /// line, then the flush (persistent instruction #2).  In single-slot mode
  /// the reader-visible window (mseq) must include the flush so a reader
  /// can never return data whose slot array is not yet durable — this is
  /// the read-uncommitted anomaly the paper closes; in dual-slot mode the
  /// readers' window is only the transient-array copy below.  The transient
  /// fingerprint line is rewritten inside the same reader-visible window as
  /// the slot array it mirrors (plain stores: it is never persisted).
  void publish_slot(Leaf* leaf, const std::uint8_t* snew,
                    const std::uint8_t* fnew) {
    // fnew == leaf->fps means "fingerprints unchanged" (an in-place value
    // update re-points a slot at a new log entry for the same key): skip the
    // self-copy but keep the seqlock windows identical.
    if (!opt_.dual_slot) leaf->mseq.write_begin();
    // The leaf version lock (held here) excludes every other writer of the
    // slot line — publishes, splits, compactions — so the transaction needs
    // no fallback lock of its own: it only makes the line's store atomic
    // with respect to crashes.  The persist stays OUTSIDE the transaction
    // (a flush inside an RTM transaction aborts it; the shadow asserts the
    // equivalent).
    htm::atomic_exec(nullptr, [&]() {
      nvm::copy_nvm(leaf->pslot, snew, kCacheLineSize);
    });
    // The slot line IS the op's durable commit point (the KV entry was
    // persisted before the lock), so this flush — and only this flush — may
    // defer its fence to a group-persistency batch barrier: a crash mid-batch
    // loses whole unacknowledged ops, never tears one.  Outside a
    // nvm::BatchScope this is a plain persist().
    nvm::persist_batchable(leaf->pslot, kCacheLineSize);
    if (!opt_.dual_slot) {
      if (fnew != leaf->fps) std::memcpy(leaf->fps, fnew, kCacheLineSize);
      leaf->mseq.write_end();
    } else {
      // htmLeafCopySlot: publish to the transient array readers use.
      leaf->tseq.write_begin();
      std::memcpy(leaf->tslot, leaf->pslot, kCacheLineSize);
      if (fnew != leaf->fps) std::memcpy(leaf->fps, fnew, kCacheLineSize);
      leaf->tseq.write_end();
    }
  }

  /// htmLeafSnapshot: consistent copy of the reader-visible slot array AND
  /// its fingerprint line.  @p out receives 2 cache lines: the slot array
  /// at out[0..63] and the position-parallel fingerprints at out[64..127].
  /// Readers race with publish_slot by design (seqlock validation discards
  /// torn copies), so the whole read side is RNT_NO_SANITIZE_THREAD —
  /// see common/hints.hpp.
  RNT_NO_SANITIZE_THREAD bool snapshot_slot(const Leaf* leaf,
                                            std::uint8_t* out) const {
    if (opt_.dual_slot) {
      // tslot and fps are adjacent lines: one contiguous 128-byte copy.
      const std::uint32_t s = leaf->tseq.read_begin();
      racy_copy(out, leaf->tslot, 2 * kCacheLineSize);
      return leaf->tseq.read_validate(s);
    }
    const std::uint32_t s = leaf->mseq.read_begin();
    racy_copy(out, leaf->pslot, kCacheLineSize);
    racy_copy(out + kCacheLineSize, leaf->fps, kCacheLineSize);
    return leaf->mseq.read_validate(s);
  }

  /// RAII release of the in-flight-writer ref (exception-safe: an injected
  /// CrashPoint must not leave the quiesce counter pinned).
  struct WriterRef {
    Leaf* leaf = nullptr;
    ~WriterRef() { release(); }
    void release() noexcept {
      if (leaf != nullptr) {
        leaf->writers.fetch_sub(1, std::memory_order_release);
        leaf = nullptr;
      }
    }
  };

  common::Status modify(Key k, Value v, Mode mode) {
    obs::OpScope op(mode == Mode::kInsert   ? obs::OpKind::kInsert
                    : mode == Mode::kUpdate ? obs::OpKind::kUpdate
                                            : obs::OpKind::kUpsert,
                    k);
    for (;;) {
      epoch::Guard g = epochs_.pin();
      Leaf* leaf = inner_.find_leaf(k);
      leaf = chase(leaf, k);
      prefetch_range(leaf, sizeof(Leaf));  // overlap fetch with the KV flush
      const std::uint64_t ver = leaf->vlock.stable_version();

      // Pre-flight reservation: when this op is likely to fill the leaf and
      // trigger a real split, secure the sibling's space BEFORE taking the
      // lock or publishing anything, so an exhausted pool is discovered
      // while backing out costs nothing.  nlogs and the live count are racy
      // hints (a leaf at least half live splits for real; below that it
      // compacts in place and needs no block); if they under-estimate,
      // split_locked falls back to allocating under the lock — still before
      // any mutation.  An unconsumed reservation returns its block on every
      // loop exit.
      nvm::PmemPool::Reservation res;
      if (leaf->nlogs.load(std::memory_order_relaxed) >= Leaf::kLogCap - 2 &&
          racy_live_count(leaf) >= kSlotCap / 2)
        res = pool_.reserve(sizeof(Leaf));

      // Announce this in-flight log write so a concurrent split quiesces
      // before reusing log indices.  seq_cst pairs with the splitter's
      // set_split + writers scan (Dekker: one of us must see the other).
      leaf->writers.fetch_add(1, std::memory_order_seq_cst);
      WriterRef wref{leaf};
      if (htm::VersionLock::splitting(leaf->vlock.raw())) {
        wref.release();
        detail::tree_counters().modify_restarts.inc();
        continue;
      }

      // Step 1 (concurrency): allocate a log entry lock-free.
      const std::uint32_t e = allocate_entry(leaf);
      if (e == kNoEntry) {
        wref.release();
        const common::Status fs = force_split(leaf, &res);
        if (fs.pool_exhausted()) {
          // The log area is full, the leaf is mostly live (compaction does
          // not apply), and there is no room for a sibling: the op cannot
          // proceed.  Nothing was mutated — fail cleanly instead of
          // spinning on a split that can never happen.
          op.finish(false);
          return fs;
        }
        detail::tree_counters().modify_restarts.inc();
        continue;
      }
      // Step 2 (no coordination): write the KV.
      nvm::store(leaf->logs[e], Entry{k, v});
      // Step 3 (persistency): flush it — outside the critical section, so
      // concurrent writers to the same leaf flush in parallel.
      nvm::persist(&leaf->logs[e], sizeof(Entry));
      wref.release();

      // Step 4 (concurrency): take the leaf lock, make the entry reachable.
      op.leaf(pool_.off(leaf));
      {
        obs::PhaseTimer pt(obs::Phase::kLockWait);
        leaf->vlock.lock();
      }
      if ((leaf->vlock.raw() & htm::VersionLock::kVersionMask) !=
              (ver & htm::VersionLock::kVersionMask) ||
          !covers(leaf, k)) {
        // A split raced us: our log entry may have been compacted over.
        // Abandon it (the slot array never pointed at it) and retry.
        leaf->vlock.unlock();
        detail::tree_counters().modify_restarts.inc();
        continue;
      }

      // Exact-match probe through the fingerprint line first: updates and
      // conditional failures resolve with no binary search; only an insert
      // of a fresh key pays the lower_bound for its sorted position.
      int pos = slot_fp_find(leaf->pslot, leaf->fps, leaf->logs, k);
      const bool exists = pos >= 0;
      if ((mode == Mode::kInsert && exists) ||
          (mode == Mode::kUpdate && !exists)) {
        // Conditional write fails with no extra cost: the slot array told
        // us (the paper's S3.3 argument) — the allocated entry is leaked
        // until the next compaction.  A failed (exhausted) split here is
        // deferred: the op's own outcome is unaffected and the full leaf
        // stays valid until space frees up.
        leaf->plogs++;
        const bool full = leaf->plogs >= Leaf::kLogCap - 1;
        if (full) (void)split_locked(leaf, &res);
        leaf->vlock.unlock();
        op.finish(false);
        return mode == Mode::kInsert ? common::StatusCode::kKeyExists
                                     : common::StatusCode::kKeyAbsent;
      }
      if (!exists && leaf->pslot[0] >= kSlotCap) {
        // An earlier split was deferred by exhaustion and the slot line is
        // at capacity: publishing one more entry would overflow it.  The
        // publish-then-split order must invert here — split first, and if
        // space still cannot be found, refuse the insert (our log entry is
        // abandoned, reclaimed by the next compaction like any leaked one).
        const common::Status ss = split_locked(leaf, &res);
        leaf->vlock.unlock();
        if (ss.pool_exhausted()) {
          op.finish(false);
          return ss;
        }
        detail::tree_counters().modify_restarts.inc();
        continue;  // the split bumped the version: re-locate and retry
      }
      alignas(kCacheLineSize) std::uint8_t snew[kCacheLineSize];
      alignas(kCacheLineSize) std::uint8_t fnew[kCacheLineSize];
      std::memcpy(snew, leaf->pslot, kCacheLineSize);
      const std::uint8_t* fpub = leaf->fps;  // update: same key, same fps
      if (exists) {
        snew[1 + pos] = static_cast<std::uint8_t>(e);  // update: re-point slot
      } else {
        std::memcpy(fnew, leaf->fps, kCacheLineSize);
        pos = slot_lower_bound(snew, leaf->logs, k);
        slot_fp_insert_at(snew, fnew, pos, static_cast<std::uint8_t>(e),
                          key_fp(k));
        fpub = fnew;
      }
      publish_slot(leaf, snew, fpub);
      leaf->plogs++;
      if (!exists) size_.fetch_add(1, std::memory_order_relaxed);
      // The op itself is already durable and acknowledged; an exhausted
      // split is deferred, not an error.
      if (leaf->plogs >= Leaf::kLogCap - 1 || snew[0] >= kSlotCap)
        (void)split_locked(leaf, &res);
      leaf->vlock.unlock();
      op.finish(true);
      return common::OkStatus();
    }
  }

  /// The log area filled before plogs hit the threshold (entries leaked by
  /// races/conditional failures): split under the lock, then retry.
  common::Status force_split(Leaf* leaf, nvm::PmemPool::Reservation* res) {
    common::Status s = common::OkStatus();
    {
      obs::PhaseTimer pt(obs::Phase::kLockWait);
      leaf->vlock.lock();
    }
    if (leaf->nlogs.load(std::memory_order_relaxed) >= Leaf::kLogCap)
      s = split_locked(leaf, res);
    leaf->vlock.unlock();
    return s;
  }

  /// Alg 3 + the shrink variant.  Caller holds the leaf lock.  Returns
  /// kPoolExhausted — with the leaf untouched and still valid — when a real
  /// split is needed but no sibling can be allocated; the shrink variant
  /// needs no allocation and always succeeds.
  common::Status split_locked(Leaf* leaf,
                              nvm::PmemPool::Reservation* res = nullptr) {
    obs::PhaseTimer pt(obs::Phase::kSmo);
    const int live = leaf->pslot[0];
    if (live < static_cast<int>(kSlotCap) / 2) {
      compact_locked(leaf);
      return common::OkStatus();
    }
    // Secure the sibling's space first — from the caller's pre-flight
    // reservation when it holds one, else a direct allocation — so failure
    // happens before the splitting bit, the quiesce, or any mutation.
    const std::uint64_t new_off = (res != nullptr && res->valid())
                                      ? res->consume()
                                      : pool_.alloc(sizeof(Leaf));
    if (new_off == 0) return common::StatusCode::kPoolExhausted;
    detail::tree_counters().leaf_splits.inc();
    detail::tree_counters().smo.inc();
    leaf->vlock.set_split();
    quiesce_writers(leaf);

    // Log the whole leaf to this thread's persistent undo slot.
    nvm::UndoSlot& undo = pool_.undo_slot(pmem_thread_id());
    begin_undo(undo, leaf, new_off);
    const Leaf* src = reinterpret_cast<const Leaf*>(undo.data);

    Leaf* nl = pool_.ptr<Leaf>(new_off);
    nl->init();
    const int split = live / 2;
    const Key split_key = src->logs[src->pslot[1 + split]].key;

    // Right half: entries [split, live) compacted into the new leaf.
    for (int i = split; i < live; ++i)
      nl->logs[i - split] = src->logs[src->pslot[1 + i]];
    nl->pslot[0] = static_cast<std::uint8_t>(live - split);
    for (int i = 0; i < live - split; ++i)
      nl->pslot[1 + i] = static_cast<std::uint8_t>(i);
    nl->next.store(src->next.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    nl->high_key.store(src->high_key.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    nl->has_high.store(src->has_high.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    nl->nlogs.store(static_cast<std::uint32_t>(live - split),
                    std::memory_order_relaxed);
    nl->plogs = static_cast<std::uint32_t>(live - split);
    std::memcpy(nl->tslot, nl->pslot, kCacheLineSize);
    slot_fp_rebuild(nl->pslot, nl->fps, nl->logs);
    nvm::on_modified(nl, sizeof(Leaf));
    nvm::persist(nl, sizeof(Leaf));

    // Left half: compact in place from the undo image; readers are held off
    // by the splitting bit, crash rolls the whole leaf back from the undo.
    for (int i = 0; i < split; ++i) {
      nvm::store(leaf->logs[i], src->logs[src->pslot[1 + i]]);
      leaf->pslot[1 + i] = static_cast<std::uint8_t>(i);
    }
    leaf->pslot[0] = static_cast<std::uint8_t>(split);
    nvm::on_modified(leaf->pslot, kCacheLineSize);
    leaf->next.store(new_off, std::memory_order_relaxed);
    leaf->high_key.store(split_key, std::memory_order_relaxed);
    leaf->has_high.store(1, std::memory_order_relaxed);
    nvm::on_modified(leaf, kCacheLineSize);  // header line
    leaf->nlogs.store(static_cast<std::uint32_t>(split), std::memory_order_relaxed);
    leaf->plogs = static_cast<std::uint32_t>(split);
    nvm::persist(leaf, sizeof(Leaf));
    leaf->tseq.write_begin();
    std::memcpy(leaf->tslot, leaf->pslot, kCacheLineSize);
    slot_fp_rebuild(leaf->pslot, leaf->fps, leaf->logs);
    leaf->tseq.write_end();

    // The split is durable; retire the undo BEFORE making the new leaf
    // reachable to other writers, so recovery can never roll back state
    // that others have built upon.
    end_undo(undo);

    leaf->vlock.unset_split_and_bump();
    inner_.insert_split(split_key, leaf, nl);
    return common::OkStatus();
  }

  /// Shrink-split: obsolete log entries dominate; compact in place.
  /// (kSmo attribution comes from split_locked, its only caller.)
  void compact_locked(Leaf* leaf) {
    detail::tree_counters().shrink_splits.inc();
    detail::tree_counters().smo.inc();
    leaf->vlock.set_split();
    quiesce_writers(leaf);
    nvm::UndoSlot& undo = pool_.undo_slot(pmem_thread_id());
    begin_undo(undo, leaf, 0);
    const Leaf* src = reinterpret_cast<const Leaf*>(undo.data);
    const int live = src->pslot[0];
    for (int i = 0; i < live; ++i) {
      nvm::store(leaf->logs[i], src->logs[src->pslot[1 + i]]);
      leaf->pslot[1 + i] = static_cast<std::uint8_t>(i);
    }
    leaf->pslot[0] = static_cast<std::uint8_t>(live);
    nvm::on_modified(leaf->pslot, kCacheLineSize);
    leaf->nlogs.store(static_cast<std::uint32_t>(live), std::memory_order_relaxed);
    leaf->plogs = static_cast<std::uint32_t>(live);
    nvm::on_modified(leaf, kCacheLineSize);
    nvm::persist(leaf, sizeof(Leaf));
    leaf->tseq.write_begin();
    std::memcpy(leaf->tslot, leaf->pslot, kCacheLineSize);
    slot_fp_rebuild(leaf->pslot, leaf->fps, leaf->logs);
    leaf->tseq.write_end();
    end_undo(undo);
    leaf->vlock.unset_split_and_bump();
  }

  /// Wait until no in-flight log writes remain.  Called with the lock held
  /// and the splitting bit set: new writers observe the bit (seq_cst pairing
  /// with their fetch_add) and back off, so this terminates.
  static void quiesce_writers(Leaf* leaf) noexcept {
    Backoff bo;
    while (leaf->writers.load(std::memory_order_seq_cst) != 0) bo.pause();
  }

  void begin_undo(nvm::UndoSlot& undo, Leaf* leaf, std::uint64_t aux_off) {
    static_assert(sizeof(Leaf) <= nvm::UndoSlot::kDataSize);
    nvm::copy_nvm(undo.data, leaf, sizeof(Leaf));
    nvm::store(undo.target_off, pool_.off(leaf));
    nvm::store(undo.aux_off, aux_off);
    nvm::store(undo.data_size, std::uint64_t{sizeof(Leaf)});
    nvm::persist(&undo, sizeof(undo));
    nvm::store(undo.state, std::uint64_t{nvm::UndoSlot::kActive});
    nvm::persist(&undo.state, sizeof(undo.state));
  }

  void end_undo(nvm::UndoSlot& undo) {
    nvm::store(undo.state, std::uint64_t{nvm::UndoSlot::kIdle});
    nvm::persist(&undo.state, sizeof(undo.state));
  }

  // ------------------------------------------------------------------
  // Recovery (S5.4)
  // ------------------------------------------------------------------

  /// Capture the shutdown state, then clear the clean flag *before* any
  /// recovery-time NVM mutation (undo rollback) — see fresh ctor.
  static bool begin_recovery(nvm::PmemPool& pool) {
    const bool crashed = !pool.clean_shutdown();
    pool.mark_dirty();
    return crashed;
  }

  common::Status fail_recovery(const char* detail) {
    recovery_detail_ = detail;
    return common::StatusCode::kCorrupted;
  }

  /// Per-leaf transient rebuild.  ALL volatile header fields must be
  /// re-initialised: a crash rewinds the header cache line to its durable
  /// image, which can leave the seqlocks odd (readers would spin forever)
  /// or the writer-quiesce counter nonzero (splits would never proceed).
  /// Pure volatile-side repair — no NVM events — so recovery workers run it
  /// concurrently on disjoint leaves.  Returns false when the persistent
  /// slot metadata is torn (live count or log index out of range),
  /// validated BEFORE slot_fp_rebuild dereferences the indices.
  bool repair_leaf(Leaf* leaf, bool crashed) {
    leaf->vlock.reset();
    leaf->mseq.reset();
    leaf->tseq.reset();
    leaf->writers.store(0, std::memory_order_relaxed);
    const int count = leaf->pslot[0];
    if (count > static_cast<int>(kSlotCap)) return false;
    std::uint32_t max_idx = 0;
    for (int i = 0; i < count; ++i) {
      const std::uint8_t idx = leaf->pslot[1 + i];
      if (idx >= Leaf::kLogCap) return false;
      max_idx = std::max<std::uint32_t>(max_idx, idx);
    }
    if (crashed) {
      // nlogs/plogs are not crash-consistent: recompute from the slot
      // array — "scan the slot array to find the max index of log
      // entries" (S6.2.6).  Unreferenced tail entries are reclaimed for
      // free: the next allocation may overwrite them.
      const std::uint32_t n = count == 0 ? 0 : max_idx + 1;
      leaf->nlogs.store(n, std::memory_order_relaxed);
      leaf->plogs = n;
    }
    // else: the clean-shutdown path trusts the persisted header counters.
    std::memcpy(leaf->tslot, leaf->pslot, kCacheLineSize);
    // The fingerprint line is transient: always rebuilt from the
    // persistent slot array, clean shutdown or not.
    slot_fp_rebuild(leaf->pslot, leaf->fps, leaf->logs);
    return true;
  }

  /// Recovery worker count for @p n_leaves.  An explicit request (N > 1) is
  /// honoured up to one worker per block — NOT clamped to the core count, so
  /// the parallel path is exercised (timesliced) even on small CI hosts.
  /// Auto mode (0) stays serial below kParallelRecoveryMinLeaves and
  /// respects the hardware above it (spawning threads a 1-core host cannot
  /// run only adds overhead when nobody asked for them).
  unsigned recovery_worker_count(std::size_t n_leaves) const {
    if (opt_.recovery_workers == 1) return 1;
    const unsigned blocks = static_cast<unsigned>(
        (n_leaves + kRecoveryBlock - 1) / kRecoveryBlock);
    if (opt_.recovery_workers > 1)
      return std::max(
          1u, std::min(static_cast<unsigned>(opt_.recovery_workers), blocks));
    if (n_leaves < kParallelRecoveryMinLeaves) return 1;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return std::max(1u, std::min(8u, std::min(hw, blocks)));
  }

  common::Status recover_status(bool crashed) {
    detail::recovery_counters().runs.inc();
    // All recovery-time NVM mutation happens HERE, serial, before any
    // worker starts: a crash anywhere during the phases below re-runs
    // recovery from unchanged persistent state (idempotence — the
    // crash-during-recovery sweep in tests/crash_sweep exercises this).
    if (crashed) roll_back_splits();

    // Phase 1 (serial): walk the persistent chain once to enumerate
    // leaves.  The chain is the root of trust; workers operate on this
    // snapshot vector and never chase next pointers themselves.
    std::vector<Leaf*> leaves;
    for (Leaf* leaf = leftmost(); leaf != nullptr; leaf = next_leaf(leaf))
      leaves.push_back(leaf);
    if (leaves.empty())
      return fail_recovery("no leaves reachable from the root slot");
    const std::size_t n = leaves.size();
    detail::recovery_counters().leaves.inc(n);

    // Phase 2 (parallel): per-leaf volatile rebuild.  Workers claim fixed
    // kRecoveryBlock-sized index blocks off a shared cursor (deterministic
    // partition, dynamic load balance); each leaf's separator lands in its
    // own index slot, so the merge below is independent of scheduling.
    std::vector<std::uint8_t> has_sep(n, 0);
    std::vector<Key> sep(n, Key{});
    std::atomic<std::uint64_t> live_total{0};
    std::atomic<bool> torn{false};
    std::atomic<std::size_t> next_block{0};
    auto work = [&]() {
      std::uint64_t local_live = 0;
      for (;;) {
        const std::size_t lo =
            next_block.fetch_add(1, std::memory_order_relaxed) *
            kRecoveryBlock;
        if (lo >= n) break;
        const std::size_t hi = std::min(n, lo + kRecoveryBlock);
        for (std::size_t i = lo; i < hi; ++i) {
          Leaf* leaf = leaves[i];
          if (!repair_leaf(leaf, crashed)) {
            detail::recovery_counters().corrupt_leaves.inc();
            torn.store(true, std::memory_order_relaxed);
            break;
          }
          local_live += leaf->pslot[0];
          if (leaf->has_high.load(std::memory_order_relaxed) != 0) {
            has_sep[i] = 1;
            sep[i] = leaf->high_key.load(std::memory_order_relaxed);
          }
        }
        if (torn.load(std::memory_order_relaxed)) break;
      }
      live_total.fetch_add(local_live, std::memory_order_relaxed);
    };

    const unsigned workers = recovery_worker_count(n);
    if (workers <= 1) {
      work();
    } else {
      detail::recovery_counters().parallel_runs.inc();
      detail::recovery_counters().workers.inc(workers);
      std::vector<std::thread> pool;
      pool.reserve(workers);
      struct Joiner {  // exception-safe even if a late emplace_back throws
        std::vector<std::thread>& ts;
        ~Joiner() {
          for (auto& t : ts)
            if (t.joinable()) t.join();
        }
      } joiner{pool};
      for (unsigned w = 0; w < workers; ++w) pool.emplace_back(work);
    }
    if (torn.load(std::memory_order_relaxed))
      return fail_recovery("torn leaf (slot metadata out of range)");

    // Phase 3 (serial): deterministic merge in chain-index order.
    std::vector<Key> separators;
    separators.reserve(n - 1);
    for (std::size_t i = 0; i < n; ++i)
      if (has_sep[i] != 0) separators.push_back(sep[i]);
    if (separators.size() + 1 != n)
      return fail_recovery("broken high_key chain");
    size_.store(
        static_cast<std::int64_t>(live_total.load(std::memory_order_relaxed)),
        std::memory_order_relaxed);
    inner_.bulk_load(leaves, separators);
    return common::OkStatus();
  }

  /// Undo any split that was in flight at the crash: restore the logged
  /// leaf image and release the half-born sibling.  Correct because the
  /// undo slot is retired (IDLE) *before* the new leaf becomes reachable,
  /// so a still-ACTIVE slot means no acknowledged writes depend on the new
  /// state.
  void roll_back_splits() {
    for (int t = 0; t < nvm::kMaxThreads; ++t) {
      nvm::UndoSlot& undo = pool_.undo_slot(t);
      if (undo.state != nvm::UndoSlot::kActive) continue;
      if (undo.data_size != sizeof(Leaf)) continue;  // another tree's slot
      detail::recovery_counters().rollbacks.inc();
      Leaf* target = pool_.ptr<Leaf>(undo.target_off);
      nvm::copy_nvm(target, undo.data, sizeof(Leaf));
      nvm::persist(target, sizeof(Leaf));
      if (undo.aux_off != 0) pool_.free(undo.aux_off, sizeof(Leaf));
      nvm::store(undo.state, std::uint64_t{nvm::UndoSlot::kIdle});
      nvm::persist(&undo.state, sizeof(undo.state));
    }
  }

  /// Recovery workers claim leaves in blocks of this many: big enough to
  /// amortise the cursor fetch_add, small enough to balance skewed chains.
  static constexpr std::size_t kRecoveryBlock = 64;

  nvm::PmemPool& pool_;
  Options opt_;
  mutable epoch::EpochManager epochs_;
  inner::InnerTree<Key, Leaf> inner_;
  std::atomic<std::int64_t> size_{0};
  common::Status recovery_status_;
  const char* recovery_detail_ = "";
};

}  // namespace rnt::core
