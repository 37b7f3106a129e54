// Shared plumbing for the re-implemented baseline trees (paper S6: "The
// structures for all the internal nodes are the same in all implementations.
// The only difference is the design of the leaf node.").
//
// TreeShell provides exactly that common substrate: the volatile inner tree,
// pool/root bookkeeping, the B-link high_key chase, split undo logging, the
// recovery walk, and the size counter.  Each baseline derives from it and
// implements its own leaf layout and operation algorithms.
//
// Leaf requirements (duck-typed):
//   htm::VersionLock vlock;  std::atomic<uint64_t> next;
//   std::atomic<Key> high_key;  std::atomic<uint32_t> has_high;
//   void init();
#pragma once

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/thread_id.hpp"
#include "epoch/ebr.hpp"
#include "inner/inner_tree.hpp"
#include "nvm/pool.hpp"
#include "obs/metrics.hpp"

namespace rnt::baselines {

namespace detail {

// Process-wide structural counters shared by every baseline instantiation,
// the only count of these events (read them as deltas).
struct ShellCounters {
  obs::Counter splits{"shell.splits"};
  obs::Counter compactions{"shell.compactions"};
  obs::Counter find_retries{"shell.find_retries"};
};

inline const ShellCounters& shell_counters() {
  static ShellCounters c;
  return c;
}

}  // namespace detail

template <typename Key, typename LeafT>
class TreeShell {
 public:
  using Leaf = LeafT;

  TreeShell(nvm::PmemPool& pool, int root_slot, bool fresh)
      : pool_(pool), root_slot_(root_slot), inner_(epochs_) {
    if (fresh) {
      // Dirty-flag protocol: clear the clean flag (durably) strictly before
      // the first pool mutation, so a crash mid-construction always routes
      // the next open down the crash-recovery path.
      pool_.mark_dirty();
      const std::uint64_t off = pool_.alloc(sizeof(Leaf));
      if (off == 0) throw std::bad_alloc();
      Leaf* leaf = pool_.ptr<Leaf>(off);
      leaf->init();
      nvm::on_modified(leaf, sizeof(Leaf));
      nvm::persist(leaf, sizeof(Leaf));
      pool_.set_root(root_slot, off);
      inner_.init_single(leaf);
    }
    // Recovery path: derived constructor calls recover_chain() after any
    // leaf-specific undo processing.
  }

  TreeShell(const TreeShell&) = delete;
  TreeShell& operator=(const TreeShell&) = delete;

  std::size_t size() const noexcept {
    return static_cast<std::size_t>(size_.load(std::memory_order_relaxed));
  }
  int height() const noexcept { return inner_.height(); }

  std::size_t leaf_count() const {
    std::size_t n = 0;
    for (Leaf* l = leftmost(); l != nullptr; l = next_leaf(l)) ++n;
    return n;
  }

  /// Flush every leaf and mark the pool cleanly closed.  All persistent
  /// leaf state is already durable operation-by-operation; the extra full
  /// flush makes close() safe to call even mid-epoch and keeps the contract
  /// "data durable strictly before the clean flag" self-evident.
  void close() {
    for (Leaf* l = leftmost(); l != nullptr; l = next_leaf(l)) {
      nvm::on_modified(l, sizeof(Leaf));
      nvm::persist(l, sizeof(Leaf));
    }
    pool_.close_clean();
  }

 protected:
  Leaf* leftmost() const noexcept {
    return pool_.ptr<Leaf>(pool_.root(root_slot_));
  }
  Leaf* next_leaf(Leaf* l) const noexcept {
    return pool_.ptr<Leaf>(l->next.load(std::memory_order_acquire));
  }

  static bool beyond(const Leaf* leaf, Key k) noexcept {
    return leaf->has_high.load(std::memory_order_acquire) != 0 &&
           !(k < leaf->high_key.load(std::memory_order_acquire));
  }

  /// B-link chase to the leaf covering k (validated against splits).
  Leaf* chase(Leaf* leaf, Key k) const {
    for (;;) {
      const std::uint64_t v = leaf->vlock.stable_version();
      if (!beyond(leaf, k)) return leaf;
      Leaf* nxt = pool_.ptr<Leaf>(leaf->next.load(std::memory_order_acquire));
      if (leaf->vlock.stable_version() != v || nxt == nullptr) continue;
      leaf = nxt;
    }
  }

  /// Traverse + chase under the caller's epoch guard.
  Leaf* locate(Key k) const { return chase(inner_.find_leaf(k), k); }

  // --- split undo logging (identical discipline to RNTree's) ---

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

  nvm::UndoSlot& my_undo() { return pool_.undo_slot(pmem_thread_id()); }

  /// Roll back any in-flight split recorded in the undo area (crash path).
  void roll_back_splits() {
    for (int t = 0; t < nvm::kMaxThreads; ++t) {
      nvm::UndoSlot& undo = pool_.undo_slot(t);
      if (undo.state != nvm::UndoSlot::kActive) continue;
      if (undo.data_size != sizeof(Leaf)) continue;
      Leaf* target = pool_.ptr<Leaf>(undo.target_off);
      nvm::copy_nvm(target, undo.data, sizeof(Leaf));
      nvm::persist(target, sizeof(Leaf));
      if (undo.aux_off != 0) pool_.free(undo.aux_off, sizeof(Leaf));
      nvm::store(undo.state, std::uint64_t{nvm::UndoSlot::kIdle});
      nvm::persist(&undo.state, sizeof(undo.state));
    }
  }

  /// Walk the persistent chain, let the derived class fix up each leaf and
  /// report its live-entry count, then bulk-load the inner tree from the
  /// high_key separators.  FixFn: std::uint64_t(Leaf*).
  template <typename FixFn>
  void recover_chain(FixFn&& fix) {
    std::vector<Leaf*> leaves;
    std::vector<Key> separators;
    std::uint64_t live = 0;
    for (Leaf* leaf = leftmost(); leaf != nullptr; leaf = next_leaf(leaf)) {
      leaf->vlock.reset();
      live += fix(leaf);
      leaves.push_back(leaf);
      if (leaf->has_high.load(std::memory_order_relaxed) != 0)
        separators.push_back(leaf->high_key.load(std::memory_order_relaxed));
    }
    if (leaves.empty()) throw std::runtime_error("TreeShell: no leaves to recover");
    if (separators.size() + 1 != leaves.size())
      throw std::runtime_error("TreeShell: broken high_key chain");
    size_.store(static_cast<std::int64_t>(live), std::memory_order_relaxed);
    inner_.bulk_load(leaves, separators);
  }

  nvm::PmemPool& pool_;
  int root_slot_;
  mutable epoch::EpochManager epochs_;
  inner::InnerTree<Key, Leaf> inner_;
  std::atomic<std::int64_t> size_{0};
};

}  // namespace rnt::baselines
