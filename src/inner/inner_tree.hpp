// Volatile internal-node tree shared by every leaf design.
//
// Following the paper (and FPTree/NVTree), all internal nodes live in DRAM
// and are rebuilt from the persistent leaf chain on recovery; only leaf nodes
// are NVM-resident.  The paper wraps traversal and internal-node updates in
// HTM so that readers never block; mutating the inner nodes inside those
// transactions is what inflates SMO write sets and triggers capacity-abort
// storms at scale.  Here every structure modification is RCU-HTM style
// copy-on-write instead:
//
//   * find_leaf() descends an immutable snapshot reached from an atomic root
//     pointer — wait-free, no validation, never blocks (the HTM-traversal
//     equivalent).  Callers must hold an epoch::Guard for the duration.
//   * insert_split() (the paper's htmTreeUpdate) is one algorithm: record
//     the descent path (node stack + child indexes, the rcu-htm traversal
//     stack); rebuild bottom-up out of place, splitting each overflowing
//     copy and splicing its (pushed key, right half) into a copy of the next
//     ancestor, up to the first ancestor with room (or a new root); then
//     INSTALL with a short HTM transaction that validates the recorded path
//     and swaps exactly one pointer — that ancestor's slot in its parent, or
//     root_.  The write set is one cache line, so installs essentially never
//     capacity-abort.  Replaced nodes are retired through EBR strictly AFTER
//     the swap; copies that were never published are deleted.
//
// Validation.  Published nodes are immutable except for child slots of
// level>=1 nodes, which installs re-point.  The install therefore checks
// every recorded link, that the leaf's slot still holds the splitting leaf,
// and every child slot of each cloned level>=1 node against the value the
// clone copied — otherwise an install that landed on a sibling slot after
// the copy was taken would be silently undone by our swap.
//
// Progress.  After kInstallRetries failed validations the round runs once
// more while holding smo_lock_.  Install transactions subscribe to that lock
// (atomic_exec), so nothing can republish the path under it.
//
// A reader can reach a leaf that has just split (its snapshot predates the
// install); the owning trees resolve that B-link style via the persistent
// per-leaf high_key/next chain, exactly as the paper's find redirects.
//
// The paper's evaluation keeps internal nodes identical across all compared
// trees; every tree in this library instantiates this template.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/hints.hpp"
#include "epoch/ebr.hpp"
#include "htm/rtm.hpp"
#include "htm/smo.hpp"
#include "htm/spinlock.hpp"
#include "obs/metrics.hpp"

namespace rnt::inner {

namespace detail {

// Structure-modification telemetry shared by every InnerTree instantiation
// (all key/leaf types funnel into the same process-wide counters).
struct InnerCounters {
  obs::Counter updates{"inner.updates"};    ///< insert_split (htmTreeUpdate) calls
  obs::Counter rebuilds{"inner.rebuilds"};  ///< bulk_load (recovery) calls
  obs::Counter retired{"inner.retired_nodes"};
};

inline const InnerCounters& counters() {
  static InnerCounters c;
  return c;
}

}  // namespace detail

template <typename Key, typename Leaf>
class InnerTree {
 public:
  /// Max separator keys per inner node.  16 keys keeps a 16M-KV tree at
  /// depth ~5 with 64-entry leaves, mirroring the paper's setup.
  static constexpr int kFanout = 16;

  explicit InnerTree(epoch::EpochManager& epochs) : epochs_(epochs) {}

  ~InnerTree() { free_subtree(root_.load(std::memory_order_relaxed)); }

  InnerTree(const InnerTree&) = delete;
  InnerTree& operator=(const InnerTree&) = delete;

  /// Initialise with a single leaf covering the whole key space.
  void init_single(Leaf* leftmost) {
    assert(root_.load(std::memory_order_relaxed) == nullptr);
    Node* r = new Node;
    r->level = 0;
    r->count = 0;
    r->children[0].store(leftmost, std::memory_order_relaxed);
    root_.store(r, std::memory_order_release);
  }

  /// Leaf whose range covers @p k in the current snapshot.  The caller must
  /// hold an epoch::Guard; the returned pointer stays valid while it does.
  /// Each descent step prefetches the chosen child's leading lines (its
  /// separator keys span the first two), overlapping the next level's fetch
  /// with this level's loop overhead.
  Leaf* find_leaf(Key k) const noexcept {
    const Node* n = root_.load(std::memory_order_acquire);
    while (n->level > 0) {
      const Node* child = static_cast<const Node*>(n->child(n->child_index(k)));
      __builtin_prefetch(child, /*rw=*/0, /*locality=*/3);
      __builtin_prefetch(reinterpret_cast<const char*>(child) + 64, 0, 3);
      n = child;
    }
    return static_cast<Leaf*>(n->child(n->child_index(k)));
  }

  /// Splice (separator, new_leaf) immediately to the right of @p old_leaf:
  /// the paper's htmTreeUpdate after a leaf split.  @p sep is the split key
  /// (minimum key of new_leaf's range).  The caller must hold an
  /// epoch::Guard: the path is recorded and copied outside any lock and the
  /// pin keeps concurrently retired nodes mapped.
  void insert_split(Key sep, Leaf* old_leaf, Leaf* new_leaf) {
    detail::counters().updates.inc();
    for (int retry = 0; retry < kInstallRetries; ++retry)
      if (try_install(sep, old_leaf, new_leaf, /*locked=*/false)) return;
    htm::smo_counters().retry_fallbacks.inc();
    // Under smo_lock_ validation can only fail while old_leaf is not linked
    // yet — it is itself the new half of a split whose insert_split is still
    // in flight — so drop the lock and let that install land.
    for (Backoff bo;; bo.pause()) {
      htm::SpinGuard lk(smo_lock_);
      if (try_install(sep, old_leaf, new_leaf, /*locked=*/true)) return;
    }
  }

  /// Rebuild from an ordered leaf chain.  @p leaves are all leaves left to
  /// right; @p separators[i] is the lower bound of leaves[i+1]'s range (the
  /// persisted high_key chain), so separators.size() == leaves.size() - 1.
  void bulk_load(const std::vector<Leaf*>& leaves,
                 const std::vector<Key>& separators) {
    assert(!leaves.empty());
    assert(separators.size() + 1 == leaves.size());
    detail::counters().rebuilds.inc();
    htm::SpinGuard lk(smo_lock_);
    Node* old_root = root_.exchange(nullptr, std::memory_order_relaxed);
    free_subtree(old_root);

    // Build the leaf level, then stack levels until one node remains.
    std::vector<Node*> level;
    std::vector<Key> seps;  // separators between consecutive nodes in `level`
    {
      std::size_t i = 0;
      while (i < leaves.size()) {
        Node* n = new Node;
        n->level = 0;
        const std::size_t take =
            std::min<std::size_t>(kFanout + 1, leaves.size() - i);
        n->count = static_cast<std::int16_t>(take - 1);
        for (std::size_t j = 0; j < take; ++j)
          n->children[j].store(leaves[i + j], std::memory_order_relaxed);
        for (std::size_t j = 0; j + 1 < take; ++j) n->keys[j] = separators[i + j];
        if (i + take < leaves.size()) seps.push_back(separators[i + take - 1]);
        level.push_back(n);
        i += take;
      }
    }
    while (level.size() > 1) {
      std::vector<Node*> next_level;
      std::vector<Key> next_seps;
      std::size_t i = 0;
      while (i < level.size()) {
        Node* n = new Node;
        n->level = static_cast<std::int16_t>(level[i]->level + 1);
        const std::size_t take =
            std::min<std::size_t>(kFanout + 1, level.size() - i);
        n->count = static_cast<std::int16_t>(take - 1);
        for (std::size_t j = 0; j < take; ++j)
          n->children[j].store(level[i + j], std::memory_order_relaxed);
        for (std::size_t j = 0; j + 1 < take; ++j) n->keys[j] = seps[i + j];
        if (i + take < level.size()) next_seps.push_back(seps[i + take - 1]);
        next_level.push_back(n);
        i += take;
      }
      level = std::move(next_level);
      seps = std::move(next_seps);
    }
    root_.store(level[0], std::memory_order_release);
  }

  /// Tree height in inner levels (1 = root directly over leaves).
  int height() const noexcept {
    const Node* n = root_.load(std::memory_order_acquire);
    return n == nullptr ? 0 : n->level + 1;
  }

  /// Read-only walk over every inner node in the current snapshot, calling
  /// fn(level, separator_count) once per node.  The caller must hold an
  /// epoch::Guard: published nodes are immutable except for child-slot
  /// installs (each of which republishes a fully built subtree), so the
  /// snapshot reached from root_ stays consistent for the walk's duration.
  template <typename Fn>
  void for_each_node(Fn&& fn) const {
    visit_rec(root_.load(std::memory_order_acquire), fn);
  }

 private:
  struct Node {
    std::int16_t count;  ///< number of separator keys (children = count + 1)
    std::int16_t level;  ///< 0 => children are Leaf*
    Key keys[kFanout + 1];  // +1: transient slot while splitting
    /// Atomic: COW installs re-point one slot of a live level>=1 node while
    /// readers descend through it (release store vs acquire load pairs).
    std::atomic<void*> children[kFanout + 2];

    void* child(int i) const noexcept {
      return children[i].load(std::memory_order_acquire);
    }

    /// Index of the child whose subtree covers @p k (keys >= keys[i] go
    /// right of separator i).  Branch-free linear scan: with at most 17
    /// separators, a run of conditional increments (cmp+setcc, no
    /// data-dependent branches) beats a binary search whose every probe
    /// mispredicts ~50% of the time.
    int child_index(Key k) const noexcept {
      int idx = 0;
      for (int i = 0; i < count; ++i) idx += !(k < keys[i]) ? 1 : 0;
      return idx;
    }
  };

  /// Deepest path the stack-recording install supports; a fanout-16 tree
  /// covering 2^64 keys never reaches it.
  static constexpr int kMaxInstallDepth = 24;
  /// Lock-free install rounds before the round runs under smo_lock_ (each
  /// failure means a concurrent install republished part of our path).
  static constexpr int kInstallRetries = 3;

  /// One record/build/install round (rcu-htm).  Returns false when
  /// validation failed; the unpublished copies are then deleted.  @p locked:
  /// the caller holds smo_lock_, so validate+swap runs as plain code.
  bool try_install(Key sep, Leaf* old_leaf, Leaf* new_leaf, bool locked) {
    htm::SmoCounters& smo = htm::smo_counters();
    // 1. Record the descent path: path[0] is the root, path[h - 1] the
    //    leaf's level-0 parent, idx[d] the child index taken at path[d].
    Node* path[kMaxInstallDepth];
    int idx[kMaxInstallDepth];
    int h = 0;
    for (Node* n = root_.load(std::memory_order_acquire);;
         n = static_cast<Node*>(n->child(idx[h - 1]))) {
      assert(h < kMaxInstallDepth);
      path[h] = n;
      idx[h] = n->child_index(sep);
      ++h;
      if (n->level == 0) break;
    }
    Node* parent = path[h - 1];
    const int pidx = idx[h - 1];
    if (parent->child(pidx) != old_leaf) {
      smo.validation_failures.inc();
      return false;
    }

    // 2. Build bottom-up out of place.  Each overflowing copy splits and
    //    its (pushed, right) is spliced into a copy of the next ancestor;
    //    the first copy with room (or a new root) is the replacement `repl`
    //    for path[top].  seen[d] holds the child slots path[d]'s clone read.
    Node* fresh[2 * kMaxInstallDepth + 1];  // every unpublished node
    int nfresh = 0;
    void* seen[kMaxInstallDepth][kFanout + 1];
    Key key = sep;
    void* right = new_leaf;
    Node* left = nullptr;  // replacement for path[top]'s child idx[top]
    Node* repl = nullptr;
    int top = h - 1;
    for (; top >= 0; --top) {
      Node* copy =
          clone_with_splice(path[top], idx[top], left, key, right, seen[top]);
      fresh[nfresh++] = copy;
      if (copy->count <= kFanout) {
        repl = copy;
        break;
      }
      left = copy;
      right = fresh[nfresh++] = split_node(copy, &key);
    }
    if (repl == nullptr) {  // the root split: grow a level
      repl = fresh[nfresh++] = new Node;
      repl->level = static_cast<std::int16_t>(left->level + 1);
      repl->count = 1;
      repl->keys[0] = key;
      repl->children[0].store(left, std::memory_order_relaxed);
      repl->children[1].store(right, std::memory_order_relaxed);
    }
    const int first = std::max(top, 0);  // shallowest replaced path node

    // 3. Install: validate, then swap exactly one pointer.
    bool installed = false;
    auto validate_and_swap = [&] {
      if (root_.load(std::memory_order_relaxed) != path[0]) return;
      for (int d = 0; d + 1 < h; ++d)
        if (path[d]->children[idx[d]].load(std::memory_order_relaxed) !=
            path[d + 1])
          return;
      if (parent->children[pidx].load(std::memory_order_relaxed) != old_leaf)
        return;
      for (int d = first; d + 1 < h; ++d)  // cloned level>=1 nodes
        for (int j = 0; j <= path[d]->count; ++j)
          if (path[d]->children[j].load(std::memory_order_relaxed) != seen[d][j])
            return;
      if (first == 0)
        root_.store(repl, std::memory_order_release);
      else
        path[first - 1]->children[idx[first - 1]].store(
            repl, std::memory_order_release);
      installed = true;
    };
    if (locked) {
      validate_and_swap();
    } else {
      htm::SmoInstallScope in_install;
      htm::TxFootprint footprint(1);
      htm::atomic_exec(&smo_lock_, validate_and_swap, htm::smo_install_policy());
    }

    // 4. Retire strictly AFTER the swap: until then the replaced nodes are
    //    reachable from the current root and a fresh reader could walk in.
    if (!installed) {
      for (int i = 0; i < nfresh; ++i) delete fresh[i];  // never published
      smo.validation_failures.inc();
      return false;
    }
    smo.installs.inc();
    if (first == 0) smo.root_installs.inc();
    for (int d = first; d < h; ++d) retire_node(path[d]);
    return true;
  }

  /// Copy of @p n with child @p i replaced by @p left (when non-null) and
  /// (key, right) spliced in to its right.  The copy may hold kFanout + 1
  /// keys (the caller then splits it).  @p seen receives n's child slots as
  /// read, for the install's validation.  The source is published, so its
  /// keys are immutable; the copy is private until its install publishes it,
  /// so relaxed stores suffice — the installing release store orders them.
  static Node* clone_with_splice(const Node* n, int i, Node* left, Key key,
                                 void* right, void** seen) {
    Node* copy = new Node;
    copy->level = n->level;
    copy->count = static_cast<std::int16_t>(n->count + 1);
    for (int j = 0; j < n->count; ++j) copy->keys[j < i ? j : j + 1] = n->keys[j];
    copy->keys[i] = key;
    for (int j = 0; j <= n->count; ++j) {
      seen[j] = n->children[j].load(std::memory_order_acquire);
      copy->children[j <= i ? j : j + 1].store(
          j == i && left != nullptr ? left : seen[j], std::memory_order_relaxed);
    }
    copy->children[i + 1].store(right, std::memory_order_relaxed);
    return copy;
  }

  /// Split the overfull private copy @p n: it keeps the left half, the
  /// middle key goes to @p pushed and the right half to the returned node.
  static Node* split_node(Node* n, Key* pushed) {
    const int half = n->count / 2;
    Node* right = new Node;
    right->level = n->level;
    right->count = static_cast<std::int16_t>(n->count - half - 1);
    *pushed = n->keys[half];
    for (int j = 0; j < right->count; ++j) right->keys[j] = n->keys[half + 1 + j];
    for (int j = 0; j <= right->count; ++j)
      right->children[j].store(
          n->children[half + 1 + j].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    n->count = static_cast<std::int16_t>(half);
    return right;
  }

  template <typename Fn>
  static void visit_rec(const Node* n, Fn& fn) {
    if (n == nullptr) return;
    fn(static_cast<int>(n->level), static_cast<int>(n->count));
    if (n->level > 0)
      for (int i = 0; i <= n->count; ++i)
        visit_rec(static_cast<const Node*>(n->child(i)), fn);
  }

  void retire_node(Node* n) {
    detail::counters().retired.inc();
    epochs_.retire([n] { delete n; });
  }

  void free_subtree(Node* n) {
    if (n == nullptr) return;
    if (n->level > 0)
      for (int i = 0; i <= n->count; ++i)
        free_subtree(static_cast<Node*>(
            n->children[i].load(std::memory_order_relaxed)));
    delete n;
  }

  epoch::EpochManager& epochs_;
  std::atomic<Node*> root_{nullptr};
  /// SMO fallback lock: install transactions subscribe to it (atomic_exec);
  /// the locked install round and bulk_load hold it outright.
  htm::SpinLock smo_lock_;
};

}  // namespace rnt::inner
