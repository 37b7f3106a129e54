// ShardedTree: a sharding facade over N independent RNTree instances.
//
// ROADMAP item 1 ("scale out"): partition the key space over N member trees
// that share one PmemPool but nothing else — each shard has its own pool root
// slot (shard i = root slot i), its own epoch domain, its own volatile inner
// tree, and its own per-leaf HTM fallback state, so abort storms and epoch
// stalls stay local to a shard (cf. Persistent HyTM's per-region fallback
// argument).  Two partition functions:
//
//   * kHash  — shard = mix64(key) & (N-1).  Uniform load regardless of key
//              skew; cross-shard scans need a k-way merge (below).
//   * kRange — shard = key / ceil(key_space/N) (or a top-bits shift when no
//              key_space is configured).  Shards are disjoint ordered ranges,
//              so a cross-shard scan is a plain concatenation.
//
// Group persistency (the ModifyBatch member class): K modifies share ONE
// trailing fence.  Every op still persists its KV entry eagerly (ordering:
// KV durable before its slot line is even flushed), but the slot-line flush —
// each op's atomic durable commit point — defers its fence to the batch
// barrier via nvm::persist_batchable/BatchScope.  A crash mid-batch therefore
// loses whole unacknowledged ops, never tears one; durability is only
// ACKNOWLEDGED at flush().  Fences per op drop from 2 to 1 + 1/K.
//
// Concurrency contract: all single-key ops are safe from any thread (they
// delegate to the member RNTree).  A ModifyBatch is single-threaded (the
// fence-deferral window is thread-local).  Cross-shard scans are atomic per
// leaf (RNTree's seqlock snapshots) but NOT atomic across shards — same
// guarantee RNTree::scan gives across leaves.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "core/rntree.hpp"
#include "nvm/persist.hpp"
#include "nvm/pool.hpp"
#include "obs/op_scope.hpp"
#include "shard/shard_obs.hpp"

namespace rnt::shard {

/// How keys map to shards.
enum class Partition : std::uint8_t { kHash, kRange };

template <typename Key = std::uint64_t, typename Value = std::uint64_t>
class ShardedTree {
  static_assert(std::is_unsigned_v<Key>,
                "partition functions need an unsigned integral key space");

 public:
  using Tree = core::RNTree<Key, Value>;
  using Leaf = typename Tree::Leaf;
  using Entry = typename Tree::Entry;
  using Cursor = typename Tree::Cursor;

  struct Options {
    /// Shard count: a power of two in [1, PmemPool::kNumRoots].
    int shards = 1;
    Partition partition = Partition::kHash;
    /// Forwarded to every member tree (the paper's RNTree+DS by default;
    /// single-slot mode widens the reader-visible mseq window to the batch
    /// barrier under group persistency — see DESIGN.md).
    bool dual_slot = true;
    /// kRange only: upper bound (exclusive) of the expected key space.  0
    /// means "whole 64-bit space" (top-bits shift).  Benchmarks that draw
    /// keys from [0, N) should set this or every key lands in shard 0.
    std::uint64_t key_space = 0;
    /// Forwarded to every member tree (see RNTree::Options): recovery
    /// worker threads per shard.  Shards recover sequentially; each
    /// shard's leaf rebuild parallelises internally.
    int recovery_workers = 0;
  };

  /// Create a fresh sharded tree: shard i is a fresh RNTree rooted at pool
  /// root slot i.  Throws std::invalid_argument on a bad shard count.
  explicit ShardedTree(nvm::PmemPool& pool, Options opt = {})
      : pool_(pool), opt_(opt) {
    detail::validate_shard_count(opt_.shards);
    detail::set_shard_count_gauge(opt_.shards);
    shards_.reserve(static_cast<std::size_t>(opt_.shards));
    for (int s = 0; s < opt_.shards; ++s)
      shards_.push_back(std::make_unique<Tree>(pool_, member_options(s)));
  }

  /// Recover all shards from @p pool.  The shutdown state is sampled ONCE
  /// here (the first member ctor would otherwise mark the pool dirty and
  /// force every later member down the crash path).
  struct recover_t {};
  ShardedTree(recover_t, nvm::PmemPool& pool, Options opt = {})
      : pool_(pool), opt_(opt) {
    detail::validate_shard_count(opt_.shards);
    detail::set_shard_count_gauge(opt_.shards);
    const bool crashed = !pool_.clean_shutdown();
    pool_.mark_dirty();
    shards_.reserve(static_cast<std::size_t>(opt_.shards));
    for (int s = 0; s < opt_.shards; ++s) {
      if (pool_.root(s) == 0)
        throw std::runtime_error(
            "sharded tree: pool has no root for shard " + std::to_string(s) +
            " (was it created with fewer shards?)");
      shards_.push_back(std::make_unique<Tree>(
          typename Tree::recover_t{}, pool_, crashed, member_options(s)));
      if (!shards_.back()->recovery_status().ok())
        throw std::runtime_error(std::string("RNTree::recover: ") +
                                 shards_.back()->recovery_detail());
    }
  }

  ShardedTree(const ShardedTree&) = delete;
  ShardedTree& operator=(const ShardedTree&) = delete;

  /// Mark the shared pool clean once (what each member's close() would do):
  /// no shard has volatile state the next open does not rebuild.
  void close() { pool_.close_clean(); }

  // ------------------------------------------------------------------
  // Single-key operations (delegated; same Status contract as RNTree)
  // ------------------------------------------------------------------

  common::Status insert(Key k, Value v) { return route(k).insert(k, v); }
  common::Status update(Key k, Value v) { return route(k).update(k, v); }
  common::Status upsert(Key k, Value v) { return route(k).upsert(k, v); }
  bool remove(Key k) { return route(k).remove(k); }
  std::optional<Value> find(Key k) const { return route(k).find(k); }

  // ------------------------------------------------------------------
  // Cross-shard ordered scan
  // ------------------------------------------------------------------

  /// Visit entries with key >= @p start in ascending key order until fn
  /// returns false.  One op.scan event however many shards it reads.  Range
  /// partition: concatenates the (disjoint, ordered) shard ranges.  Hash
  /// partition: k-way merge of one leaf cursor per shard.
  template <typename Fn>
  std::size_t scan(Key start, Fn&& fn) const {
    if (shards_.size() == 1) return shards_[0]->scan(start, std::forward<Fn>(fn));
    detail::count_cross_shard_scan();
    obs::OpScope op(obs::OpKind::kScan, start);
    const std::size_t visited = opt_.partition == Partition::kRange
                                    ? scan_range(start, fn)
                                    : scan_merge(start, fn);
    op.finish(visited > 0);
    return visited;
  }

  /// Collect up to @p n entries starting at @p start.
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

  // ------------------------------------------------------------------
  // Group persistency
  // ------------------------------------------------------------------

  /// Stages up to @p batch_size modifies per trailing fence.  Ops are applied
  /// (and their Status returned) immediately — only the DURABILITY
  /// acknowledgement is deferred: an op is guaranteed durable once the batch
  /// it belongs to has flushed.  Single-threaded; flush() (or destruction)
  /// issues the trailing barrier.
  class ModifyBatch {
   public:
    explicit ModifyBatch(ShardedTree& tree, std::size_t batch_size = 8)
        : tree_(tree), cap_(batch_size == 0 ? 1 : batch_size) {}
    // noexcept(false): the flush barrier is a tracked NVM event — an
    // attached ShadowPool may fire a CrashPoint out of it (crash tests).
    ~ModifyBatch() noexcept(false) { flush(); }
    ModifyBatch(const ModifyBatch&) = delete;
    ModifyBatch& operator=(const ModifyBatch&) = delete;

    common::Status insert(Key k, Value v) {
      return apply([&] { return tree_.insert(k, v); });
    }
    common::Status update(Key k, Value v) {
      return apply([&] { return tree_.update(k, v); });
    }
    common::Status upsert(Key k, Value v) {
      return apply([&] { return tree_.upsert(k, v); });
    }
    bool remove(Key k) {
      return apply([&] { return tree_.remove(k); });
    }

    /// Issue the trailing batch barrier; after this returns every op applied
    /// since the previous flush is durable.
    void flush() {
      if (!scope_) return;
      const std::size_t staged = staged_;
      staged_ = 0;
      // Fence BEFORE destroying the scope: optional::reset() is noexcept, so
      // a barrier that throws (ShadowPool crash injection) must fire here,
      // where it can propagate.  The ~BatchScope barrier then finds nothing
      // pending and is a no-op.
      nvm::batch_barrier();
      if (staged != 0) detail::count_batch_flush(staged);
      scope_.reset();
    }

    /// Ops applied since the last flush (not yet durability-acknowledged).
    std::size_t staged() const noexcept { return staged_; }

   private:
    template <typename F>
    auto apply(F&& f) {
      if (!scope_) scope_.emplace();
      auto r = f();
      if (++staged_ >= cap_) flush();
      return r;
    }

    ShardedTree& tree_;
    std::size_t cap_;
    std::size_t staged_ = 0;
    std::optional<nvm::BatchScope> scope_;
  };

  // ------------------------------------------------------------------
  // Introspection
  // ------------------------------------------------------------------

  std::size_t size() const noexcept {
    std::size_t n = 0;
    for (const auto& t : shards_) n += t->size();
    return n;
  }

  int shard_count() const noexcept { return opt_.shards; }
  Partition partition() const noexcept { return opt_.partition; }

  /// Shard index owning @p k.
  int shard_of(Key k) const noexcept {
    if (opt_.shards == 1) return 0;
    const auto n = static_cast<std::uint64_t>(opt_.shards);
    if (opt_.partition == Partition::kHash)
      return static_cast<int>(mix64(static_cast<std::uint64_t>(k)) & (n - 1));
    if (opt_.key_space != 0) {
      const std::uint64_t width = (opt_.key_space + n - 1) / n;
      const std::uint64_t s = static_cast<std::uint64_t>(k) / width;
      return static_cast<int>(s < n ? s : n - 1);
    }
    // Top-bits shift: shard boundaries at multiples of 2^64 / N.
    const int lg = log2_pow2(opt_.shards);
    return static_cast<int>(static_cast<std::uint64_t>(k) >>
                            (64 - static_cast<unsigned>(lg)));
  }

  Tree& shard(int s) { return *shards_[static_cast<std::size_t>(s)]; }
  const Tree& shard(int s) const { return *shards_[static_cast<std::size_t>(s)]; }

  // Structural-auditor surface (obs/struct_audit.hpp): one report over the
  // union of every shard's inner tree and leaf chain.
  static constexpr int slot_capacity() noexcept { return Tree::slot_capacity(); }
  static constexpr int log_capacity() noexcept { return Tree::log_capacity(); }
  static constexpr int inner_fanout() noexcept { return Tree::inner_fanout(); }
  template <typename Fn>
  void visit_inner(Fn&& fn) const {
    for (const auto& t : shards_) t->visit_inner(fn);
  }
  template <typename Fn>
  void visit_leaves(Fn&& fn) const {
    for (const auto& t : shards_) t->visit_leaves(fn);
  }
  int height() const noexcept {
    int h = 0;
    for (const auto& t : shards_) h = h > t->height() ? h : t->height();
    return h;
  }

  /// Per-shard structural invariants plus partition containment (every key a
  /// shard holds maps back to that shard).  Single-threaded; throws
  /// std::logic_error on violation.
  void check_invariants() const {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s]->check_invariants();
      shards_[s]->scan(std::numeric_limits<Key>::min(), [&](Key k, Value) {
        if (shard_of(k) != static_cast<int>(s))
          throw std::logic_error("sharded tree: key in wrong shard");
        return true;
      });
    }
  }

 private:
  static int log2_pow2(int v) noexcept {
    int lg = 0;
    while ((1 << lg) < v) ++lg;
    return lg;
  }

  /// Member-tree options for shard @p s (explicit field assignment: the
  /// member Options struct grows fields over time and positional init
  /// silently stops forwarding the tail).
  typename Tree::Options member_options(int s) const {
    typename Tree::Options o;
    o.dual_slot = opt_.dual_slot;
    o.root_slot = s;
    o.recovery_workers = opt_.recovery_workers;
    return o;
  }

  Tree& route(Key k) {
    const int s = shard_of(k);
    detail::count_shard_op(s);
    return *shards_[static_cast<std::size_t>(s)];
  }
  const Tree& route(Key k) const {
    const int s = shard_of(k);
    detail::count_shard_op(s);
    return *shards_[static_cast<std::size_t>(s)];
  }

  template <typename Fn>
  std::size_t scan_range(Key start, Fn& fn) const {
    std::size_t visited = 0;
    const int first = shard_of(start);
    for (int s = first; s < opt_.shards; ++s) {
      Cursor c(*shards_[static_cast<std::size_t>(s)], s == first ? start : Key{0});
      if (!c.drain(fn, visited)) break;
    }
    return visited;
  }

  /// Each shard's cursor holds one leaf's entries at a time; the merge
  /// reads a shard's next leaf only once it has consumed the current one.
  /// All cursors open before any reads, so the shards' first-leaf fetches
  /// overlap.
  template <typename Fn>
  std::size_t scan_merge(Key start, Fn& fn) const {
    struct Source {
      Source(const Tree& t, Key from) : c(t, from) {}
      Cursor c;
      Entry buf[Leaf::kLogCap];
      int n = 0, pos = 0;
    };
    std::vector<Source> src;
    src.reserve(shards_.size());
    for (const auto& t : shards_) src.emplace_back(*t, start);
    for (Source& sc : src) sc.n = sc.c.next(sc.buf);
    std::size_t visited = 0;
    for (;;) {
      Source* best = nullptr;
      for (Source& sc : src)
        if (sc.pos < sc.n && (best == nullptr || sc.buf[sc.pos].key < best->buf[best->pos].key))
          best = &sc;
      if (best == nullptr) break;
      const Entry& e = best->buf[best->pos++];
      ++visited;
      if (!fn(e.key, e.value)) break;
      if (best->pos == best->n) {
        best->n = best->c.next(best->buf);
        best->pos = 0;
      }
    }
    return visited;
  }

  nvm::PmemPool& pool_;
  Options opt_;
  std::vector<std::unique_ptr<Tree>> shards_;
};

}  // namespace rnt::shard
