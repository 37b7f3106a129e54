// FPTree baseline [6], re-implemented per the paper's S3.1/S6 description:
//
//   * append-only unsorted leaf guided by a persistent occupancy bitmap,
//   * one-byte key fingerprints to cut the linear-scan cost of find,
//   * THREE persistent instructions per insert/update (KV, fingerprint,
//     bitmap — Table 1/S6.2.2) and ONE per remove (bitmap only, which is
//     why FPTree wins the remove microbenchmark),
//   * conditional-write semantics are inherent: log positions are reused,
//     so the tree must never hold two live entries with the same key,
//   * "selective concurrency": traversal is HTM-protected (wait-free here),
//     but a modify locks the WHOLE leaf for its full duration INCLUDING the
//     flushes, and a find that encounters a locked leaf aborts and retries
//     from the root — precisely the behaviours that cap FPTree's
//     scalability in the paper's Figs 8-10.
#pragma once

#include <algorithm>
#include <optional>

#include "baselines/tree_shell.hpp"
#include "common/cacheline.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "htm/version_lock.hpp"
#include "obs/op_scope.hpp"

namespace rnt::baselines {

template <typename Key, typename Value>
struct alignas(kCacheLineSize) FpLeaf {
  static_assert(sizeof(Key) == 8 && sizeof(Value) == 8);
  static constexpr std::uint32_t kLogCap = 64;

  struct Entry {
    Key key;
    Value value;
  };

  // ---- line 0: header ----
  std::atomic<std::uint64_t> bitmap;  ///< persistent occupancy bitmap
  htm::VersionLock vlock;             ///< volatile: lock + split version
  std::atomic<std::uint64_t> next;
  std::atomic<Key> high_key;
  std::atomic<std::uint32_t> has_high;
  std::uint8_t pad0_[kCacheLineSize - 36];

  // ---- line 1: fingerprints ----
  std::uint8_t fp[kCacheLineSize];  ///< 1-byte key hashes (persistent)

  // ---- lines 2+: KV entries ----
  Entry logs[kLogCap];

  void init() noexcept {
    bitmap.store(0, std::memory_order_relaxed);
    vlock.reset();
    next.store(0, std::memory_order_relaxed);
    high_key.store(Key{}, std::memory_order_relaxed);
    has_high.store(0, std::memory_order_relaxed);
    std::memset(fp, 0, sizeof(fp));
  }

  static std::uint8_t fingerprint(Key k) noexcept {
    return static_cast<std::uint8_t>(mix64(static_cast<std::uint64_t>(k)));
  }

  /// Occupied position holding @p k, or -1 (fingerprint-filtered scan).
  int find_slot(Key k, std::uint64_t bm) const noexcept {
    const std::uint8_t h = fingerprint(k);
    std::uint64_t m = bm;
    while (m != 0) {
      const int i = __builtin_ctzll(m);
      if (fp[i] == h && logs[i].key == k) return i;
      m &= m - 1;
    }
    return -1;
  }
};

template <typename Key = std::uint64_t, typename Value = std::uint64_t>
class FPTree : public TreeShell<Key, FpLeaf<Key, Value>> {
  using Shell = TreeShell<Key, FpLeaf<Key, Value>>;
  using Shell::beyond, Shell::locate, Shell::leftmost, Shell::next_leaf;
  using Shell::begin_undo, Shell::end_undo, Shell::my_undo;

 public:
  using Leaf = FpLeaf<Key, Value>;
  using Entry = typename Leaf::Entry;

  struct Options {
    int root_slot = 0;
  };

  explicit FPTree(nvm::PmemPool& pool, Options opt = {})
      : Shell(pool, opt.root_slot, /*fresh=*/true) {}

  struct recover_t {};
  FPTree(recover_t, nvm::PmemPool& pool, Options opt = {})
      : Shell(pool, opt.root_slot, /*fresh=*/false) {
    const bool crashed = !pool.clean_shutdown();
    pool.mark_dirty();  // dirty strictly before any recovery-time mutation
    if (crashed) this->roll_back_splits();
    this->recover_chain([](Leaf* leaf) -> std::uint64_t {
      return static_cast<std::uint64_t>(
          __builtin_popcountll(leaf->bitmap.load(std::memory_order_relaxed)));
    });
  }

  common::Status insert(Key k, Value v) {
    obs::OpScope op(obs::OpKind::kInsert, k);
    const common::Status s = modify(k, v, Mode::kInsert);
    op.finish(static_cast<bool>(s));
    return s;
  }
  common::Status update(Key k, Value v) {
    obs::OpScope op(obs::OpKind::kUpdate, k);
    const common::Status s = modify(k, v, Mode::kUpdate);
    op.finish(static_cast<bool>(s));
    return s;
  }
  common::Status upsert(Key k, Value v) {
    obs::OpScope op(obs::OpKind::kUpsert, k);
    const common::Status s = modify(k, v, Mode::kUpsert);
    op.finish(static_cast<bool>(s));
    return s;
  }

  bool remove(Key k) {
    obs::OpScope op(obs::OpKind::kRemove, k);
    for (;;) {
      epoch::Guard g = this->epochs_.pin();
      Leaf* leaf = locate(k);
      leaf->vlock.lock();
      if (beyond(leaf, k)) {
        leaf->vlock.unlock();
        continue;
      }
      const std::uint64_t bm = leaf->bitmap.load(std::memory_order_relaxed);
      const int slot = leaf->find_slot(k, bm);
      if (slot < 0) {
        leaf->vlock.unlock();
        return op.finish(false);
      }
      // One persistent instruction: reset the bitmap bit.
      nvm::store_release(leaf->bitmap, std::uint64_t{bm & ~(1ull << slot)});
      nvm::persist(&leaf->bitmap, sizeof(std::uint64_t));
      this->size_.fetch_sub(1, std::memory_order_relaxed);
      leaf->vlock.unlock_and_bump();
      return op.finish(true);
    }
  }

  /// find: wait-free traversal, then an optimistic leaf read that ABORTS TO
  /// THE ROOT whenever the leaf is locked or changes underneath — FPTree's
  /// documented behaviour, and the cause of its read latency under
  /// contention (Fig 9).
  std::optional<Value> find(Key k) const {
    obs::OpScope op(obs::OpKind::kFind, k);
    for (;;) {
      epoch::Guard g = this->epochs_.pin();
      Leaf* leaf = this->inner_.find_leaf(k);
      const std::uint64_t v = leaf->vlock.raw();
      if (htm::VersionLock::locked(v) || htm::VersionLock::splitting(v)) {
        detail::shell_counters().find_retries.inc();
        cpu_relax();
        continue;  // abort the "transaction", retraverse from the root
      }
      if (beyond(leaf, k)) continue;  // stale snapshot; retraverse
      const std::uint64_t bm = leaf->bitmap.load(std::memory_order_acquire);
      const int slot = leaf->find_slot(k, bm);
      std::optional<Value> res;
      if (slot >= 0) res = leaf->logs[slot].value;
      if (leaf->vlock.raw() != v) {
        detail::shell_counters().find_retries.inc();
        continue;  // a writer intervened: retry from the root
      }
      op.finish(res.has_value());
      return res;
    }
  }

  /// Range query: unsorted leaves must be materialised and sorted per leaf
  /// (Fig 6's cost).
  template <typename Fn>
  std::size_t scan(Key start, Fn&& fn) const {
    obs::OpScope op(obs::OpKind::kScan, start);
    epoch::Guard g = this->epochs_.pin();
    std::size_t visited = 0;
    Leaf* leaf = locate(start);
    bool first = true;
    while (leaf != nullptr) {
      std::vector<Entry> batch;
      const std::uint64_t v = leaf->vlock.raw();
      if (htm::VersionLock::locked(v) || htm::VersionLock::splitting(v)) {
        cpu_relax();
        continue;
      }
      std::uint64_t bm = leaf->bitmap.load(std::memory_order_acquire);
      while (bm != 0) {
        const int i = __builtin_ctzll(bm);
        batch.push_back(leaf->logs[i]);
        bm &= bm - 1;
      }
      Leaf* nxt = next_leaf(leaf);
      if (leaf->vlock.raw() != v) continue;  // writer raced: redo this leaf
      std::sort(batch.begin(), batch.end(),
                [](const Entry& a, const Entry& b) { return a.key < b.key; });
      for (const Entry& e : batch) {
        if (first && e.key < start) continue;
        ++visited;
        if (!fn(e.key, e.value)) {
          op.finish(visited > 0);
          return visited;
        }
      }
      first = false;
      leaf = nxt;
    }
    op.finish(visited > 0);
    return visited;
  }

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

 private:
  enum class Mode { kInsert, kUpdate, kUpsert };

  /// Selective concurrency: the WHOLE modify, including every flush, runs
  /// under the leaf lock (the design decision the paper's S3.4 critiques).
  common::Status modify(Key k, Value v, Mode mode) {
    for (;;) {
      epoch::Guard g = this->epochs_.pin();
      Leaf* leaf = locate(k);
      leaf->vlock.lock();
      if (beyond(leaf, k)) {
        leaf->vlock.unlock();
        continue;
      }
      std::uint64_t bm = leaf->bitmap.load(std::memory_order_relaxed);
      int existing = leaf->find_slot(k, bm);
      if (mode == Mode::kInsert && existing >= 0) {
        leaf->vlock.unlock();
        return common::StatusCode::kKeyExists;
      }
      if (mode == Mode::kUpdate && existing < 0) {
        leaf->vlock.unlock();
        return common::StatusCode::kKeyAbsent;
      }
      constexpr std::uint64_t kFullMask =
          Leaf::kLogCap >= 64 ? ~0ull : ((1ull << Leaf::kLogCap) - 1);
      const std::uint64_t free_mask = ~bm & kFullMask;
      if (free_mask == 0) {
        // No free position for the out-of-place write: split (splits keep
        // the lock; find aborts meanwhile).  A full bitmap means 64 live
        // entries — there is no compaction variant to fall back on, so an
        // exhausted pool refuses the op with the leaf untouched (removes
        // clear bits directly and free positions without allocating).
        const common::Status s = split_locked(leaf);
        leaf->vlock.unlock_and_bump();
        if (!s) return s;
        continue;
      }
      const int slot = __builtin_ctzll(free_mask);
      // Persist #1: the KV entry.
      nvm::store(leaf->logs[slot], Entry{k, v});
      nvm::persist(&leaf->logs[slot], sizeof(Entry));
      // Persist #2: the fingerprint.
      nvm::store(leaf->fp[slot], Leaf::fingerprint(k));
      nvm::persist(&leaf->fp[slot], 1);
      // Persist #3: the bitmap — atomically sets the new bit and, for an
      // update, clears the old one (the 8-byte atomic write that commits
      // the operation).
      std::uint64_t nbm = bm | (1ull << slot);
      if (existing >= 0) nbm &= ~(1ull << existing);
      nvm::store_release(leaf->bitmap, nbm);
      nvm::persist(&leaf->bitmap, sizeof(std::uint64_t));
      if (existing < 0) this->size_.fetch_add(1, std::memory_order_relaxed);
      leaf->vlock.unlock_and_bump();
      return common::OkStatus();
    }
  }

  /// Split under the held lock (undo-logged like the other trees).  Returns
  /// kPoolExhausted — with the leaf untouched — when no sibling can be
  /// allocated.
  common::Status split_locked(Leaf* leaf) {
    // Gather and sort live entries to choose the median.
    std::vector<Entry> live;
    std::uint64_t bm = leaf->bitmap.load(std::memory_order_relaxed);
    while (bm != 0) {
      const int i = __builtin_ctzll(bm);
      live.push_back(leaf->logs[i]);
      bm &= bm - 1;
    }
    std::sort(live.begin(), live.end(),
              [](const Entry& a, const Entry& b) { return a.key < b.key; });

    // Pre-flight: sibling space before the splitting bit / undo logging.
    const std::uint64_t new_off = this->pool_.alloc(sizeof(Leaf));
    if (new_off == 0) return common::StatusCode::kPoolExhausted;
    nvm::UndoSlot& undo = my_undo();
    leaf->vlock.set_split();
    begin_undo(undo, leaf, new_off);
    const Leaf* src = reinterpret_cast<const Leaf*>(undo.data);
    detail::shell_counters().splits.inc();

    Leaf* nl = this->pool_.template ptr<Leaf>(new_off);
    nl->init();
    const std::size_t half = live.size() / 2;
    const Key split_key = live[half].key;

    fill(nl, live, half, live.size());
    nl->next.store(src->next.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    nl->high_key.store(src->high_key.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    nl->has_high.store(src->has_high.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    nvm::on_modified(nl, sizeof(Leaf));
    nvm::persist(nl, sizeof(Leaf));

    fill(leaf, live, 0, half);
    leaf->next.store(new_off, std::memory_order_relaxed);
    leaf->high_key.store(split_key, std::memory_order_relaxed);
    leaf->has_high.store(1, std::memory_order_relaxed);
    nvm::on_modified(leaf, sizeof(Leaf));
    nvm::persist(leaf, sizeof(Leaf));

    end_undo(undo);
    leaf->vlock.unset_split_and_bump();
    this->inner_.insert_split(split_key, leaf, nl);
    return common::OkStatus();
  }

  static void fill(Leaf* dst, const std::vector<Entry>& live, std::size_t from,
                   std::size_t to) {
    std::uint64_t bm = 0;
    for (std::size_t i = from; i < to; ++i) {
      const std::size_t s = i - from;
      nvm::store(dst->logs[s], live[i]);
      dst->fp[s] = Leaf::fingerprint(live[i].key);
      bm |= 1ull << s;
    }
    nvm::on_modified(dst->fp, kCacheLineSize);
    dst->bitmap.store(bm, std::memory_order_relaxed);
  }
};

}  // namespace rnt::baselines
