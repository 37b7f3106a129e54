// wB+tree baselines [7], re-implemented per the paper's S6 description.
//
// Two variants (both single-threaded, like the original):
//
//   * WBTree    — the slot array is a full cache line (63 entries), larger
//     than the 8-byte atomic-write size, so a persistent valid bit guards it:
//     every insert/update costs FOUR persistent instructions
//     (KV, valid:=0, slot array, valid:=1) and remove costs three.
//     After a crash with valid==0 the slot array is rebuilt from the logs.
//
//   * WBTreeSO  — the "slot-only" variant whose slot array fits in exactly
//     8 bytes (count + 7 slots): it can be updated atomically, needing only
//     TWO persistent instructions, but each leaf holds at most 7 entries,
//     making the tree deep and splits frequent (the paper's Fig 4 shows the
//     cost).
#pragma once

#include <optional>

#include "baselines/tree_shell.hpp"
#include "common/cacheline.hpp"
#include "common/status.hpp"
#include "core/slot_util.hpp"
#include "htm/version_lock.hpp"
#include "obs/op_scope.hpp"

namespace rnt::baselines {

// ---------------------------------------------------------------------------
// WBTree — 64-byte slot array + valid bit, 4 persists per modify
// ---------------------------------------------------------------------------

template <typename Key, typename Value>
struct alignas(kCacheLineSize) WbLeaf {
  static_assert(sizeof(Key) == 8 && sizeof(Value) == 8);
  static constexpr std::uint32_t kLogCap = 64;

  struct Entry {
    Key key;
    Value value;
  };

  // ---- line 0: header ----
  std::atomic<std::uint64_t> valid;  ///< persistent slot-array valid flag
  std::atomic<std::uint32_t> nalloc;  ///< volatile; recomputed on recovery
  htm::VersionLock vlock;
  std::atomic<std::uint64_t> next;
  std::atomic<Key> high_key;
  std::atomic<std::uint32_t> has_high;
  std::uint8_t pad0_[kCacheLineSize - 40];

  // ---- line 1: persistent slot array ----
  std::uint8_t pslot[kCacheLineSize];

  // ---- lines 2+: KV log entries ----
  Entry logs[kLogCap];

  void init() noexcept {
    valid.store(1, std::memory_order_relaxed);
    nalloc.store(0, std::memory_order_relaxed);
    vlock.reset();
    next.store(0, std::memory_order_relaxed);
    high_key.store(Key{}, std::memory_order_relaxed);
    has_high.store(0, std::memory_order_relaxed);
    pslot[0] = 0;
  }
};

template <typename Key = std::uint64_t, typename Value = std::uint64_t>
class WBTree : public TreeShell<Key, WbLeaf<Key, Value>> {
  using Shell = TreeShell<Key, WbLeaf<Key, Value>>;
  using Shell::beyond, Shell::locate, Shell::leftmost, Shell::next_leaf;
  using Shell::begin_undo, Shell::end_undo, Shell::my_undo;

 public:
  using Leaf = WbLeaf<Key, Value>;
  using Entry = typename Leaf::Entry;

  struct Options {
    int root_slot = 0;
  };

  explicit WBTree(nvm::PmemPool& pool, Options opt = {})
      : Shell(pool, opt.root_slot, /*fresh=*/true) {}

  struct recover_t {};
  WBTree(recover_t, nvm::PmemPool& pool, Options opt = {})
      : Shell(pool, opt.root_slot, /*fresh=*/false) {
    const bool crashed = !pool.clean_shutdown();
    pool.mark_dirty();  // dirty strictly before any recovery-time mutation
    if (crashed) this->roll_back_splits();
    this->recover_chain([](Leaf* leaf) -> std::uint64_t {
      if (leaf->valid.load(std::memory_order_relaxed) == 0) {
        // Crash hit between valid:=0 and valid:=1: the logs are the truth.
        // Rebuild the slot array by sorting every allocated entry (last
        // write wins is unnecessary: wB+tree re-points, so the stale slot
        // may reference at most one orphan; a full rebuild from the old
        // image is the documented recovery).  We rebuild conservatively
        // from the highest referenced index.
        rebuild_slot(leaf);
      }
      const int count = leaf->pslot[0];
      std::uint32_t max_idx = 0;
      for (int i = 0; i < count; ++i)
        max_idx = std::max<std::uint32_t>(max_idx, leaf->pslot[1 + i]);
      leaf->nalloc.store(count == 0 ? 0 : max_idx + 1, std::memory_order_relaxed);
      return count;
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
    epoch::Guard g = this->epochs_.pin();
    Leaf* leaf = locate(k);
    const int pos = core::slot_lower_bound(leaf->pslot, leaf->logs, k);
    if (!core::slot_match(leaf->pslot, leaf->logs, pos, k))
      return op.finish(false);
    // Three persistent instructions: valid:=0, slot array, valid:=1.
    set_valid(leaf, 0);
    core::slot_remove_at(leaf->pslot, pos);
    nvm::on_modified(leaf->pslot, kCacheLineSize);
    nvm::persist(leaf->pslot, kCacheLineSize);
    set_valid(leaf, 1);
    this->size_.fetch_sub(1, std::memory_order_relaxed);
    return op.finish(true);
  }

  std::optional<Value> find(Key k) const {
    obs::OpScope op(obs::OpKind::kFind, k);
    epoch::Guard g = this->epochs_.pin();
    Leaf* leaf = locate(k);
    prefetch_range(leaf, sizeof(Leaf));  // overlap fetch with binary probes
    const int pos = core::slot_lower_bound(leaf->pslot, leaf->logs, k);
    if (!core::slot_match(leaf->pslot, leaf->logs, pos, k)) {
      op.finish(false);
      return std::nullopt;
    }
    op.finish(true);
    return leaf->logs[leaf->pslot[1 + pos]].value;
  }

  template <typename Fn>
  std::size_t scan(Key start, Fn&& fn) const {
    obs::OpScope op(obs::OpKind::kScan, start);
    epoch::Guard g = this->epochs_.pin();
    std::size_t visited = 0;
    Leaf* leaf = locate(start);
    bool first = true;
    while (leaf != nullptr) {
      const int count = leaf->pslot[0];
      const int from =
          first ? core::slot_lower_bound(leaf->pslot, leaf->logs, start) : 0;
      for (int i = from; i < count; ++i) {
        const Entry& e = leaf->logs[leaf->pslot[1 + i]];
        ++visited;
        if (!fn(e.key, e.value)) {
          op.finish(visited > 0);
          return visited;
        }
      }
      first = false;
      leaf = next_leaf(leaf);
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

  void set_valid(Leaf* leaf, std::uint64_t v) {
    nvm::store_release(leaf->valid, v);
    nvm::persist(&leaf->valid, sizeof(v));
  }

  static void rebuild_slot(Leaf* leaf) {
    // The previous slot array content (possibly half-written) is discarded;
    // rebuild from the undo image is handled by roll_back_splits, and the
    // per-op window only ever has the OLD slot content available in logs:
    // sort the entries referenced by scanning all log positions that hold
    // initialised keys is not well-defined without a bitmap, so wB+tree's
    // published recovery re-derives the array from the log area.  We keep
    // the old array's entries (they reference only committed logs) and
    // re-sort them defensively.
    const int count = leaf->pslot[0];
    std::sort(leaf->pslot + 1, leaf->pslot + 1 + count,
              [leaf](std::uint8_t a, std::uint8_t b) {
                return leaf->logs[a].key < leaf->logs[b].key;
              });
    nvm::on_modified(leaf->pslot, kCacheLineSize);
    nvm::persist(leaf->pslot, kCacheLineSize);
    nvm::store_release(leaf->valid, std::uint64_t{1});
    nvm::persist(&leaf->valid, sizeof(std::uint64_t));
  }

  common::Status modify(Key k, Value v, Mode mode) {
    epoch::Guard g = this->epochs_.pin();
    Leaf* leaf = locate(k);
    int pos = core::slot_lower_bound(leaf->pslot, leaf->logs, k);
    bool exists = core::slot_match(leaf->pslot, leaf->logs, pos, k);
    if (mode == Mode::kInsert && exists) return common::StatusCode::kKeyExists;
    if (mode == Mode::kUpdate && !exists) return common::StatusCode::kKeyAbsent;
    std::uint32_t e = leaf->nalloc.load(std::memory_order_relaxed);
    if (e >= Leaf::kLogCap || leaf->pslot[0] >= core::kSlotCap) {
      leaf = split(leaf, k);
      if (leaf == nullptr) {
        // Exhausted and not compactable: nothing was mutated, the full
        // leaf stays valid, the op reports the condition to the caller.
        return common::StatusCode::kPoolExhausted;
      }
      pos = core::slot_lower_bound(leaf->pslot, leaf->logs, k);
      exists = core::slot_match(leaf->pslot, leaf->logs, pos, k);
      e = leaf->nalloc.load(std::memory_order_relaxed);
    }
    leaf->nalloc.store(e + 1, std::memory_order_relaxed);

    // Persist #1: the KV entry.
    nvm::store(leaf->logs[e], Entry{k, v});
    nvm::persist(&leaf->logs[e], sizeof(Entry));
    // Persist #2: invalidate the slot array.
    set_valid(leaf, 0);
    // Persist #3: rewrite the slot array in place, keeping it sorted.
    if (exists)
      leaf->pslot[1 + pos] = static_cast<std::uint8_t>(e);
    else
      core::slot_insert_at(leaf->pslot, pos, static_cast<std::uint8_t>(e));
    nvm::on_modified(leaf->pslot, kCacheLineSize);
    nvm::persist(leaf->pslot, kCacheLineSize);
    // Persist #4: revalidate.
    set_valid(leaf, 1);
    if (!exists) this->size_.fetch_add(1, std::memory_order_relaxed);
    return common::OkStatus();
  }

  /// Same split/compaction discipline as RNTree (undo-logged).  Returns
  /// the leaf covering @p k, or nullptr when a real split is required but
  /// the pool cannot supply a sibling (the leaf is left untouched).
  Leaf* split(Leaf* leaf, Key k) {
    nvm::UndoSlot& undo = my_undo();
    const int live = leaf->pslot[0];

    if (live < static_cast<int>(core::kSlotCap) / 2) {
      leaf->vlock.lock();
      leaf->vlock.set_split();
      detail::shell_counters().compactions.inc();
      begin_undo(undo, leaf, 0);
      const Leaf* src = reinterpret_cast<const Leaf*>(undo.data);
      compact_into(leaf, src, 0, live);
      nvm::persist(leaf, sizeof(Leaf));
      end_undo(undo);
      leaf->vlock.unset_split_and_bump();
      leaf->vlock.unlock();
      return leaf;
    }

    // Pre-flight: secure the sibling's space before the lock/splitting bit
    // so exhaustion is detected while nothing has been mutated.
    const std::uint64_t new_off = this->pool_.alloc(sizeof(Leaf));
    if (new_off == 0) return nullptr;
    detail::shell_counters().splits.inc();
    leaf->vlock.lock();
    leaf->vlock.set_split();
    begin_undo(undo, leaf, new_off);
    const Leaf* src = reinterpret_cast<const Leaf*>(undo.data);

    Leaf* nl = this->pool_.template ptr<Leaf>(new_off);
    nl->init();
    const int half = live / 2;
    const Key split_key = src->logs[src->pslot[1 + half]].key;
    compact_into(nl, src, half, live);
    nl->next.store(src->next.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    nl->high_key.store(src->high_key.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    nl->has_high.store(src->has_high.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    nvm::on_modified(nl, sizeof(Leaf));
    nvm::persist(nl, sizeof(Leaf));

    compact_into(leaf, src, 0, half);
    leaf->next.store(new_off, std::memory_order_relaxed);
    leaf->high_key.store(split_key, std::memory_order_relaxed);
    leaf->has_high.store(1, std::memory_order_relaxed);
    nvm::on_modified(leaf, sizeof(Leaf));
    nvm::persist(leaf, sizeof(Leaf));

    end_undo(undo);
    leaf->vlock.unset_split_and_bump();
    this->inner_.insert_split(split_key, leaf, nl);
    leaf->vlock.unlock();
    return k < split_key ? leaf : nl;
  }

  static void compact_into(Leaf* dst, const Leaf* src, int from, int to) {
    for (int i = from; i < to; ++i) {
      nvm::store(dst->logs[i - from], src->logs[src->pslot[1 + i]]);
      dst->pslot[1 + (i - from)] = static_cast<std::uint8_t>(i - from);
    }
    dst->pslot[0] = static_cast<std::uint8_t>(to - from);
    nvm::on_modified(dst->pslot, kCacheLineSize);
    dst->nalloc.store(static_cast<std::uint32_t>(to - from),
                     std::memory_order_relaxed);
    nvm::store_release(dst->valid, std::uint64_t{1});
  }
};

// ---------------------------------------------------------------------------
// WBTreeSO — 8-byte slot array, 7 entries per leaf, 2 persists per modify
// ---------------------------------------------------------------------------

template <typename Key, typename Value>
struct alignas(kCacheLineSize) WbSoLeaf {
  static_assert(sizeof(Key) == 8 && sizeof(Value) == 8);
  static constexpr std::uint32_t kLogCap = 8;   ///< log positions
  static constexpr std::uint32_t kLiveCap = 7;  ///< slots in the 8-byte array

  struct Entry {
    Key key;
    Value value;
  };

  // ---- line 0: header (slot array included: it is only 8 bytes) ----
  std::atomic<std::uint64_t> slot_word;  ///< persistent packed slot array
  htm::VersionLock vlock;
  std::atomic<std::uint64_t> next;
  std::atomic<Key> high_key;
  std::atomic<std::uint32_t> has_high;
  std::uint8_t pad0_[kCacheLineSize - 36];

  // ---- lines 1-2: 8 KV entries ----
  Entry logs[kLogCap];

  void init() noexcept {
    slot_word.store(0, std::memory_order_relaxed);
    vlock.reset();
    next.store(0, std::memory_order_relaxed);
    high_key.store(Key{}, std::memory_order_relaxed);
    has_high.store(0, std::memory_order_relaxed);
  }

  /// Unpack the 8-byte word into slot_util's [count, idx...] layout.
  static void unpack(std::uint64_t w, std::uint8_t* out) noexcept {
    for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(w >> (8 * i));
  }
  static std::uint64_t pack(const std::uint8_t* in) noexcept {
    std::uint64_t w = 0;
    for (int i = 0; i < 8; ++i) w |= static_cast<std::uint64_t>(in[i]) << (8 * i);
    return w;
  }

  /// A log position not referenced by the packed slot array.
  int free_position(const std::uint8_t* slot) const noexcept {
    bool used[kLogCap] = {};
    for (int i = 0; i < slot[0]; ++i) used[slot[1 + i]] = true;
    for (int i = 0; i < static_cast<int>(kLogCap); ++i)
      if (!used[i]) return i;
    return -1;
  }
};

template <typename Key = std::uint64_t, typename Value = std::uint64_t>
class WBTreeSO : public TreeShell<Key, WbSoLeaf<Key, Value>> {
  using Shell = TreeShell<Key, WbSoLeaf<Key, Value>>;
  using Shell::beyond, Shell::locate, Shell::leftmost, Shell::next_leaf;
  using Shell::begin_undo, Shell::end_undo, Shell::my_undo;

 public:
  using Leaf = WbSoLeaf<Key, Value>;
  using Entry = typename Leaf::Entry;

  struct Options {
    int root_slot = 0;
  };

  explicit WBTreeSO(nvm::PmemPool& pool, Options opt = {})
      : Shell(pool, opt.root_slot, /*fresh=*/true) {}

  struct recover_t {};
  WBTreeSO(recover_t, nvm::PmemPool& pool, Options opt = {})
      : Shell(pool, opt.root_slot, /*fresh=*/false) {
    const bool crashed = !pool.clean_shutdown();
    pool.mark_dirty();  // dirty strictly before any recovery-time mutation
    if (crashed) this->roll_back_splits();
    this->recover_chain([](Leaf* leaf) -> std::uint64_t {
      // The slot word is atomically persistent: nothing to fix.
      std::uint8_t slot[8];
      Leaf::unpack(leaf->slot_word.load(std::memory_order_relaxed), slot);
      return slot[0];
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
    epoch::Guard g = this->epochs_.pin();
    Leaf* leaf = locate(k);
    std::uint8_t slot[8];
    Leaf::unpack(leaf->slot_word.load(std::memory_order_relaxed), slot);
    const int pos = core::slot_lower_bound(slot, leaf->logs, k);
    if (!core::slot_match(slot, leaf->logs, pos, k)) return op.finish(false);
    core::slot_remove_at(slot, pos);
    publish_slot(leaf, slot);  // single persistent instruction
    this->size_.fetch_sub(1, std::memory_order_relaxed);
    return op.finish(true);
  }

  std::optional<Value> find(Key k) const {
    obs::OpScope op(obs::OpKind::kFind, k);
    epoch::Guard g = this->epochs_.pin();
    Leaf* leaf = locate(k);
    std::uint8_t slot[8];
    Leaf::unpack(leaf->slot_word.load(std::memory_order_acquire), slot);
    const int pos = core::slot_lower_bound(slot, leaf->logs, k);
    if (!core::slot_match(slot, leaf->logs, pos, k)) {
      op.finish(false);
      return std::nullopt;
    }
    op.finish(true);
    return leaf->logs[slot[1 + pos]].value;
  }

  template <typename Fn>
  std::size_t scan(Key start, Fn&& fn) const {
    obs::OpScope op(obs::OpKind::kScan, start);
    epoch::Guard g = this->epochs_.pin();
    std::size_t visited = 0;
    Leaf* leaf = locate(start);
    bool first = true;
    while (leaf != nullptr) {
      std::uint8_t slot[8];
      Leaf::unpack(leaf->slot_word.load(std::memory_order_acquire), slot);
      const int count = slot[0];
      const int from = first ? core::slot_lower_bound(slot, leaf->logs, start) : 0;
      for (int i = from; i < count; ++i) {
        const Entry& e = leaf->logs[slot[1 + i]];
        ++visited;
        if (!fn(e.key, e.value)) {
          op.finish(visited > 0);
          return visited;
        }
      }
      first = false;
      leaf = next_leaf(leaf);
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

  void publish_slot(Leaf* leaf, const std::uint8_t* slot) {
    nvm::store_release(leaf->slot_word, Leaf::pack(slot));
    nvm::persist(&leaf->slot_word, sizeof(std::uint64_t));
  }

  common::Status modify(Key k, Value v, Mode mode) {
    epoch::Guard g = this->epochs_.pin();
    Leaf* leaf = locate(k);
    std::uint8_t slot[8];
    Leaf::unpack(leaf->slot_word.load(std::memory_order_relaxed), slot);
    int pos = core::slot_lower_bound(slot, leaf->logs, k);
    bool exists = core::slot_match(slot, leaf->logs, pos, k);
    if (mode == Mode::kInsert && exists) return common::StatusCode::kKeyExists;
    if (mode == Mode::kUpdate && !exists) return common::StatusCode::kKeyAbsent;
    if (!exists && slot[0] >= Leaf::kLiveCap) {
      leaf = split(leaf, k);
      // No compaction variant exists (7-entry leaves): a full pool fails
      // the insert cleanly; updates of existing keys never reach here.
      if (leaf == nullptr) return common::StatusCode::kPoolExhausted;
      Leaf::unpack(leaf->slot_word.load(std::memory_order_relaxed), slot);
      pos = core::slot_lower_bound(slot, leaf->logs, k);
      exists = core::slot_match(slot, leaf->logs, pos, k);
    }
    const int free = leaf->free_position(slot);
    // kLiveCap < kLogCap guarantees a free log position exists.
    // Persist #1: the KV entry.
    nvm::store(leaf->logs[free], Entry{k, v});
    nvm::persist(&leaf->logs[free], sizeof(Entry));
    // Persist #2: the 8-byte slot array, atomically.
    if (exists)
      slot[1 + pos] = static_cast<std::uint8_t>(free);
    else
      core::slot_insert_at(slot, pos, static_cast<std::uint8_t>(free));
    publish_slot(leaf, slot);
    if (!exists) this->size_.fetch_add(1, std::memory_order_relaxed);
    return common::OkStatus();
  }

  /// Splits are frequent with 7-entry leaves — the paper's point.  Returns
  /// nullptr (leaf untouched) when the pool cannot supply a sibling.
  Leaf* split(Leaf* leaf, Key k) {
    // Pre-flight: sibling space before the lock/splitting bit.
    const std::uint64_t new_off = this->pool_.alloc(sizeof(Leaf));
    if (new_off == 0) return nullptr;
    detail::shell_counters().splits.inc();
    nvm::UndoSlot& undo = my_undo();
    leaf->vlock.lock();
    leaf->vlock.set_split();
    begin_undo(undo, leaf, new_off);
    const Leaf* src = reinterpret_cast<const Leaf*>(undo.data);

    std::uint8_t sslot[8];
    Leaf::unpack(src->slot_word.load(std::memory_order_relaxed), sslot);
    const int live = sslot[0];
    const int half = live / 2;
    const Key split_key = src->logs[sslot[1 + half]].key;

    Leaf* nl = this->pool_.template ptr<Leaf>(new_off);
    nl->init();
    std::uint8_t nslot[8] = {};
    for (int i = half; i < live; ++i) {
      nvm::store(nl->logs[i - half], src->logs[sslot[1 + i]]);
      nslot[1 + (i - half)] = static_cast<std::uint8_t>(i - half);
    }
    nslot[0] = static_cast<std::uint8_t>(live - half);
    nl->slot_word.store(Leaf::pack(nslot), std::memory_order_relaxed);
    nl->next.store(src->next.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    nl->high_key.store(src->high_key.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    nl->has_high.store(src->has_high.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    nvm::on_modified(nl, sizeof(Leaf));
    nvm::persist(nl, sizeof(Leaf));

    std::uint8_t lslot[8] = {};
    for (int i = 0; i < half; ++i) {
      nvm::store(leaf->logs[i], src->logs[sslot[1 + i]]);
      lslot[1 + i] = static_cast<std::uint8_t>(i);
    }
    lslot[0] = static_cast<std::uint8_t>(half);
    leaf->slot_word.store(Leaf::pack(lslot), std::memory_order_relaxed);
    leaf->next.store(new_off, std::memory_order_relaxed);
    leaf->high_key.store(split_key, std::memory_order_relaxed);
    leaf->has_high.store(1, std::memory_order_relaxed);
    nvm::on_modified(leaf, sizeof(Leaf));
    nvm::persist(leaf, sizeof(Leaf));

    end_undo(undo);
    leaf->vlock.unset_split_and_bump();
    this->inner_.insert_split(split_key, leaf, nl);
    leaf->vlock.unlock();
    return k < split_key ? leaf : nl;
  }
};

}  // namespace rnt::baselines
