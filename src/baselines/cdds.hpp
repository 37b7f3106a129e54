// CDDS B-Tree baseline [10] — simplified multi-version leaf.
//
// The paper's Table 1 characterises CDDS with Writes = L (the number of
// entries in the leaf): every modification creates new versioned entries
// rather than overwriting, and keeping entries sorted forces shifting —
// i.e. write amplification proportional to the occupied part of the node.
// CDDS appears in no measured figure, so this implementation exists to make
// Table 1 fully measurable: it reproduces the *cost structure* (sorted
// in-place array, version pair per entry, flush of everything the shift
// touched) with the same recovery-by-versions idea, not every detail of the
// original FAST'11 system.
//
// Leaf layout: a sorted array of versioned entries.  An entry is live when
// end_version == kInfinity.  Insert shifts the tail right and flushes every
// moved line; remove marks end_version; update = remove + insert of a new
// version.  A garbage-collecting split reclaims dead versions.
// Single-threaded, like the original's evaluation in the paper's table.
#pragma once

#include <optional>

#include "baselines/tree_shell.hpp"
#include "common/cacheline.hpp"
#include "common/status.hpp"
#include "htm/version_lock.hpp"
#include "obs/op_scope.hpp"

namespace rnt::baselines {

template <typename Key, typename Value>
struct alignas(kCacheLineSize) CddsLeaf {
  static_assert(sizeof(Key) == 8 && sizeof(Value) == 8);
  static constexpr std::uint32_t kCap = 64;
  static constexpr std::uint64_t kInfinity = ~0ull;

  struct Entry {
    Key key;
    Value value;
    std::uint64_t start_version;
    std::uint64_t end_version;
  };
  static_assert(sizeof(Entry) == 32);

  // ---- line 0: header ----
  std::atomic<std::uint64_t> count;  ///< persistent entry count
  htm::VersionLock vlock;
  std::atomic<std::uint64_t> next;
  std::atomic<Key> high_key;
  std::atomic<std::uint32_t> has_high;
  std::uint8_t pad0_[kCacheLineSize - 36];

  // ---- lines 1+: sorted versioned entries ----
  Entry entries[kCap];

  void init() noexcept {
    count.store(0, std::memory_order_relaxed);
    vlock.reset();
    next.store(0, std::memory_order_relaxed);
    high_key.store(Key{}, std::memory_order_relaxed);
    has_high.store(0, std::memory_order_relaxed);
  }

  /// Index of the live entry holding @p k, or -1.
  int find_live(Key k) const noexcept {
    const auto n = count.load(std::memory_order_acquire);
    for (std::uint64_t i = 0; i < n; ++i)
      if (entries[i].key == k && entries[i].end_version == kInfinity)
        return static_cast<int>(i);
    return -1;
  }

  std::uint64_t live_count() const noexcept {
    const auto n = count.load(std::memory_order_relaxed);
    std::uint64_t live = 0;
    for (std::uint64_t i = 0; i < n; ++i)
      live += entries[i].end_version == kInfinity;
    return live;
  }
};

template <typename Key = std::uint64_t, typename Value = std::uint64_t>
class CDDSTree : public TreeShell<Key, CddsLeaf<Key, Value>> {
  using Shell = TreeShell<Key, CddsLeaf<Key, Value>>;
  using Shell::beyond, Shell::locate, Shell::leftmost, Shell::next_leaf;
  using Shell::begin_undo, Shell::end_undo, Shell::my_undo;

 public:
  using Leaf = CddsLeaf<Key, Value>;
  using Entry = typename Leaf::Entry;

  struct Options {
    int root_slot = 0;
  };

  explicit CDDSTree(nvm::PmemPool& pool, Options opt = {})
      : Shell(pool, opt.root_slot, /*fresh=*/true) {}

  struct recover_t {};
  CDDSTree(recover_t, nvm::PmemPool& pool, Options opt = {})
      : Shell(pool, opt.root_slot, /*fresh=*/false) {
    const bool crashed = !pool.clean_shutdown();
    pool.mark_dirty();  // dirty strictly before any recovery-time mutation
    if (crashed) this->roll_back_splits();
    this->recover_chain([](Leaf* leaf) -> std::uint64_t {
      return leaf->live_count();
    });
  }

  common::Status insert(Key k, Value v) {
    obs::OpScope op(obs::OpKind::kInsert, k);
    const common::Status s = insert_impl(k, v);
    op.finish(static_cast<bool>(s));
    return s;
  }

  common::Status update(Key k, Value v) {
    obs::OpScope op(obs::OpKind::kUpdate, k);
    const common::Status s = update_impl(k, v);
    op.finish(static_cast<bool>(s));
    return s;
  }

  common::Status upsert(Key k, Value v) {
    // One OpScope for the whole upsert: the update/insert impls are called
    // directly so the composite records a single op.upsert, not two ops.
    obs::OpScope op(obs::OpKind::kUpsert, k);
    const common::Status u = update_impl(k, v);
    if (u || u.pool_exhausted()) {
      op.finish(static_cast<bool>(u));
      return u;
    }
    const common::Status s = insert_impl(k, v);
    op.finish(static_cast<bool>(s));
    return s;
  }

  bool remove(Key k) {
    obs::OpScope op(obs::OpKind::kRemove, k);
    epoch::Guard g = this->epochs_.pin();
    Leaf* leaf = locate(k);
    const int idx = leaf->find_live(k);
    if (idx < 0) return op.finish(false);
    end_version(leaf, idx);
    this->size_.fetch_sub(1, std::memory_order_relaxed);
    return op.finish(true);
  }

  std::optional<Value> find(Key k) const {
    obs::OpScope op(obs::OpKind::kFind, k);
    epoch::Guard g = this->epochs_.pin();
    Leaf* leaf = locate(k);
    const int idx = leaf->find_live(k);
    if (idx < 0) {
      op.finish(false);
      return std::nullopt;
    }
    op.finish(true);
    return leaf->entries[idx].value;
  }

  template <typename Fn>
  std::size_t scan(Key start, Fn&& fn) const {
    obs::OpScope op(obs::OpKind::kScan, start);
    epoch::Guard g = this->epochs_.pin();
    std::size_t visited = 0;
    Leaf* leaf = locate(start);
    bool first = true;
    while (leaf != nullptr) {
      const auto n = leaf->count.load(std::memory_order_acquire);
      for (std::uint64_t i = 0; i < n; ++i) {
        const Entry& e = leaf->entries[i];
        if (e.end_version != Leaf::kInfinity) continue;
        if (first && e.key < start) continue;
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
  common::Status insert_impl(Key k, Value v) {
    epoch::Guard g = this->epochs_.pin();
    Leaf* leaf = locate(k);
    if (leaf->find_live(k) >= 0) return common::StatusCode::kKeyExists;
    leaf = ensure_space(leaf, k);
    if (leaf == nullptr) return common::StatusCode::kPoolExhausted;
    insert_version(leaf, k, v);
    this->size_.fetch_add(1, std::memory_order_relaxed);
    return common::OkStatus();
  }

  common::Status update_impl(Key k, Value v) {
    epoch::Guard g = this->epochs_.pin();
    Leaf* leaf = locate(k);
    int idx = leaf->find_live(k);
    if (idx < 0) return common::StatusCode::kKeyAbsent;
    // Multi-version update: secure space for the new version BEFORE retiring
    // the old one, so an exhausted pool leaves the live entry intact.
    leaf = ensure_space(leaf, k);
    if (leaf == nullptr) return common::StatusCode::kPoolExhausted;
    idx = leaf->find_live(k);  // positions move under compaction/split
    end_version(leaf, idx);
    insert_version(leaf, k, v);
    return common::OkStatus();
  }

  std::uint64_t next_version() noexcept {
    return version_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Mark a version dead: one small write + flush.
  void end_version(Leaf* leaf, int idx) {
    nvm::store(leaf->entries[idx].end_version, next_version());
    nvm::persist(&leaf->entries[idx].end_version, sizeof(std::uint64_t));
  }

  /// Insert a new live version at its sorted position: shifts the tail and
  /// flushes EVERYTHING the shift touched — the Writes=L amplification of
  /// Table 1.
  void insert_version(Leaf* leaf, Key k, Value v) {
    const auto n = leaf->count.load(std::memory_order_relaxed);
    std::uint64_t pos = 0;
    while (pos < n && leaf->entries[pos].key < k) ++pos;
    for (std::uint64_t i = n; i > pos; --i) {
      nvm::store(leaf->entries[i], leaf->entries[i - 1]);
      // Each shifted entry is flushed individually: the copy must be
      // durable before the slot it vacated is overwritten, otherwise a
      // crash mid-shift loses an entry (the original CDDS flushes per
      // moved element for exactly this reason).
      nvm::persist(&leaf->entries[i], sizeof(Entry));
    }
    nvm::store(leaf->entries[pos], Entry{k, v, next_version(), Leaf::kInfinity});
    nvm::persist(&leaf->entries[pos], sizeof(Entry));
    nvm::store_release(leaf->count, n + 1);
    nvm::persist(&leaf->count, sizeof(std::uint64_t));
  }

  /// Guarantee a free slot, garbage-collecting or splitting as needed.
  /// Returns the leaf covering @p k afterwards, or nullptr when a split is
  /// required but the pool is exhausted (the leaf is left untouched).
  Leaf* ensure_space(Leaf* leaf, Key k) {
    if (leaf->count.load(std::memory_order_relaxed) < Leaf::kCap) return leaf;
    nvm::UndoSlot& undo = my_undo();
    leaf->vlock.lock();
    const std::uint64_t live = leaf->live_count();
    const Leaf* src;

    if (live < Leaf::kCap / 2) {
      // GC compaction (allocation-free): drop dead versions in place.
      leaf->vlock.set_split();
      detail::shell_counters().compactions.inc();
      begin_undo(undo, leaf, 0);
      src = reinterpret_cast<const Leaf*>(undo.data);
      compact_into(leaf, src, 0, Leaf::kCap, nullptr);
      nvm::persist(leaf, sizeof(Leaf));
      end_undo(undo);
      leaf->vlock.unset_split_and_bump();
      leaf->vlock.unlock();
      return leaf;
    }

    // Pre-flight: sibling space before the splitting bit / undo logging.
    const std::uint64_t new_off = this->pool_.alloc(sizeof(Leaf));
    if (new_off == 0) {
      leaf->vlock.unlock();
      return nullptr;
    }
    detail::shell_counters().splits.inc();
    leaf->vlock.set_split();
    begin_undo(undo, leaf, new_off);
    src = reinterpret_cast<const Leaf*>(undo.data);

    // Live entries are already sorted in src; find the median live key.
    std::vector<const Entry*> live_entries;
    const auto n = src->count.load(std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < n; ++i)
      if (src->entries[i].end_version == Leaf::kInfinity)
        live_entries.push_back(&src->entries[i]);
    const std::size_t half = live_entries.size() / 2;
    const Key split_key = live_entries[half]->key;

    Leaf* nl = this->pool_.template ptr<Leaf>(new_off);
    nl->init();
    std::uint64_t moved = 0;
    for (std::size_t i = half; i < live_entries.size(); ++i)
      nvm::store(nl->entries[moved++], *live_entries[i]);
    nl->count.store(moved, std::memory_order_relaxed);
    nl->next.store(src->next.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    nl->high_key.store(src->high_key.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    nl->has_high.store(src->has_high.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    nvm::on_modified(nl, sizeof(Leaf));
    nvm::persist(nl, sizeof(Leaf));

    std::uint64_t kept = 0;
    for (std::size_t i = 0; i < half; ++i)
      nvm::store(leaf->entries[kept++], *live_entries[i]);
    nvm::store_release(leaf->count, kept);
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

  void compact_into(Leaf* dst, const Leaf* src, std::uint64_t from,
                    std::uint64_t to, std::uint64_t* out_count) {
    std::uint64_t kept = 0;
    const auto n = src->count.load(std::memory_order_relaxed);
    for (std::uint64_t i = from; i < to && i < n; ++i)
      if (src->entries[i].end_version == Leaf::kInfinity)
        nvm::store(dst->entries[kept++], src->entries[i]);
    nvm::store_release(dst->count, kept);
    if (out_count != nullptr) *out_count = kept;
  }

  std::atomic<std::uint64_t> version_{0};
};

}  // namespace rnt::baselines
