// NVTree baseline [8], re-implemented per the paper's S6 description:
//
//   * append-only unsorted leaf: every insert/update/remove appends a log
//     entry at the end and bumps the persistent nElement counter — exactly
//     2 persistent instructions per modify (Table 1),
//   * the paper's optimisation is applied: update appends a single entry
//     (no remove+insert pair) and reads scan the log back-to-front so the
//     newest entry for a key wins,
//   * find/range query must scan (and, for ranges, sort) whole leaves,
//   * optional conditional-write mode (S3.3/Fig 5): insert/update first scan
//     the leaf for the key's existence, costing ~19% extra,
//   * single-threaded by design, like the original (Table 1: no concurrency).
//
// Deviations from the original NVTree also follow the paper's re-
// implementation notes: the static internal-node architecture is replaced by
// the shared volatile inner tree.
#pragma once

#include <algorithm>
#include <optional>

#include "baselines/tree_shell.hpp"
#include "common/cacheline.hpp"
#include "common/status.hpp"
#include "htm/version_lock.hpp"
#include "obs/op_scope.hpp"

namespace rnt::baselines {

template <typename Key, typename Value>
struct alignas(kCacheLineSize) NvLeaf {
  static_assert(sizeof(Key) == 8 && sizeof(Value) == 8);
  static constexpr std::uint32_t kLogCap = 64;

  enum Op : std::uint64_t { kInsertLog = 1, kRemoveLog = 2 };

  /// 32-byte log entry (flag + KV), two per cache line, never straddling.
  struct Entry {
    std::uint64_t flag;
    Key key;
    Value value;
    std::uint64_t pad;
  };
  static_assert(sizeof(Entry) == 32);

  // ---- line 0: header ----
  std::atomic<std::uint64_t> n_element;  ///< persisted log count (the metadata)
  htm::VersionLock vlock;                ///< volatile (recovery resets)
  std::atomic<std::uint64_t> next;
  std::atomic<Key> high_key;
  std::atomic<std::uint32_t> has_high;
  std::uint8_t pad0_[kCacheLineSize - 36];

  // ---- lines 1+: append-only log ----
  Entry logs[kLogCap];

  void init() noexcept {
    n_element.store(0, std::memory_order_relaxed);
    vlock.reset();
    next.store(0, std::memory_order_relaxed);
    high_key.store(Key{}, std::memory_order_relaxed);
    has_high.store(0, std::memory_order_relaxed);
  }

  /// Newest entry for @p k.  Faithful to the paper's cost model: "read-only
  /// operations have to scan the whole nodes" — every log entry is examined
  /// and the last match wins (no early exit).
  const Entry* newest(Key k, std::uint64_t n) const noexcept {
    const Entry* found = nullptr;
    for (std::uint64_t i = 0; i < n; ++i)
      if (logs[i].key == k) found = &logs[i];
    return found;
  }

  /// Materialise the live (deduplicated, remove-applied) set, unsorted.
  template <typename OutFn>
  void live_entries(std::uint64_t n, OutFn&& out) const {
    // Back-to-front: the first occurrence of a key is its newest entry.
    // Quadratic in the log length — faithfully the cost structure the
    // paper charges unsorted leaves with.
    for (std::uint64_t i = n; i > 0; --i) {
      const Entry& e = logs[i - 1];
      bool superseded = false;
      for (std::uint64_t j = n; j > i; --j)
        if (logs[j - 1].key == e.key) {
          superseded = true;
          break;
        }
      if (!superseded && e.flag == kInsertLog) out(e.key, e.value);
    }
  }
};

template <typename Key = std::uint64_t, typename Value = std::uint64_t>
class NVTree : public TreeShell<Key, NvLeaf<Key, Value>> {
  using Shell = TreeShell<Key, NvLeaf<Key, Value>>;
  using Shell::beyond, Shell::locate, Shell::leftmost, Shell::next_leaf;
  using Shell::begin_undo, Shell::end_undo, Shell::my_undo;

 public:
  using Leaf = NvLeaf<Key, Value>;
  using Entry = typename Leaf::Entry;

  struct Options {
    /// Fig 5: scan the leaf for key existence before every modify so
    /// insert/update have conditional (unique-key) semantics.
    bool conditional_write = false;
    int root_slot = 0;
  };

  explicit NVTree(nvm::PmemPool& pool, Options opt = {})
      : Shell(pool, opt.root_slot, /*fresh=*/true), opt_(opt) {}

  struct recover_t {};
  NVTree(recover_t, nvm::PmemPool& pool, Options opt = {})
      : Shell(pool, opt.root_slot, /*fresh=*/false), opt_(opt) {
    const bool crashed = !pool.clean_shutdown();
    pool.mark_dirty();  // dirty strictly before any recovery-time mutation
    if (crashed) this->roll_back_splits();
    this->recover_chain([](Leaf* leaf) -> std::uint64_t {
      // nElement is persisted on every modify: the leaf is self-describing.
      std::uint64_t live = 0;
      leaf->live_entries(leaf->n_element.load(std::memory_order_relaxed),
                         [&](Key, Value) { ++live; });
      return live;
    });
  }

  common::Status insert(Key k, Value v) {
    obs::OpScope op(obs::OpKind::kInsert, k);
    const common::Status s = modify(k, v, Leaf::kInsertLog, false);
    op.finish(static_cast<bool>(s));
    return s;
  }
  common::Status update(Key k, Value v) {
    obs::OpScope op(obs::OpKind::kUpdate, k);
    const common::Status s = modify(k, v, Leaf::kInsertLog, true);
    op.finish(static_cast<bool>(s));
    return s;
  }
  common::Status upsert(Key k, Value v) {
    // One OpScope for the whole upsert: calls modify directly (not the
    // instrumented insert/update wrappers) so a single op.upsert is
    // recorded.  Without conditional mode insert==update==append; with it,
    // try both.
    obs::OpScope op(obs::OpKind::kUpsert, k);
    if (opt_.conditional_write) {
      const common::Status u = modify(k, v, Leaf::kInsertLog, true);
      if (u || u.pool_exhausted()) {
        op.finish(static_cast<bool>(u));
        return u;
      }
    }
    const common::Status s = modify(k, v, Leaf::kInsertLog, false);
    op.finish(static_cast<bool>(s));
    return s;
  }

  /// Remove appends a log entry, so (unlike the in-place trees) it consumes
  /// space and can report kPoolExhausted on a full leaf in a full pool.
  common::Status remove(Key k) {
    obs::OpScope op(obs::OpKind::kRemove, k);
    epoch::Guard g = this->epochs_.pin();
    Leaf* leaf = locate(k);
    std::uint64_t n = leaf->n_element.load(std::memory_order_relaxed);
    if (opt_.conditional_write) {
      const Entry* cur = leaf->newest(k, n);
      if (cur == nullptr || cur->flag == Leaf::kRemoveLog) {
        op.finish(false);
        return common::StatusCode::kKeyAbsent;
      }
    }
    if (n >= Leaf::kLogCap) {
      leaf = split(leaf, k);
      if (leaf == nullptr) {
        op.finish(false);
        return common::StatusCode::kPoolExhausted;
      }
      n = leaf->n_element.load(std::memory_order_relaxed);
    }
    // Basic (non-conditional) NVTree appends the remove log blindly; the
    // size counter is then approximate, matching the original's semantics.
    append(leaf, n, Entry{Leaf::kRemoveLog, k, Value{}, 0});
    this->size_.fetch_sub(1, std::memory_order_relaxed);
    op.finish(true);
    return common::OkStatus();
  }

  std::optional<Value> find(Key k) const {
    obs::OpScope op(obs::OpKind::kFind, k);
    epoch::Guard g = this->epochs_.pin();
    Leaf* leaf = locate(k);
    const std::uint64_t n = leaf->n_element.load(std::memory_order_acquire);
    const Entry* e = leaf->newest(k, n);
    if (e == nullptr || e->flag == Leaf::kRemoveLog) {
      op.finish(false);
      return std::nullopt;
    }
    op.finish(true);
    return e->value;
  }

  /// Range query: each visited leaf must be materialised and sorted first —
  /// the cost the paper's Fig 6 quantifies.
  template <typename Fn>
  std::size_t scan(Key start, Fn&& fn) const {
    obs::OpScope op(obs::OpKind::kScan, start);
    epoch::Guard g = this->epochs_.pin();
    std::size_t visited = 0;
    Leaf* leaf = locate(start);
    bool first = true;
    while (leaf != nullptr) {
      std::vector<std::pair<Key, Value>> batch;
      leaf->live_entries(leaf->n_element.load(std::memory_order_acquire),
                         [&](Key k, Value v) { batch.emplace_back(k, v); });
      std::sort(batch.begin(), batch.end());
      for (auto& [k, v] : batch) {
        if (first && k < start) continue;
        ++visited;
        if (!fn(k, v)) {
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

  bool conditional_write() const noexcept { return opt_.conditional_write; }

 private:
  /// Append + bump nElement: the two persistent instructions.
  void append(Leaf* leaf, std::uint64_t n, const Entry& e) {
    nvm::store(leaf->logs[n], e);
    nvm::persist(&leaf->logs[n], sizeof(Entry));
    nvm::store_release(leaf->n_element, n + 1);
    nvm::persist(&leaf->n_element, sizeof(std::uint64_t));
  }

  common::Status modify(Key k, Value v, std::uint64_t flag, bool must_exist) {
    epoch::Guard g = this->epochs_.pin();
    Leaf* leaf = locate(k);
    std::uint64_t n = leaf->n_element.load(std::memory_order_relaxed);
    if (opt_.conditional_write) {
      // The ~19% overhead: a full existence scan before the append.
      const Entry* cur = leaf->newest(k, n);
      const bool exists = cur != nullptr && cur->flag == Leaf::kInsertLog;
      if (must_exist && !exists) return common::StatusCode::kKeyAbsent;
      if (!must_exist && exists) return common::StatusCode::kKeyExists;
    }
    if (n >= Leaf::kLogCap) {
      leaf = split(leaf, k);
      // Exhausted and not compactable: leaf untouched, op cleanly refused.
      if (leaf == nullptr) return common::StatusCode::kPoolExhausted;
      n = leaf->n_element.load(std::memory_order_relaxed);
    }
    // In conditional mode the existence scan above makes this exact; the
    // basic mode appends with no existence knowledge, so size becomes
    // approximate (the original NVTree tracks no size at all).
    append(leaf, n, Entry{flag, k, v, 0});
    if (!must_exist) this->size_.fetch_add(1, std::memory_order_relaxed);
    return common::OkStatus();
  }

  /// Split: gather + sort live entries (the slow part the paper calls out:
  /// "NVTree has to sort all data in the node before splitting"), then
  /// either compact in place (few live entries) or divide into two leaves.
  /// Returns the leaf now covering @p k, or nullptr when a real split is
  /// needed but the pool cannot supply a sibling (the leaf is untouched).
  Leaf* split(Leaf* leaf, Key k) {
    std::vector<std::pair<Key, Value>> live;
    leaf->live_entries(leaf->n_element.load(std::memory_order_relaxed),
                       [&](Key key, Value val) { live.emplace_back(key, val); });
    std::sort(live.begin(), live.end());

    nvm::UndoSlot& undo = my_undo();

    if (live.size() < Leaf::kLogCap / 2) {
      // Compaction: rewrite the log area with only live inserts.
      leaf->vlock.lock();
      leaf->vlock.set_split();
      detail::shell_counters().compactions.inc();
      begin_undo(undo, leaf, 0);
      rewrite(leaf, live, 0, live.size());
      nvm::persist(leaf, sizeof(Leaf));
      end_undo(undo);
      leaf->vlock.unset_split_and_bump();
      leaf->vlock.unlock();
      return beyond(leaf, k) ? locate(k) : leaf;
    }

    // Pre-flight: secure the sibling's space before the lock/splitting bit
    // so exhaustion is detected while nothing has been mutated.
    const std::uint64_t new_off = this->pool_.alloc(sizeof(Leaf));
    if (new_off == 0) return nullptr;
    detail::shell_counters().splits.inc();
    leaf->vlock.lock();
    leaf->vlock.set_split();
    begin_undo(undo, leaf, new_off);

    Leaf* nl = this->pool_.template ptr<Leaf>(new_off);
    nl->init();
    const std::size_t half = live.size() / 2;
    const Key split_key = live[half].first;
    rewrite(nl, live, half, live.size());
    nl->next.store(leaf->next.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    nl->high_key.store(leaf->high_key.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    nl->has_high.store(leaf->has_high.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    nvm::on_modified(nl, sizeof(Leaf));
    nvm::persist(nl, sizeof(Leaf));

    rewrite(leaf, live, 0, half);
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

  void rewrite(Leaf* leaf, const std::vector<std::pair<Key, Value>>& live,
               std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i)
      nvm::store(leaf->logs[i - from],
                 Entry{Leaf::kInsertLog, live[i].first, live[i].second, 0});
    nvm::store_release(leaf->n_element, static_cast<std::uint64_t>(to - from));
  }

  Options opt_;
};

}  // namespace rnt::baselines
