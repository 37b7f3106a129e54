// RNTree leaf node layout — paper Fig 1, one cache line per row.
//
//   line 0 : header — free_mask (volatile), the version-lock word (Fig 2),
//            the two seqlock counters the software HTM backend uses, and the
//            persistent next/high_key chain fields
//   line 1 : persistent slot array (byte 0 = count, bytes 1.. = log indices)
//   line 2 : transient slot array (the dual-slot design, S4.3); contents are
//            volatile — recovery rebuilds it from line 1
//   line 3 : transient fingerprint line (FPTree-style): byte i = 1-byte hash
//            of the key at slot position i.  Maintained inside the same
//            write window as the slot array it mirrors, never persisted —
//            recovery rebuilds it from line 1, so Table-1 persist counts
//            are unchanged.  Point probes SIMD-filter this line before
//            touching any full key (see slot_util.hpp).
//   line 4+: 16-byte KV log entries, cache-line aligned, each written at
//            most once per leaf version
//
// free_mask bit i set means log entry i may be claimed: Alg 2 clears the
// lowest set bit with one CAS, and a shrink split sets every bit the slot
// array does not reference (no NVM write: the entries are already durable).
// It is not persistent state: every open rebuilds it from the slot array
// (S5.4).  high_key/next implement the B-link-style redirection that lets
// readers and writers that raced a split reach the correct half without
// restarting from the root.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/cacheline.hpp"
#include "core/slot_util.hpp"
#include "htm/seqlock.hpp"
#include "htm/version_lock.hpp"

namespace rnt::core {

template <typename Key, typename Value>
struct alignas(kCacheLineSize) RnLeaf {
  static_assert(sizeof(Key) == 8 && sizeof(Value) == 8,
                "v1 leaf layout packs 8-byte keys and values (wrap larger "
                "values behind an 8-byte handle)");

  static constexpr std::uint32_t kLogCap = 64;
  static_assert(kLogCap == 64, "free_mask has one bit per log entry");

  struct Entry {
    Key key;
    Value value;
  };

  // ---- line 0: header ----
  std::atomic<std::uint64_t> free_mask;  ///< claimable log indices (volatile)
  htm::VersionLock vlock;            ///< Fig 2 word (volatile)
  htm::SeqCounter mseq;  ///< modify window over pslot (non-dual-slot readers)
  htm::SeqCounter tseq;  ///< publish window over tslot (dual-slot readers)
  std::atomic<std::uint64_t> next;      ///< pool offset of right sibling (persistent)
  std::atomic<Key> high_key;            ///< exclusive upper bound (persistent)
  std::atomic<std::uint32_t> has_high;  ///< 0 until the first split (persistent)
  /// In-flight log writers (allocated but not yet flushed).  A split must
  /// quiesce these before copying or freeing log indices — the software
  /// stand-in for the conflict detection real RTM would provide.
  std::atomic<std::uint32_t> writers;
  /// The last slot publish deferred its fence to a group-persistency batch
  /// barrier, so the durable slot array may still name indices the volatile
  /// one dropped (volatile; under the leaf lock).
  bool pslot_unfenced;
  std::uint8_t pad0_[kCacheLineSize - 49];

  // ---- line 1: persistent slot array ----
  std::uint8_t pslot[kCacheLineSize];

  // ---- line 2: transient slot array (dual-slot design) ----
  std::uint8_t tslot[kCacheLineSize];

  // ---- line 3: transient fingerprint line (position-parallel to the
  // reader-visible slot array; adjacent to tslot so the dual-slot reader
  // snapshot is one contiguous 128-byte copy) ----
  std::uint8_t fps[kCacheLineSize];

  // ---- lines 4+: KV log entries ----
  Entry logs[kLogCap];

  /// In-place construction on freshly allocated pool memory.
  void init() noexcept {
    free_mask.store(~std::uint64_t{0}, std::memory_order_relaxed);
    writers.store(0, std::memory_order_relaxed);
    pslot_unfenced = false;
    vlock.reset();
    next.store(0, std::memory_order_relaxed);
    high_key.store(Key{}, std::memory_order_relaxed);
    has_high.store(0, std::memory_order_relaxed);
    pslot[0] = 0;
    tslot[0] = 0;
    std::memset(fps, 0, kCacheLineSize);
  }

  std::uint8_t live_count() const noexcept { return pslot[0]; }

  /// Bit i set iff the persistent slot array names log entry i.  Callers
  /// have validated (or written) every index below kLogCap.
  std::uint64_t referenced_mask() const noexcept {
    std::uint64_t m = 0;
    for (int i = 0; i < pslot[0]; ++i) m |= std::uint64_t{1} << pslot[1 + i];
    return m;
  }
};

namespace layout_check {
using L = RnLeaf<std::uint64_t, std::uint64_t>;
static_assert(offsetof(L, free_mask) == 0, "free mask opens the header");
static_assert(offsetof(L, pslot) == kCacheLineSize, "slot array is line 1");
static_assert(offsetof(L, tslot) == 2 * kCacheLineSize, "dual slot is line 2");
static_assert(offsetof(L, fps) == 3 * kCacheLineSize, "fingerprints are line 3");
static_assert(offsetof(L, logs) == 4 * kCacheLineSize, "logs start at line 4");
static_assert(sizeof(L) == 4 * kCacheLineSize + L::kLogCap * sizeof(L::Entry));
static_assert(alignof(L) == kCacheLineSize);
}  // namespace layout_check

}  // namespace rnt::core
