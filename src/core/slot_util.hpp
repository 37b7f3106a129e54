// Indirect slot-array helpers (paper Fig 1 / wB+tree [7]).
//
// A slot array is one cache line: byte 0 holds the number of live entries,
// bytes 1..63 hold log-entry indices ordered by key.  It is the indirection
// that lets a leaf stay logically sorted while its KV log remains
// append-only.  These helpers operate on a *local copy* (a snapshot or a
// scratch buffer being prepared for an atomic publish) — never in place on a
// shared leaf.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

#include "common/cacheline.hpp"
#include "common/hints.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace rnt::core {

inline constexpr std::uint32_t kSlotCap = kCacheLineSize - 1;  // 63 entries

inline std::uint8_t slot_count(const std::uint8_t* slot) noexcept {
  return slot[0];
}

/// First position whose key is >= k (binary search through the indirection).
/// The search helpers below carry RNT_NO_SANITIZE_THREAD because RNTree's
/// seqlock readers call them against live log arrays while writers append —
/// a by-design race resolved by post-read validation (common/hints.hpp).
template <typename Entry, typename Key>
RNT_NO_SANITIZE_THREAD int slot_lower_bound(const std::uint8_t* slot,
                                            const Entry* logs, Key k) noexcept {
  int lo = 0, hi = slot[0];
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (logs[slot[1 + mid]].key < k)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

/// True if position @p pos holds exactly key @p k.
template <typename Entry, typename Key>
RNT_NO_SANITIZE_THREAD bool slot_match(const std::uint8_t* slot,
                                       const Entry* logs, int pos, Key k) noexcept {
  return pos < slot[0] && logs[slot[1 + pos]].key == k;
}

/// Insert log index @p log_idx at sorted position @p pos (caller-searched).
inline void slot_insert_at(std::uint8_t* slot, int pos, std::uint8_t log_idx) noexcept {
  const int count = slot[0];
  std::memmove(slot + 1 + pos + 1, slot + 1 + pos,
               static_cast<std::size_t>(count - pos));
  slot[1 + pos] = log_idx;
  slot[0] = static_cast<std::uint8_t>(count + 1);
}

/// Remove the entry at position @p pos.
inline void slot_remove_at(std::uint8_t* slot, int pos) noexcept {
  const int count = slot[0];
  std::memmove(slot + 1 + pos, slot + 1 + pos + 1,
               static_cast<std::size_t>(count - pos - 1));
  slot[0] = static_cast<std::uint8_t>(count - 1);
}

// ---------------------------------------------------------------------------
// Key fingerprints (FPTree-style, SIGMOD'16): a transient 1-byte hash per
// slot position lets a point probe reject most positions with one SIMD/SWAR
// compare over a single cache line instead of a binary search whose every
// probe is a dependent load through the slot indirection.  The fingerprint
// line is volatile — rebuilt from the persistent slot array on recovery —
// so it adds zero persistent instructions to any op (Table 1 unchanged).
// ---------------------------------------------------------------------------

/// 1-byte key fingerprint.  Multiplicative (Fibonacci) hash: the top byte
/// mixes every input bit, so sequential and scrambled key streams both
/// spread across the 256 buckets (expected false-positive probes per miss
/// at 63 live entries: 63/256 ~= 0.25).
template <typename Key>
inline std::uint8_t key_fp(Key k) noexcept {
  return static_cast<std::uint8_t>(
      (static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ull) >> 56);
}

/// Bitmask of positions in [0, count) whose fingerprint byte equals @p fp.
/// Reads a fixed 64 bytes (one full line) branch-free; @p fps must be a
/// 64-byte array.  count must be <= 63 (kSlotCap).
inline std::uint64_t fp_match_mask(const std::uint8_t* fps, int count,
                                   std::uint8_t fp) noexcept {
  std::uint64_t m = 0;
#if defined(__SSE2__)
  const __m128i needle = _mm_set1_epi8(static_cast<char>(fp));
  for (int i = 0; i < 64; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(fps + i));
    m |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
             _mm_movemask_epi8(_mm_cmpeq_epi8(v, needle))))
         << i;
  }
#else
  // SWAR: XOR with the broadcast byte, detect zero bytes, compact each
  // byte's high bit into one bit via the movemask multiply trick.
  constexpr std::uint64_t kLo = 0x0101010101010101ull;
  constexpr std::uint64_t kHi = 0x8080808080808080ull;
  const std::uint64_t bcast = kLo * fp;
  for (int w = 0; w < 8; ++w) {
    std::uint64_t x;
    std::memcpy(&x, fps + w * 8, 8);
    x ^= bcast;
    const std::uint64_t zero = (x - kLo) & ~x & kHi;
    m |= (((zero >> 7) * 0x0102040810204080ull) >> 56) << (w * 8);
  }
#endif
  return m & ((std::uint64_t{1} << count) - 1);
}

/// Exact-match probe: position of key @p k, or -1 if absent.  Fingerprint
/// candidates are verified against the full key through the indirection, so
/// false positives cost one extra key load and false negatives are
/// impossible.  @p fps[i] must hold key_fp of the key at slot position i.
template <typename Entry, typename Key>
RNT_NO_SANITIZE_THREAD int slot_fp_find(const std::uint8_t* slot,
                                        const std::uint8_t* fps,
                                        const Entry* logs, Key k) noexcept {
  std::uint64_t m = fp_match_mask(fps, slot[0], key_fp(k));
  while (m != 0) {
    const int i = std::countr_zero(m);
    if (logs[slot[1 + i]].key == k) return i;
    m &= m - 1;
  }
  return -1;
}

/// slot_insert_at + the parallel fingerprint-line insert (same position).
inline void slot_fp_insert_at(std::uint8_t* slot, std::uint8_t* fps, int pos,
                              std::uint8_t log_idx, std::uint8_t fp) noexcept {
  const int count = slot[0];
  std::memmove(fps + pos + 1, fps + pos, static_cast<std::size_t>(count - pos));
  fps[pos] = fp;
  slot_insert_at(slot, pos, log_idx);
}

/// slot_remove_at + the parallel fingerprint-line remove.
inline void slot_fp_remove_at(std::uint8_t* slot, std::uint8_t* fps,
                              int pos) noexcept {
  const int count = slot[0];
  std::memmove(fps + pos, fps + pos + 1,
               static_cast<std::size_t>(count - pos - 1));
  slot_remove_at(slot, pos);
}

/// Rebuild the whole fingerprint line from a slot array and its log (splits,
/// recovery).  Positions >= count are zeroed for determinism.
template <typename Entry>
inline void slot_fp_rebuild(const std::uint8_t* slot, std::uint8_t* fps,
                            const Entry* logs) noexcept {
  const int count = slot[0];
  for (int i = 0; i < count; ++i) fps[i] = key_fp(logs[slot[1 + i]].key);
  std::memset(fps + count, 0, static_cast<std::size_t>(64 - count));
}

}  // namespace rnt::core
