// PmemPool — the emulated persistent-memory region.
//
// Models the paper's environment: NVM managed by a DAX filesystem and mmap'd
// into the address space, accessed by ordinary loads/stores.  A pool is one
// contiguous mapping (DRAM-backed for experiments, file-backed to demonstrate
// real cross-process durability).  All persistent cross-references are 8-byte
// *pool offsets* so a pool remains valid wherever it is mapped; offset 0 is
// the null offset (it addresses the pool header).
//
// Header contents (all persistent):
//   * magic/version/size
//   * 8 named root slots (the trees store their leftmost-leaf offset in one;
//     the paper: "the pointer to the left-most leaf node is stored in a
//     well-known static address")
//   * allocation high-water mark, persisted at chunk granularity
//   * clean-shutdown flag distinguishing reconstruction from crash recovery
//   * per-thread split undo-log slots (Alg 3 logs the whole leaf "in a
//     pre-defined thread-local storage" before splitting)
//
// Allocation is sharded: each thread owns a volatile cache that carves
// sub-chunks (kSubChunk) off the shared bump pointer, so the common alloc is
// a thread-local pointer bump with no lock.  Only refills, large blocks
// (>= kSubChunk), and freed-block reuse serialize on the allocation mutex.
// Crash-safety is unchanged from the global-bump design and remains chunk
// (kChunk) granular: the persisted high-water mark only ever moves when a
// refill or large alloc crosses a chunk boundary, and recovery treats
// everything below the mark as potentially live.  What a crash can leak:
//   * the unpersisted remainder of the current chunk (as before), plus
//   * unconsumed space inside live thread caches and the volatile reclaim /
//     free lists — all below the mark, so recovery never hands them out
//     twice; they are simply unreachable space, exactly like blocks freed
//     into the volatile free list before the crash.
// Thread *exit* leaks nothing: an exit hook folds the departing thread's
// cache remainder into a reclaim list that refills prefer over fresh
// carving (see register_thread_exit_hook).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cacheline.hpp"
#include "nvm/persist.hpp"

namespace rnt::nvm {

/// Maximum worker threads supported by the undo-log area and epoch slots.
inline constexpr int kMaxThreads = 64;

/// Per-thread persistent undo-log slot used by leaf splits.  The header
/// fills one cache line so the logged leaf image starts line-aligned: trees
/// read it back through a `const Leaf*`, and leaves are 64-byte aligned.
struct alignas(kCacheLineSize) UndoSlot {
  enum State : std::uint64_t { kIdle = 0, kActive = 1 };
  static constexpr std::size_t kDataSize = 4096 - kCacheLineSize;

  std::uint64_t state;       ///< kIdle or kActive (persisted)
  std::uint64_t target_off;  ///< pool offset of the leaf being split
  std::uint64_t aux_off;     ///< pool offset of the new leaf (freed on rollback)
  std::uint64_t data_size;   ///< bytes of the logged leaf image
  alignas(kCacheLineSize) std::uint8_t data[kDataSize];
};
static_assert(sizeof(UndoSlot) == 4096);
static_assert(offsetof(UndoSlot, data) == kCacheLineSize);

/// Point-in-time fragmentation map of a pool's data area (see
/// PmemPool::fragmentation()).  "Free" means tracked by the volatile
/// allocator state — size-class free lists, folded reclaim spans, and
/// unconsumed thread-cache remainders; everything else inside the
/// allocation frontier counts as live.
struct PoolFragmentation {
  struct Chunk {
    std::uint64_t off = 0;              ///< chunk base offset
    std::uint64_t live_bytes = 0;       ///< allocated and not freed
    std::uint64_t free_bytes = 0;       ///< tracked-free inside this chunk
    std::uint64_t largest_free_run = 0; ///< longest coalesced run (clipped)
  };
  std::uint64_t data_begin = 0;       ///< first allocatable offset
  std::uint64_t bump = 0;             ///< allocation frontier
  std::uint64_t pool_size = 0;
  std::uint64_t allocated_bytes = 0;  ///< bump - data_begin (ever handed out)
  std::uint64_t free_bytes = 0;       ///< tracked-free inside the frontier
  std::uint64_t tail_bytes = 0;       ///< pool_size - bump (never carved)
  std::uint64_t largest_free_run = 0; ///< longest coalesced free run
  std::uint64_t free_blocks = 0;      ///< tracked free spans (pre-coalesce)
  std::vector<Chunk> chunks;          ///< per-kChunk map over the frontier
};

class PmemPool {
 public:
  static constexpr std::uint64_t kMagic = 0x524E545245453139ull;  // "RNTREE19"
  // 16 root slots so a ShardedTree can give each of up to 16 shards its own
  // recovery root in one pool (slot i = shard i).  Header stays well inside
  // the kChunk-aligned data_start, so the layout is unchanged.
  static constexpr int kNumRoots = 16;
  static constexpr std::uint64_t kChunk = 1u << 20;  ///< high-water persist step
  /// Span a thread cache carves off the shared bump pointer per refill.
  /// Large enough that a leaf-heavy workload refills (and so locks) once
  /// every ~50 leaf allocations, small enough that 64 thread caches strand
  /// at most 4 MB in a crash.
  static constexpr std::uint64_t kSubChunk = 64u << 10;

  /// Create a fresh pool.  If @p path is empty the pool is DRAM-backed;
  /// otherwise it is a mmap'd file (created/truncated).
  explicit PmemPool(std::size_t size, const std::string& path = "");

  /// Reopen an existing file-backed pool (recovery entry point).
  explicit PmemPool(const std::string& path);

  PmemPool(const PmemPool&) = delete;
  PmemPool& operator=(const PmemPool&) = delete;
  ~PmemPool();

  /// Translate offset -> pointer.  Offset 0 yields nullptr.
  template <typename T = void>
  T* ptr(std::uint64_t off) const noexcept {
    return off == 0 ? nullptr : reinterpret_cast<T*>(base_ + off);
  }

  /// Translate pointer -> offset (nullptr -> 0).
  std::uint64_t off(const void* p) const noexcept {
    return p == nullptr
               ? 0
               : static_cast<std::uint64_t>(static_cast<const char*>(p) - base_);
  }

  /// Allocate @p size bytes, cache-line aligned.  Returns 0 on exhaustion.
  /// Blocks below kSubChunk are served from the calling thread's cache
  /// (lock-free after the cache holds a span); freed-block reuse and larger
  /// blocks take the allocation mutex.
  std::uint64_t alloc(std::size_t size);

  /// Pre-flight space reservation (see reserve()).  Move-only RAII: an
  /// unconsumed reservation returns its block to the pool on destruction, a
  /// consumed one hands the block to the caller.  Invalid (default / failed
  /// / moved-from) reservations are inert.
  class Reservation {
   public:
    Reservation() noexcept = default;
    Reservation(Reservation&& other) noexcept
        : pool_(other.pool_), off_(other.off_), size_(other.size_) {
      other.pool_ = nullptr;
      other.off_ = 0;
      other.size_ = 0;
    }
    Reservation& operator=(Reservation&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = other.pool_;
        off_ = other.off_;
        size_ = other.size_;
        other.pool_ = nullptr;
        other.off_ = 0;
        other.size_ = 0;
      }
      return *this;
    }
    Reservation(const Reservation&) = delete;
    Reservation& operator=(const Reservation&) = delete;
    ~Reservation() { release(); }

    bool valid() const noexcept { return off_ != 0; }
    std::uint64_t size() const noexcept { return size_; }

    /// Hand the reserved block to the caller; the reservation becomes
    /// invalid.  Must only be called on a valid reservation.
    std::uint64_t consume() noexcept;

    /// Return an unconsumed block to the pool now (idempotent).
    void release() noexcept;

   private:
    friend class PmemPool;
    Reservation(PmemPool* pool, std::uint64_t off, std::uint64_t size) noexcept
        : pool_(pool), off_(off), size_(size) {}
    PmemPool* pool_ = nullptr;
    std::uint64_t off_ = 0;
    std::uint64_t size_ = 0;
  };

  /// Reserve @p size bytes BEFORE entering a critical section, so an
  /// exhausted pool is detected while backing out is still trivial — a
  /// mutation that holds a reservation can never fail on allocation
  /// mid-critical-section.  Returns an invalid Reservation on exhaustion
  /// (counted in pool.reserve.failed).
  Reservation reserve(std::size_t size);

  /// Return a block to the (volatile) free list.
  void free(std::uint64_t offset, std::size_t size);

  /// First offset the data area can ever hand out.  Every offset returned by
  /// alloc() satisfies data_begin() <= off < size() (invariant oracles use
  /// this lower bound to catch allocator corruption).
  static std::uint64_t data_begin() noexcept { return data_start(); }

  /// Named persistent roots.
  std::uint64_t root(int slot) const noexcept;
  void set_root(int slot, std::uint64_t off);  ///< persisted before returning

  UndoSlot& undo_slot(int thread_id) const noexcept;

  char* base() const noexcept { return base_; }
  std::size_t size() const noexcept { return size_; }
  bool is_file_backed() const noexcept { return fd_ >= 0; }

  /// True when the pool was closed cleanly before the last open.
  bool clean_shutdown() const noexcept;

  /// Clean-flag ordering contract (crash-recovery correctness hinges on it):
  ///
  ///   * open — mark_dirty() must be called (and is persisted before
  ///     returning) strictly BEFORE the first pool mutation, so a crash at
  ///     any later point routes the next open down the crash path;
  ///   * close — close_clean() must be called strictly AFTER all data the
  ///     clean path trusts is durable.  The flag store and its fence are
  ///     separate tracked events: a crash between them leaves the flag
  ///     update unflushed — either it is lost (pool reopens dirty; the
  ///     crash path re-derives everything) or an eviction lands it (pool
  ///     reopens clean, which is safe precisely because the data was
  ///     already durable).
  void mark_dirty();
  void close_clean();

  /// Simulate a process restart on a DRAM-backed pool: drops all volatile
  /// allocator state and re-reads the header, exactly like reopening a file.
  void reopen_volatile();

  /// Bytes handed out so far (diagnostics).
  std::uint64_t bytes_used() const noexcept { return bump_.load(std::memory_order_relaxed); }

  /// Point-in-time fragmentation map (diagnostics; takes the allocation
  /// mutex).  Counts are exact for the tracked volatile free state at the
  /// instant of the call; concurrent allocs may race the frontier read by a
  /// few blocks.
  PoolFragmentation fragmentation();

 private:
  struct Header {
    std::uint64_t magic;
    std::uint64_t version;
    std::uint64_t size;
    std::uint64_t used;         // persisted high-water mark (chunk granular)
    std::uint64_t clean;        // 1 = clean shutdown
    std::uint64_t roots[kNumRoots];
  };

  /// Per-thread allocation cache: an unconsumed span carved off bump_.
  /// Volatile by design — a crash leaks the remainders (below the persisted
  /// mark, never re-issued); a thread exit folds them into reclaim_spans_.
  struct alignas(kCacheLineSize) ThreadCache {
    std::uint64_t off = 0;
    std::uint64_t rem = 0;
  };

  /// A folded (offset, length) span available for cache refills.
  struct Span {
    std::uint64_t off;
    std::uint64_t len;
  };

  Header* header() const noexcept { return reinterpret_cast<Header*>(base_); }
  void init_fresh();
  void load_existing();
  void reset_volatile_alloc_state();
  /// Give @p tc a span of at least @p need bytes: a reclaimed span if one
  /// fits, else a fresh kSubChunk (or final remainder) off bump_.  Any prior
  /// remainder is folded first.  Caller must hold alloc_mu_.
  bool refill_cache_locked(ThreadCache& tc, std::uint64_t need);
  /// Bump-allocate @p sz directly (large blocks, near-exhaustion fallback).
  std::uint64_t alloc_direct(std::uint64_t sz);
  /// Thread-exit hook body: fold thread @p tid's cache into reclaim_spans_.
  void fold_thread_cache(int tid);
  static void thread_exit_trampoline(void* self, int tid);
  static std::uint64_t undo_area_off() noexcept {
    return align_up(sizeof(Header), kCacheLineSize);
  }
  static std::uint64_t data_start() noexcept {
    return align_up(undo_area_off() + sizeof(UndoSlot) * kMaxThreads, kChunk);
  }

  char* base_ = nullptr;
  std::size_t size_ = 0;
  int fd_ = -1;
  std::string path_;

  std::atomic<std::uint64_t> bump_{0};
  std::mutex alloc_mu_;
  std::unordered_map<std::size_t, std::vector<std::uint64_t>> free_lists_;
  /// Total blocks across free_lists_; lets alloc skip the mutex when the
  /// free list is known empty (the common case for append-mostly trees).
  std::atomic<std::uint64_t> freelist_count_{0};
  std::vector<Span> reclaim_spans_;  ///< folded exited-thread remainders
  ThreadCache caches_[kMaxThreads];
};

}  // namespace rnt::nvm
