// Tests for the HTM abstraction: spinlock, seqlock, version-lock word, and
// atomic_exec (RTM or software fallback, whichever this host provides).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "htm/rtm.hpp"
#include "htm/seqlock.hpp"
#include "htm/spinlock.hpp"
#include "htm/version_lock.hpp"

namespace rnt::htm {
namespace {

TEST(SpinLock, MutualExclusion) {
  SpinLock lock;
  std::uint64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        SpinGuard g(lock);
        ++counter;
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(SpinLock, TryLockRespectsHolder) {
  SpinLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_TRUE(lock.is_locked());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_FALSE(lock.is_locked());
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(SeqCounter, WriterMakesReaderRetry) {
  SeqCounter seq;
  const std::uint32_t s0 = seq.read_begin();
  EXPECT_TRUE(seq.read_validate(s0));
  seq.write_begin();
  // A reader that started before the write must fail validation.
  EXPECT_FALSE(seq.read_validate(s0));
  seq.write_end();
  EXPECT_FALSE(seq.read_validate(s0));
  const std::uint32_t s1 = seq.read_begin();
  EXPECT_TRUE(seq.read_validate(s1));
  EXPECT_NE(s0, s1);
}

TEST(SeqCounter, ConcurrentReadersNeverObserveTornData) {
  SeqCounter seq;
  std::uint64_t data[8] = {};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  std::thread writer([&] {
    std::uint64_t v = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ++v;
      seq.write_begin();
      for (auto& d : data) d = v;
      seq.write_end();
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::uint64_t local[8];
        const std::uint32_t s = seq.read_begin();
        for (int i = 0; i < 8; ++i) local[i] = data[i];
        if (!seq.read_validate(s)) continue;
        for (int i = 1; i < 8; ++i)
          if (local[i] != local[0]) torn.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop = true;
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0u);
}

TEST(VersionLock, LockBits) {
  VersionLock vl;
  EXPECT_FALSE(VersionLock::locked(vl.raw()));
  vl.lock();
  EXPECT_TRUE(VersionLock::locked(vl.raw()));
  EXPECT_FALSE(vl.try_lock());
  vl.unlock();
  EXPECT_FALSE(VersionLock::locked(vl.raw()));
  EXPECT_TRUE(vl.try_lock());
  vl.unlock();
}

TEST(VersionLock, SplitBumpsVersion) {
  VersionLock vl;
  const std::uint64_t v0 = vl.stable_version();
  vl.lock();
  vl.set_split();
  EXPECT_TRUE(VersionLock::splitting(vl.raw()));
  vl.unset_split_and_bump();
  vl.unlock();
  const std::uint64_t v1 = vl.stable_version();
  EXPECT_NE(v0, v1);
  EXPECT_EQ((v1 & VersionLock::kVersionMask),
            (v0 & VersionLock::kVersionMask) + 1);
}

TEST(VersionLock, StableVersionWaitsOutSplit) {
  VersionLock vl;
  vl.lock();
  vl.set_split();
  std::atomic<bool> got{false};
  std::uint64_t observed = 0;
  std::thread reader([&] {
    observed = vl.stable_version();  // must block until unset_split
    got = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(got.load());
  vl.unset_split_and_bump();
  reader.join();
  EXPECT_TRUE(got.load());
  EXPECT_FALSE(VersionLock::splitting(observed));
  vl.unlock();
}

TEST(VersionLock, RetiredFlagVisibleToStableVersion) {
  VersionLock vl;
  vl.lock();
  vl.set_retired();
  vl.unlock();
  EXPECT_TRUE(VersionLock::retired(vl.stable_version()));
}

TEST(VersionLock, StableVersionMasksLockBit) {
  VersionLock vl;
  vl.lock();
  EXPECT_FALSE(VersionLock::locked(vl.stable_version()));
  vl.unlock();
}

TEST(VersionLock, ResetClears) {
  VersionLock vl;
  vl.lock();
  vl.set_retired();
  vl.reset();
  EXPECT_EQ(vl.raw(), 0u);
}

TEST(AtomicExec, RunsBodyExactlyOnce) {
  SpinLock fb;
  int runs = 0;
  atomic_exec(&fb, [&] { ++runs; });
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(fb.is_locked());
}

TEST(AtomicExec, ProvidesMutualExclusion) {
  SpinLock fb;
  std::uint64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i)
        atomic_exec(&fb, [&] { ++counter; });
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(AtomicExec, MultiWordAtomicVisibility) {
  // Readers using a seqlock and writers using atomic_exec must compose: on
  // the software backend the writer takes the fallback lock which the
  // seqlock write_begin/write_end bracket mirrors.  This test drives the
  // exact pattern the trees use for the slot array.
  SpinLock fb;
  SeqCounter seq;
  std::uint64_t words[4] = {};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  std::thread writer([&] {
    std::uint64_t v = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ++v;
      atomic_exec(&fb, [&] {
        seq.write_begin();
        for (auto& w : words) w = v;
        seq.write_end();
      });
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::uint64_t local[4];
      const std::uint32_t s = seq.read_begin();
      for (int i = 0; i < 4; ++i) local[i] = words[i];
      if (!seq.read_validate(s)) continue;
      for (int i = 1; i < 4; ++i)
        if (local[i] != local[0]) torn.fetch_add(1);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop = true;
  writer.join();
  reader.join();
  EXPECT_EQ(torn.load(), 0u);
}

TEST(AtomicExec, StatsRecordCommits) {
  SpinLock fb;
  const std::uint64_t commits0 = htm_counters().commits.local();
  for (int i = 0; i < 100; ++i) atomic_exec(&fb, [] {});
  EXPECT_EQ(htm_counters().commits.local() - commits0, 100u);
}

TEST(Rtm, SupportQueryIsStable) {
  const bool a = rtm_supported();
  const bool b = rtm_supported();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace rnt::htm
