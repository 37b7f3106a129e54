// Tests for the persistent-instruction primitives: counters, latency
// accounting, and the paper's "persistent instruction" compound semantics.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/timing.hpp"
#include "nvm/persist.hpp"
#include "obs/metrics.hpp"

namespace rnt::nvm {
namespace {

/// This thread's nvm.* counts (Counter::local()), diffed around a call.
struct Counts {
  std::uint64_t clwb, fence, persist, lines;
  Counts operator-(const Counts& o) const {
    return {clwb - o.clwb, fence - o.fence, persist - o.persist,
            lines - o.lines};
  }
};

Counts local_counts() {
  const PersistCounters& c = persist_counters();
  return {c.clwb.local(), c.fence.local(), c.persist.local(), c.lines.local()};
}

class PersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = config();
    config().write_latency_ns = 0;  // no delays unless a test asks for them
    config().per_line_ns = 0;
  }
  void TearDown() override { config() = saved_; }
  NvmConfig saved_;
};

TEST_F(PersistTest, PersistCountsOneCompound) {
  alignas(64) char buf[256];
  const Counts before = local_counts();
  persist(buf, 64);
  const Counts d = local_counts() - before;
  EXPECT_EQ(d.persist, 1u);
  EXPECT_EQ(d.clwb, 1u);
  EXPECT_EQ(d.fence, 1u);
  EXPECT_EQ(d.lines, 1u);
}

TEST_F(PersistTest, PersistFlushesEveryTouchedLine) {
  alignas(64) char buf[512];
  const Counts before = local_counts();
  persist(buf + 32, 64);  // straddles two lines
  Counts d = local_counts() - before;
  EXPECT_EQ(d.persist, 1u);
  EXPECT_EQ(d.clwb, 2u);

  const Counts before2 = local_counts();
  persist(buf, 512);
  d = local_counts() - before2;
  EXPECT_EQ(d.clwb, 8u);
  EXPECT_EQ(d.fence, 1u);
}

TEST_F(PersistTest, FenceWithoutPendingChargesNothing) {
  const Counts before = local_counts();
  sfence();
  const Counts d = local_counts() - before;
  EXPECT_EQ(d.fence, 1u);
  EXPECT_EQ(d.lines, 0u);
}

TEST_F(PersistTest, LatencyChargedAtFence) {
  alignas(64) char buf[64];
  config().write_latency_ns = 200'000;  // 200 us: measurable
  const std::uint64_t t0 = now_ns();
  persist(buf, 64);
  const std::uint64_t dt = now_ns() - t0;
  EXPECT_GE(dt, 150'000u);
}

TEST_F(PersistTest, PerLineBandwidthTerm) {
  alignas(64) char buf[64 * 32];
  config().write_latency_ns = 0;
  config().per_line_ns = 20'000;  // inflated for measurability
  const std::uint64_t t0 = now_ns();
  persist(buf, sizeof(buf));  // 32 lines -> 31 extra-line charges
  const std::uint64_t dt = now_ns() - t0;
  EXPECT_GE(dt, 31u * 20'000u * 3 / 4);
}

TEST_F(PersistTest, StoreHelpersWriteThrough) {
  std::uint64_t x = 0;
  store(x, std::uint64_t{42});
  EXPECT_EQ(x, 42u);

  std::atomic<std::uint64_t> a{0};
  store_release(a, std::uint64_t{7});
  EXPECT_EQ(a.load(), 7u);

  char src[16] = "hello";
  char dst[16] = {};
  copy_nvm(dst, src, 16);
  EXPECT_STREQ(dst, "hello");

  set_nvm(dst, 0, 16);
  EXPECT_EQ(dst[0], 0);
}

TEST_F(PersistTest, AggregateSumsAcrossThreads) {
  alignas(64) char buf[64];
  const PersistCounters& c = persist_counters();
  const std::uint64_t persist0 = c.persist.value();
  const std::uint64_t fence0 = c.fence.value();
  persist(buf, 8);
  std::thread t([&] {
    alignas(64) char tbuf[64] = {};
    persist(tbuf, 8);
    persist(tbuf, 8);
  });
  t.join();
  EXPECT_EQ(c.persist.value() - persist0, 3u);
  EXPECT_EQ(c.fence.value() - fence0, 3u);
}

TEST_F(PersistTest, AggregateIncludesExitedThreads) {
  // Both recorder threads exit before aggregation; their counts must have
  // been folded into the registry's retired totals, not lost.
  const PersistCounters& c = persist_counters();
  const std::uint64_t persist0 = c.persist.value();
  const std::uint64_t fence0 = c.fence.value();
  const std::uint64_t clwb0 = c.clwb.value();
  for (int t = 0; t < 2; ++t) {
    std::thread([] {
      alignas(64) char tbuf[64] = {};
      persist(tbuf, 8);
      persist(tbuf, 8);
    }).join();
  }
  EXPECT_EQ(c.persist.value() - persist0, 4u);
  EXPECT_EQ(c.fence.value() - fence0, 4u);
  EXPECT_EQ(c.clwb.value() - clwb0, 4u);
}

TEST_F(PersistTest, AggregateWhileRecordersLive) {
  // Recorders bump their cells while the main thread aggregates: every read
  // of a live thread's cell must be a well-defined race (the regression a
  // TSan build catches), and once the recorders have exited the aggregate
  // must account for every persist they counted themselves.
  const obs::Counter& persists = persist_counters().persist;
  const std::uint64_t persist0 = persists.value();
  constexpr int kRecorders = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::atomic<std::uint64_t> recorded{0};
  std::vector<std::thread> recorders;
  for (int t = 0; t < kRecorders; ++t) {
    recorders.emplace_back([&] {
      alignas(64) char tbuf[64] = {};
      persist(tbuf, 8);
      ++started;
      while (!stop.load(std::memory_order_relaxed)) persist(tbuf, 8);
      recorded += persists.local();
    });
  }
  while (started.load() < kRecorders) std::this_thread::yield();
  for (int i = 0; i < 200; ++i) (void)obs::snapshot();
  stop = true;
  for (auto& t : recorders) t.join();
  EXPECT_GE(recorded.load(), static_cast<std::uint64_t>(kRecorders));
  EXPECT_EQ(persists.value() - persist0, recorded.load());
}

TEST_F(PersistTest, NoShadowActiveByDefault) {
  EXPECT_EQ(shadow_active(), nullptr);
}

}  // namespace
}  // namespace rnt::nvm
