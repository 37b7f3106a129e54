// Scan telemetry regression tests: RNTree::scan must record exactly one
// op.scan event per call (finished AFTER the leaf walk with the real
// success flag — the original instrumentation finished before walking and
// always reported success with zero latency), must land a nonzero latency
// sample in lat.op.scan, and must attribute heatmap kOp events to every
// leaf range the scan visits, not just its start bucket.
//
// The typed suite at the bottom covers the five baseline trees: the PR-8
// audit (OBSERVABILITY.md) recorded that they emitted no op.* telemetry at
// all, so cross-tree latency comparisons in fig4 silently compared RNTree's
// instrumented numbers against nothing.  Every baseline op must now record
// exactly one op.<kind> event (upsert composites included) with a latency
// sample.
//
// A ShardedTree scan is one op too: 4-shard scans, hash-merged and
// range-concatenated, must pass the same count and heat checks.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "baselines/cdds.hpp"
#include "baselines/fptree.hpp"
#include "baselines/nvtree.hpp"
#include "baselines/wbtree.hpp"
#include "core/rntree.hpp"
#include "nvm/pool.hpp"
#include "obs/heatmap.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "shard/sharded_tree.hpp"

namespace rnt {
namespace {

using Tree = core::RNTree<std::uint64_t, std::uint64_t>;
using Sharded = shard::ShardedTree<std::uint64_t, std::uint64_t>;
constexpr shard::Partition kPartitions[] = {shard::Partition::kHash,
                                            shard::Partition::kRange};

obs::HistogramSummary hist_of(const obs::Snapshot& snap, std::string_view name) {
  for (const auto& [n, h] : snap.histograms)
    if (n == name) return h;
  return {};
}

class ScanTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = nvm::config();
    nvm::config().write_latency_ns = 0;
    nvm::config().per_line_ns = 0;
    obs::set_phase_timing(true);
    if (!obs::phase_timing_enabled())
      GTEST_SKIP() << "phase timing compiled out";
  }
  void TearDown() override {
    obs::set_phase_timing(false);
    nvm::config() = saved_;
  }
  nvm::NvmConfig saved_;
};

// Five 200-entry scans over keys 0, 3, ..., 8997.
template <typename T>
void expect_one_event_per_scan(const T& tree) {
  const obs::Snapshot before = obs::snapshot();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  constexpr std::uint64_t kScans = 5;
  for (std::uint64_t i = 0; i < kScans; ++i)
    ASSERT_EQ(tree.scan_n(i * 600, 200, out), 200u);
  const obs::Snapshot after = obs::snapshot();

  EXPECT_EQ(after.counter("op.scan") - before.counter("op.scan"), kScans);
  const obs::HistogramSummary h0 = hist_of(before, "lat.op.scan");
  const obs::HistogramSummary h1 = hist_of(after, "lat.op.scan");
  EXPECT_EQ(h1.count - h0.count, kScans);
  // A 200-key walk takes real time; the latency samples cannot all be zero.
  EXPECT_GT(h1.sum, h0.sum);
}

TEST_F(ScanTelemetryTest, OneOpScanEventPerScan) {
  {
    nvm::PmemPool pool(std::size_t{16} << 20);
    Tree tree(pool);
    for (std::uint64_t i = 0; i < 3000; ++i)
      ASSERT_TRUE(tree.insert(i * 3, i));
    expect_one_event_per_scan(tree);
  }
  // Hash scans read every shard; range shards split at 2250, so the scan
  // from 1800 crosses a boundary.
  for (const shard::Partition p : kPartitions) {
    SCOPED_TRACE(p == shard::Partition::kHash ? "hash" : "range");
    nvm::PmemPool pool(std::size_t{32} << 20);
    Sharded tree(pool, {.shards = 4, .partition = p, .key_space = 9000});
    for (std::uint64_t i = 0; i < 3000; ++i)
      ASSERT_TRUE(tree.insert(i * 3, i));
    expect_one_event_per_scan(tree);
  }
}

TEST_F(ScanTelemetryTest, EmptyScanStillCountsAsMiss) {
  nvm::PmemPool pool(std::size_t{16} << 20);
  Tree tree(pool);
  for (std::uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(tree.insert(i, i));

  const obs::Snapshot before = obs::snapshot();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  EXPECT_EQ(tree.scan_n(1'000'000, 10, out), 0u);  // beyond every key
  const obs::Snapshot after = obs::snapshot();
  EXPECT_EQ(after.counter("op.scan") - before.counter("op.scan"), 1u);
}

#if !defined(RNTREE_NO_OP_OBSERVATION)

// A full-range scan must heat the buckets of every leaf it visits — one kOp
// record per visited leaf beyond the first — so heatmaps show the range a
// scan-heavy workload actually touches.
// Number of heatmap buckets a scan of @p n entries from key 0 heats.
template <typename T>
int heated_by_full_scan(const T& tree, std::uint64_t n) {
  obs::heatmap_reset();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  EXPECT_EQ(tree.scan_n(0, n, out), n);
  constexpr int kOpIdx = static_cast<int>(obs::HeatCause::kOp);
  int heated = 0;
  for (const obs::HeatBucket& b : obs::heatmap_snapshot().buckets)
    if (b.counts[kOpIdx] > 0) ++heated;
  return heated;
}

TEST_F(ScanTelemetryTest, ScanHeatsTheVisitedRange) {
  constexpr std::uint64_t kSpace = 8192;
  ASSERT_TRUE(obs::heatmap_configure({.buckets = 64, .key_space = kSpace}));
  obs::set_heatmap_enabled(true);

  // 8192 dense keys span > 100 leaves; with 64 buckets over the key space
  // the visited range heats most of the table, not just bucket 0.
  {
    nvm::PmemPool pool(std::size_t{16} << 20);
    Tree tree(pool);
    for (std::uint64_t k = 0; k < kSpace; ++k) ASSERT_TRUE(tree.insert(k, k));
    EXPECT_GE(heated_by_full_scan(tree, kSpace), 32)
        << "scan heat stuck at its start bucket";
  }
  // Across shards every shard cursor heats the leaves it reads.
  for (const shard::Partition p : kPartitions) {
    SCOPED_TRACE(p == shard::Partition::kHash ? "hash" : "range");
    nvm::PmemPool pool(std::size_t{32} << 20);
    Sharded tree(pool, {.shards = 4, .partition = p, .key_space = kSpace});
    for (std::uint64_t k = 0; k < kSpace; ++k) ASSERT_TRUE(tree.insert(k, k));
    EXPECT_GE(heated_by_full_scan(tree, kSpace), 32)
        << "cross-shard scan heat stuck at its start bucket";
  }

  obs::set_heatmap_enabled(false);
  obs::heatmap_reset();
}

#endif  // !RNTREE_NO_OP_OBSERVATION

// --- baseline OpScope coverage ---------------------------------------------

template <typename TreeT>
class BaselineOpTelemetryTest : public ScanTelemetryTest {};

using BaselineTypes =
    ::testing::Types<baselines::CDDSTree<>, baselines::FPTree<>,
                     baselines::NVTree<>, baselines::WBTree<>,
                     baselines::WBTreeSO<>>;
TYPED_TEST_SUITE(BaselineOpTelemetryTest, BaselineTypes);

TYPED_TEST(BaselineOpTelemetryTest, EveryOpKindRecordsExactlyOnce) {
  nvm::PmemPool pool(std::size_t{16} << 20);
  TypeParam tree(pool);
  for (std::uint64_t i = 0; i < 400; ++i)
    ASSERT_TRUE(tree.insert(i * 2, i));  // warm-up (counted, then diffed away)

  const obs::Snapshot before = obs::snapshot();
  constexpr std::uint64_t kOps = 25;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    ASSERT_TRUE(tree.insert(100'000 + i, i));
    ASSERT_TRUE(tree.update(i * 2, i + 1));
    // Upserts are composites in some baselines: each must still record
    // exactly ONE op.upsert and no nested op.insert/op.update.
    ASSERT_TRUE(tree.upsert(200'000 + i, i));
    ASSERT_TRUE(tree.find(i * 2).has_value());
    EXPECT_FALSE(tree.find(1 + i * 2).has_value());  // miss also records
    ASSERT_TRUE(static_cast<bool>(tree.remove(100'000 + i)));
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  ASSERT_EQ(tree.scan_n(0, 50, out), 50u);
  const obs::Snapshot after = obs::snapshot();

  EXPECT_EQ(after.counter("op.insert") - before.counter("op.insert"), kOps);
  EXPECT_EQ(after.counter("op.update") - before.counter("op.update"), kOps);
  EXPECT_EQ(after.counter("op.upsert") - before.counter("op.upsert"), kOps);
  EXPECT_EQ(after.counter("op.find") - before.counter("op.find"), 2 * kOps);
  EXPECT_EQ(after.counter("op.remove") - before.counter("op.remove"), kOps);
  EXPECT_EQ(after.counter("op.scan") - before.counter("op.scan"), 1u);
  EXPECT_EQ(after.counter("op.completed") - before.counter("op.completed"),
            6 * kOps + 1);

  // Latency histograms must receive the same sample counts (fig4's
  // cross-tree latency comparison reads these).
  for (const char* h : {"lat.op.insert", "lat.op.update", "lat.op.upsert",
                        "lat.op.remove"})
    EXPECT_EQ(hist_of(after, h).count - hist_of(before, h).count, kOps) << h;
  EXPECT_EQ(hist_of(after, "lat.op.find").count -
                hist_of(before, "lat.op.find").count,
            2 * kOps);
  EXPECT_EQ(hist_of(after, "lat.op.scan").count -
                hist_of(before, "lat.op.scan").count,
            1u);
}

}  // namespace
}  // namespace rnt
