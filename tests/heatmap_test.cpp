// Contention-heatmap tests: bucketing math, deterministic attribution of
// injected HTM aborts through the real RNTree op path, sampler-tick tracks,
// exiting-thread folding, OpScope heat-target hygiene, and baseline-tree op
// attribution.
// The compiled-out build's inertness test lives in obs_test.cpp.
#include "obs/heatmap.hpp"

#include <gtest/gtest.h>

#include <cinttypes>
#include <optional>
#include <thread>
#include <vector>

#include "baselines/fptree.hpp"
#include "common/rng.hpp"
#include "core/rntree.hpp"
#include "htm/abort_inject.hpp"
#include "nvm/pool.hpp"
#include "obs/op_scope.hpp"

namespace rnt::obs {
namespace {

#if !defined(RNTREE_NO_OP_OBSERVATION)

constexpr int kConflictIdx = static_cast<int>(HeatCause::kConflict);
constexpr int kCapacityIdx = static_cast<int>(HeatCause::kCapacity);
constexpr int kFallbackIdx = static_cast<int>(HeatCause::kFallback);
constexpr int kOpIdx = static_cast<int>(HeatCause::kOp);

// Every test runs against the process-wide table; configure + reset in
// SetUp, disarm in TearDown so tests cannot observe one another.
class HeatmapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(heatmap_configure({.buckets = 64, .key_space = 0}));
    set_heatmap_enabled(true);
  }
  void TearDown() override {
    set_heatmap_enabled(false);
    heatmap_reset();
  }

  // Aggregate count for (bucket, cause); 0 when the bucket is empty.
  static std::uint64_t count_at(std::uint32_t bucket, int cause) {
    const HeatmapSnapshot snap = heatmap_snapshot();
    for (const HeatBucket& b : snap.buckets)
      if (b.id == bucket) return b.counts[cause];
    return 0;
  }
};

TEST(HeatmapValidation, BucketCounts) {
  EXPECT_FALSE(heatmap_valid_buckets(0));
  EXPECT_FALSE(heatmap_valid_buckets(1));
  EXPECT_TRUE(heatmap_valid_buckets(2));
  EXPECT_FALSE(heatmap_valid_buckets(3));
  EXPECT_TRUE(heatmap_valid_buckets(64));
  EXPECT_FALSE(heatmap_valid_buckets(100));
  EXPECT_TRUE(heatmap_valid_buckets(4096));
  EXPECT_FALSE(heatmap_valid_buckets(8192));
  EXPECT_FALSE(heatmap_configure({.buckets = 7}));
}

TEST_F(HeatmapTest, KeyRangePartitioning) {
  // Dense key space: 65536 keys over 64 buckets -> 1024 keys per bucket.
  ASSERT_TRUE(heatmap_configure({.buckets = 64, .key_space = 65536}));
  EXPECT_EQ(heatmap_bucket_of(0), 0u);
  EXPECT_EQ(heatmap_bucket_of(1023), 0u);
  EXPECT_EQ(heatmap_bucket_of(1024), 1u);
  EXPECT_EQ(heatmap_bucket_of(65535), 63u);
  // Full 64-bit space: top 6 bits select the bucket.
  ASSERT_TRUE(heatmap_configure({.buckets = 64, .key_space = 0}));
  EXPECT_EQ(heatmap_bucket_of(0), 0u);
  EXPECT_EQ(heatmap_bucket_of(~0ull), 63u);
  EXPECT_EQ(heatmap_bucket_of(1ull << 58), 1u);
  // Non-power-of-two key space rounds up (1000 -> 1024 -> 16/bucket).
  ASSERT_TRUE(heatmap_configure({.buckets = 64, .key_space = 1000}));
  EXPECT_EQ(heatmap_bucket_of(15), 0u);
  EXPECT_EQ(heatmap_bucket_of(16), 1u);
}

TEST_F(HeatmapTest, RecordAtAttributesToKeyBucket) {
  const std::uint64_t key = 0xABCDull << 40;
  const std::uint32_t b = heatmap_bucket_of(key);
  for (int i = 0; i < 5; ++i) heatmap_record_at(key, HeatCause::kConflict);
  heatmap_record_at(key, HeatCause::kFallback);
  EXPECT_EQ(count_at(b, kConflictIdx), 5u);
  EXPECT_EQ(count_at(b, kFallbackIdx), 1u);
  const HeatmapSnapshot snap = heatmap_snapshot();
  ASSERT_FALSE(snap.buckets.empty());
  EXPECT_EQ(snap.buckets[0].id, b);  // sorted by score: only hot bucket first
  EXPECT_EQ(snap.buckets[0].score, 6u);
  EXPECT_EQ(snap.totals[kConflictIdx], 5u);
}

TEST_F(HeatmapTest, DisabledRecordingIsDropped) {
  set_heatmap_enabled(false);
  heatmap_record_at(42, HeatCause::kConflict);
  heatmap_record(HeatCause::kConflict);
  set_heatmap_enabled(true);
  EXPECT_TRUE(heatmap_snapshot().buckets.empty());
}

// The tentpole's deterministic end-to-end check on the REAL tree path: a
// scripted abort injector makes every atomic_exec abort twice with a
// conflict before committing, and the upsert of one known key must charge
// exactly its key-range bucket — no other bucket may see a conflict.
TEST_F(HeatmapTest, ScriptedAbortsAttributeToOpTargetBucket) {
  nvm::PmemPool pool(64u << 20);
  core::RNTree<std::uint64_t, std::uint64_t> tree(pool);
  set_heatmap_enabled(false);  // warm silently
  for (std::uint64_t i = 0; i < 512; ++i) tree.upsert(mix64(i), i);
  heatmap_reset();
  set_heatmap_enabled(true);

  const std::uint64_t key = mix64(5);
  const std::uint32_t want = heatmap_bucket_of(key);
  {
    htm::ScriptedAbortInjector inj(
        {htm::AbortCause::kConflict, htm::AbortCause::kConflict});
    htm::ScopedAbortInjector scope(&inj);
    ASSERT_TRUE(tree.upsert(key, 99).ok());
    EXPECT_GT(inj.injected(), 0u);
  }

  const HeatmapSnapshot snap = heatmap_snapshot();
  EXPECT_GE(count_at(want, kConflictIdx), 2u);
  EXPECT_GE(count_at(want, kOpIdx), 1u);
  for (const HeatBucket& b : snap.buckets)
    if (b.id != want) {
      EXPECT_EQ(b.counts[kConflictIdx], 0u)
          << "conflict leaked into bucket " << b.id;
    }
  EXPECT_EQ(snap.totals[kConflictIdx], count_at(want, kConflictIdx));
}

// Capacity aborts give up on HTM immediately: the same bucket must receive
// both the capacity abort and the resulting fallback acquisition.
TEST_F(HeatmapTest, CapacityAbortChargesFallbackToSameBucket) {
  nvm::PmemPool pool(64u << 20);
  core::RNTree<std::uint64_t, std::uint64_t> tree(pool);
  set_heatmap_enabled(false);
  for (std::uint64_t i = 0; i < 512; ++i) tree.upsert(mix64(i), i);
  heatmap_reset();
  set_heatmap_enabled(true);

  const std::uint64_t key = mix64(7);
  const std::uint32_t want = heatmap_bucket_of(key);
  {
    htm::ScriptedAbortInjector inj({htm::AbortCause::kCapacity});
    htm::ScopedAbortInjector scope(&inj);
    ASSERT_TRUE(tree.upsert(key, 1).ok());
  }
  EXPECT_GE(count_at(want, kCapacityIdx), 1u);
  EXPECT_GE(count_at(want, kFallbackIdx), 1u);
}

TEST_F(HeatmapTest, TickRecordsTracks) {
  const std::uint64_t key = 99;
  const std::uint32_t b = heatmap_bucket_of(key);
  for (int i = 0; i < 100; ++i) heatmap_record_at(key, HeatCause::kConflict);
  heatmap_tick(1'000'000'000);
  for (int i = 0; i < 50; ++i) heatmap_record_at(key, HeatCause::kConflict);
  heatmap_tick(2'000'000'000);
  EXPECT_EQ(count_at(b, kConflictIdx), 150u);  // cumulative: ticks never scale

  const std::vector<HeatTrack> tracks = heatmap_tracks(4);
  ASSERT_FALSE(tracks.empty());
  EXPECT_EQ(tracks[0].bucket, b);
  ASSERT_EQ(tracks[0].points.size(), 2u);
  EXPECT_EQ(tracks[0].points[0].ts_ns, 1'000'000'000u);
  EXPECT_EQ(tracks[0].points[0].score, 100u);
  EXPECT_EQ(tracks[0].points[1].ts_ns, 2'000'000'000u);
  EXPECT_EQ(tracks[0].points[1].score, 150u);
}

TEST_F(HeatmapTest, ExitingThreadFoldsIntoRetiredTotals) {
  const std::uint64_t key = 7777;
  std::thread t([&] {
    for (int i = 0; i < 5; ++i) heatmap_record_at(key, HeatCause::kFallback);
  });
  t.join();  // thread-local slab destructor folded its cells
  EXPECT_EQ(count_at(heatmap_bucket_of(key), kFallbackIdx), 5u);
  // And the fold survives another reconfigure-free snapshot.
  EXPECT_EQ(heatmap_snapshot().totals[kFallbackIdx], 5u);
}

TEST_F(HeatmapTest, OpScopeRestoresPreviousTarget) {
  const std::uint64_t outer_key = 0;                // bucket 0
  const std::uint64_t inner_key = 0xFFull << 56;    // bucket 63
  {
    OpScope outer(OpKind::kUpdate, outer_key);
    {
      OpScope inner(OpKind::kFind, inner_key);
      heatmap_record(HeatCause::kConflict);
    }
    // The nested scope ended: aborts now charge the OUTER target again.
    heatmap_record(HeatCause::kConflict);
  }
  // No scope armed: records are dropped, not misattributed.
  heatmap_record(HeatCause::kConflict);
  EXPECT_EQ(count_at(63, kConflictIdx), 1u);
  EXPECT_EQ(count_at(0, kConflictIdx), 1u);
  EXPECT_EQ(heatmap_snapshot().totals[kConflictIdx], 2u);
}

// Baseline trees open the same OpScope as RNTree, so their ops heat their
// key's bucket too.
TEST_F(HeatmapTest, BaselineOpHeatsItsKeyBucket) {
  nvm::PmemPool pool(64u << 20);
  baselines::FPTree<std::uint64_t, std::uint64_t> tree(pool);
  const std::uint64_t key = 0xC0ull << 56;
  const std::uint32_t want = heatmap_bucket_of(key);
  ASSERT_TRUE(tree.upsert(key, 1).ok());
  ASSERT_EQ(tree.find(key), std::optional<std::uint64_t>(1));
  EXPECT_EQ(count_at(want, kOpIdx), 2u);
  EXPECT_EQ(heatmap_snapshot().totals[kOpIdx], 2u);
}

TEST_F(HeatmapTest, JsonSectionShape) {
  heatmap_record_at(0, HeatCause::kConflict);
  const std::string json = heatmap_json();
  EXPECT_NE(json.find("\"buckets\": 64"), std::string::npos);
  EXPECT_NE(json.find("\"lo\": 0, \"hi\": "), std::string::npos);
  EXPECT_NE(json.find("\"aborts_conflict\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"top\": ["), std::string::npos);
  set_heatmap_enabled(false);
  EXPECT_TRUE(heatmap_json().empty());  // exporter omits the section
}

#endif  // !RNTREE_NO_OP_OBSERVATION

}  // namespace
}  // namespace rnt::obs
