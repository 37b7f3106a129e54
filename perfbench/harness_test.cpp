// Tests of the benchmark's own harness logic (harness.hpp).
#include "harness.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(LatencyHist, SmallValuesAreExact) {
  LatencyHist h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100u);
  // Nearest rank: p50 of 1..100 is the 50th value; 50 samples lie beyond.
  EXPECT_EQ(h.percentile(0.5), 50.0);
  EXPECT_EQ(h.percentile(0.9), 90.0);
}

TEST(LatencyHist, BucketsBoundRelativeError) {
  for (std::uint64_t v : {128ull, 129ull, 1000ull, 123456ull, 987654321ull, ~0ull >> 1}) {
    const double mid = LatencyHist::midpoint(LatencyHist::index(v));
    EXPECT_LE(std::abs(mid - static_cast<double>(v)) / static_cast<double>(v), 1.0 / 64) << v;
  }
  EXPECT_LT(LatencyHist::index(~0ull), LatencyHist::kBuckets);
  // Indices are monotone in the value.
  int prev = -1;
  for (std::uint64_t v = 1; v < (1ull << 20); v = v * 5 / 4 + 1) {
    EXPECT_GE(LatencyHist::index(v), prev);
    prev = LatencyHist::index(v);
  }
}

TEST(LatencyHist, PercentileNeedsTenSamplesBeyondIt) {
  LatencyHist h;
  for (int i = 0; i < 999; ++i) h.record(10);
  // n = 999: rank(p99) = ceil(989.01) = 990, so only 9 samples lie beyond.
  EXPECT_EQ(LatencyHist::rank_of(0.99, 999), 990u);
  EXPECT_FALSE(h.percentile(0.99).has_value());
  EXPECT_TRUE(h.percentile(0.5).has_value());
  h.record(10);
  // n = 1000: rank 990 exactly (no rounding up of 0.99 * 1000), 10 beyond.
  EXPECT_EQ(LatencyHist::rank_of(0.99, 1000), 990u);
  EXPECT_EQ(h.percentile(0.99), 10.0);

  LatencyHist small;
  for (int i = 0; i < 19; ++i) small.record(5);
  EXPECT_FALSE(small.percentile(0.5).has_value());  // rank 10, 9 beyond
  small.record(5);
  EXPECT_TRUE(small.percentile(0.5).has_value());  // rank 10, 10 beyond
  EXPECT_FALSE(LatencyHist().percentile(0.5).has_value());
}

TEST(LatencyHist, MergeAddsCounts) {
  LatencyHist a, b;
  for (int i = 0; i < 600; ++i) a.record(20);
  for (int i = 0; i < 400; ++i) b.record(90);
  a.merge(b);
  EXPECT_EQ(a.count(), 1000u);
  EXPECT_EQ(a.percentile(0.5), 20.0);
  EXPECT_EQ(a.percentile(0.9), 90.0);
}

TEST(BatchAckTracker, ChargesEachOpFromItsOwnStartToTheAck) {
  BatchAckTracker tr;
  tr.staged(Op::kInsert, 100);
  tr.staged(Op::kRemove, 130);
  tr.staged(Op::kInsert, 170);
  EXPECT_EQ(tr.pending(), 3u);
  std::vector<std::pair<Op, std::uint64_t>> got;
  tr.acked(200, [&](Op op, std::uint64_t t0, std::uint64_t lat) {
    EXPECT_EQ(t0 + lat, 200u);
    got.emplace_back(op, lat);
  });
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], std::make_pair(Op::kInsert, std::uint64_t{100}));
  EXPECT_EQ(got[1], std::make_pair(Op::kRemove, std::uint64_t{70}));
  EXPECT_EQ(got[2], std::make_pair(Op::kInsert, std::uint64_t{30}));
  EXPECT_EQ(tr.pending(), 0u);
  // The next batch starts empty: an ack charges only ops staged since.
  tr.staged(Op::kInsert, 250);
  got.clear();
  tr.acked(260, [&](Op op, std::uint64_t, std::uint64_t lat) { got.emplace_back(op, lat); });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].second, 10u);
}

TEST(PhaseCounters, DeltaExcludesWorkOutsideThePhase) {
  const rnt::obs::Counter c("perfbench_test.events");
  c.inc(500);  // load phase
  PhaseCounters pc;
  pc.begin();
  c.inc(30);  // measured phase: 30 events over 60 ops
  pc.end();
  c.inc(1000);  // after the phase (verification, probes)
  EXPECT_EQ(pc.delta("perfbench_test.events"), 30u);
  EXPECT_DOUBLE_EQ(pc.per_op("perfbench_test.events", 60), 0.5);
  EXPECT_DOUBLE_EQ(pc.per_kop("perfbench_test.events", 60), 500.0);
  EXPECT_EQ(pc.delta("perfbench_test.never_registered"), 0u);
  EXPECT_DOUBLE_EQ(pc.per_op("perfbench_test.events", 0), 0.0);
}

TEST(Values, RoundTripAndRejectWrongKey) {
  const std::uint64_t v = make_value(42, 3, 77);
  const DecodedValue d = decode_value(42, v);
  EXPECT_TRUE(d.intact);
  EXPECT_EQ(d.writer, 3u);
  EXPECT_EQ(d.seq, 77u);
  EXPECT_FALSE(decode_value(43, v).intact);
  EXPECT_FALSE(decode_value(42, v ^ 1).intact);
  EXPECT_NE(load_value(1), 0u);
}

TEST(WriterOracle, AcceptsConsistentReads) {
  WriterOracle me(4, /*writer=*/0, /*writers=*/2);
  const std::uint64_t key = 17;
  EXPECT_TRUE(me.check_read(1, key, load_value(key)));
  const std::uint64_t v = me.next_value(key);
  me.wrote(1, v);
  EXPECT_TRUE(me.check_read(1, key, v));
  // Another writer's later update is a valid read.
  EXPECT_TRUE(me.check_read(1, key, make_value(key, 1, 5)));
}

TEST(WriterOracle, FlagsWrongValues) {
  WriterOracle me(4, 0, 2);
  const std::uint64_t key = 17;
  const std::uint64_t v1 = me.next_value(key);
  me.wrote(1, v1);
  const std::uint64_t v2 = me.next_value(key);
  me.wrote(1, v2);
  EXPECT_FALSE(me.check_read(1, key, std::nullopt));       // lost key
  EXPECT_FALSE(me.check_read(1, key, load_value(key)));    // lost update
  EXPECT_FALSE(me.check_read(1, key, v1));                 // stale own write
  EXPECT_FALSE(me.check_read(1, key, make_value(key, 7, 1)));  // unknown writer
  EXPECT_FALSE(me.check_read(1, key, make_value(key + 8, 1, 1)));  // other key's value
}

TEST(FinalState, VerifierFlagsADeliberatelyWrongOracleValue) {
  std::vector<WriterOracle> oracles;
  oracles.emplace_back(2, 0, 2);
  oracles.emplace_back(2, 1, 2);
  const std::uint64_t key = 9;
  const std::uint64_t a = oracles[0].next_value(key);
  oracles[0].wrote(0, a);
  const std::uint64_t b = oracles[1].next_value(key);
  oracles[1].wrote(0, b);
  EXPECT_TRUE(final_value_ok(0, key, a, oracles));
  EXPECT_TRUE(final_value_ok(0, key, b, oracles));
  EXPECT_FALSE(final_value_ok(0, key, load_value(key), oracles));
  // Key 1 was never written: only its load value is right.
  EXPECT_TRUE(final_value_ok(1, 3, load_value(3), oracles));
  EXPECT_FALSE(final_value_ok(1, 3, std::nullopt, oracles));

  // Corrupt one oracle entry: the tree's true end state no longer matches.
  oracles[1].wrote(0, make_value(key, 1, 999));
  oracles[0].wrote(0, make_value(key, 0, 999));
  EXPECT_FALSE(final_value_ok(0, key, b, oracles));
}

TEST(Json, NumbersKeepAllDigits) {
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(1234.5678901234), "1234.5678901234");
  EXPECT_EQ(json_number(1.0 / 0.0), "null");
  EXPECT_EQ(json_string("a\"b"), "\"a\\\"b\"");
}

}  // namespace
}  // namespace perfbench
