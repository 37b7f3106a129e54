// Tests for src/obs: metrics registry aggregation (live + exited threads),
// the legacy-struct cell bridge, gauges, histogram shards, the trace ring
// (wraparound, clear/re-enable), OpScope recording, and the JSON/Prometheus
// export (well-formedness via a mini JSON parser).
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "nvm/persist.hpp"
#include "obs/buildinfo.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/export.hpp"
#include "obs/heatmap.hpp"
#include "obs/metrics.hpp"
#include "obs/op_scope.hpp"
#include "obs/phase.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace rnt::obs {
namespace {

// Each test uses its own metric names: the registry is process-wide and
// append-only, so sharing names across tests would couple their counts.

TEST(Registry, CounterAggregatesAcrossLiveThreads) {
  Counter c("test.reg.live");
  c.inc(5);
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t)
    ts.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) c.inc();
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), 5u + 4u * 1000u);
}

TEST(Registry, CounterIncludesExitedThreads) {
  Counter c("test.reg.exited");
  std::thread([&] { c.inc(123); }).join();
  std::thread([&] { c.inc(77); }).join();
  // Both recorder threads are gone; their slabs must have folded in.
  EXPECT_EQ(c.value(), 200u);
}

TEST(Registry, SameNameReturnsSameMetric) {
  Counter a("test.reg.samename");
  Counter b("test.reg.samename");
  EXPECT_EQ(a.id(), b.id());
  a.inc(1);
  b.inc(2);
  EXPECT_EQ(a.value(), 3u);
}

TEST(Registry, LocalReadsOnlyThisThread) {
  Counter c("test.reg.local");
  c.inc(5);
  EXPECT_EQ(c.local(), 5u);
  std::thread([&] {
    EXPECT_EQ(c.local(), 0u);  // fresh thread: no cell yet
    c.inc(3);
    EXPECT_EQ(c.local(), 3u);  // only this thread's increments
  }).join();
  EXPECT_EQ(c.local(), 5u);
  EXPECT_EQ(c.value(), 8u);  // the exited thread's count stays in value()
}

TEST(Registry, GaugeSetAddValue) {
  Gauge g("test.reg.gauge");
  g.set(40);
  g.add(2);
  EXPECT_EQ(g.value(), 42);
  g.add(-50);
  EXPECT_EQ(g.value(), -8);
}

TEST(Registry, HistogramMergesThreadShards) {
  Histogram h("test.reg.hist");
  h.record(10);
  std::thread([&] {
    for (int i = 0; i < 99; ++i) h.record(1000);
  }).join();
  LatencyHistogram agg = h.aggregate();
  EXPECT_EQ(agg.count(), 100u);
  EXPECT_EQ(agg.min(), 10u);
  EXPECT_EQ(agg.max(), 1000u);
}

TEST(Registry, SnapshotContainsRegisteredMetrics) {
  Counter c("test.reg.snap");
  c.inc(7);
  Gauge g("test.reg.snapgauge");
  g.set(-3);
  Snapshot s = snapshot();
  EXPECT_EQ(s.counter("test.reg.snap"), 7u);
  EXPECT_EQ(s.counter("test.reg.absent"), 0u);
  bool found_gauge = false;
  for (const auto& [n, v] : s.gauges)
    if (n == "test.reg.snapgauge") {
      found_gauge = true;
      EXPECT_EQ(v, -3);
    }
  EXPECT_TRUE(found_gauge);
  // Sorted by name (binary-search/diff friendly output).
  for (std::size_t i = 1; i < s.counters.size(); ++i)
    EXPECT_LT(s.counters[i - 1].first, s.counters[i].first);
}

// --- trace ring -----------------------------------------------------------

TraceEvent make_event(std::uint64_t key) {
  TraceEvent e{};
  e.key = key;
  e.op = static_cast<std::uint16_t>(OpKind::kFind);
  e.result = static_cast<std::uint16_t>(OpResult::kOk);
  return e;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clear_traces();
    set_trace_capacity(0);
  }
  void TearDown() override {
    clear_traces();
    set_trace_capacity(0);
  }
};

TEST_F(TraceTest, DisabledByDefaultRecordsNothing) {
  trace(make_event(1));
  EXPECT_TRUE(collect_traces().empty());
}

TEST_F(TraceTest, RingWrapsKeepingNewestEvents) {
  set_trace_capacity(8);
  for (std::uint64_t i = 0; i < 20; ++i) trace(make_event(i));
  std::vector<TraceEvent> evs = collect_traces();
  ASSERT_EQ(evs.size(), 8u);
  // Oldest-first window over the last 8 of 20 events.
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(evs[i].key, 12 + i);
    EXPECT_EQ(evs[i].seq, 12 + i);
  }
}

TEST_F(TraceTest, FewerEventsThanCapacityAllRetained) {
  set_trace_capacity(64);
  for (std::uint64_t i = 0; i < 5; ++i) trace(make_event(i));
  EXPECT_EQ(collect_traces().size(), 5u);
}

TEST_F(TraceTest, ExitedThreadsRingsAreRetained) {
  set_trace_capacity(16);
  std::thread([] {
    for (std::uint64_t i = 0; i < 3; ++i) trace(make_event(100 + i));
  }).join();
  trace(make_event(7));
  std::vector<TraceEvent> evs = collect_traces();
  EXPECT_EQ(evs.size(), 4u);
}

TEST_F(TraceTest, ClearDropsRingsAndNewCapacityApplies) {
  set_trace_capacity(4);
  for (std::uint64_t i = 0; i < 10; ++i) trace(make_event(i));
  clear_traces();
  EXPECT_TRUE(collect_traces().empty());
  set_trace_capacity(32);
  // The thread-local ring pointer is stale; the generation bump must force
  // a fresh ring with the new capacity instead of dereferencing it.
  for (std::uint64_t i = 0; i < 6; ++i) trace(make_event(i));
  EXPECT_EQ(collect_traces().size(), 6u);
}

TEST_F(TraceTest, OpTraceRecordsOutcomeAndPersistDiffs) {
  set_trace_capacity(16);
  {
    OpScope op(OpKind::kInsert, 42);
    op.leaf(4096);
    nvm::persist(&op, sizeof(op));  // bump this thread's persist counter
    op.finish(true);
  }
  {
    OpScope op(OpKind::kFind, 43);
    op.finish(false);
  }
  std::vector<TraceEvent> evs = collect_traces();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].key, 42u);
  EXPECT_EQ(evs[0].op, static_cast<std::uint16_t>(OpKind::kInsert));
  EXPECT_EQ(evs[0].result, static_cast<std::uint16_t>(OpResult::kOk));
  EXPECT_EQ(evs[0].leaf_off, 4096u);
  EXPECT_GE(evs[0].persists, 1u);
  EXPECT_EQ(evs[1].key, 43u);
  EXPECT_EQ(evs[1].result, static_cast<std::uint16_t>(OpResult::kMiss));
}

TEST_F(TraceTest, OpTraceMarksCrashOnUnwind) {
  set_trace_capacity(16);
  struct Boom {};
  try {
    OpScope op(OpKind::kUpsert, 9);
    throw Boom{};
  } catch (const Boom&) {
  }
  std::vector<TraceEvent> evs = collect_traces();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].result, static_cast<std::uint16_t>(OpResult::kCrash));
}

// A nested scope records its own event and hands the thread's op record
// back to the enclosing op intact.
TEST_F(TraceTest, NestedOpScopeRestoresTheOuterOp) {
  set_trace_capacity(16);
  {
    OpScope outer(OpKind::kInsert, 1);
    outer.leaf(640);
    {
      OpScope inner(OpKind::kFind, 2);
      inner.leaf(1280);
      inner.finish(false);
    }
    outer.finish(true);
  }
  std::vector<TraceEvent> evs = collect_traces();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].key, 2u);
  EXPECT_EQ(evs[0].leaf_off, 1280u);
  EXPECT_EQ(evs[0].result, static_cast<std::uint16_t>(OpResult::kMiss));
  EXPECT_EQ(evs[1].key, 1u);
  EXPECT_EQ(evs[1].leaf_off, 640u);
  EXPECT_EQ(evs[1].op, static_cast<std::uint16_t>(OpKind::kInsert));
  EXPECT_EQ(evs[1].result, static_cast<std::uint16_t>(OpResult::kOk));
  EXPECT_GE(evs[1].latency_ns, evs[0].latency_ns);
}

// --- export ---------------------------------------------------------------

// Minimal recursive-descent JSON validator: accepts exactly the grammar of
// RFC 8259 values, which is all we need to prove well-formedness without a
// JSON library in the test image.
class MiniJson {
 public:
  explicit MiniJson(const std::string& s) : s_(s) {}
  bool valid() {
    i_ = 0;
    return value() && (skip_ws(), i_ == s_.size());
  }

 private:
  bool value() {
    skip_ws();
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string_();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++i_;  // '{'
    skip_ws();
    if (peek() == '}') { ++i_; return true; }
    for (;;) {
      skip_ws();
      if (!string_()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++i_;
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++i_; continue; }
      if (peek() == '}') { ++i_; return true; }
      return false;
    }
  }
  bool array() {
    ++i_;  // '['
    skip_ws();
    if (peek() == ']') { ++i_; return true; }
    for (;;) {
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++i_; continue; }
      if (peek() == ']') { ++i_; return true; }
      return false;
    }
  }
  bool string_() {
    if (peek() != '"') return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (static_cast<unsigned char>(s_[i_]) < 0x20) return false;
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) return false;
      }
      ++i_;
    }
    if (i_ >= s_.size()) return false;
    ++i_;
    return true;
  }
  bool number() {
    const std::size_t start = i_;
    if (peek() == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) || s_[i_] == '.' ||
            s_[i_] == 'e' || s_[i_] == 'E' || s_[i_] == '+' || s_[i_] == '-'))
      ++i_;
    return i_ > start && std::isdigit(static_cast<unsigned char>(s_[i_ - 1]));
  }
  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s_.compare(i_, n, lit) != 0) return false;
    i_ += n;
    return true;
  }
  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  void skip_ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\t' || s_[i_] == '\r'))
      ++i_;
  }
  const std::string& s_;
  std::size_t i_ = 0;
};

TEST(Export, JsonIsWellFormed) {
  Counter c("test.exp.counter");
  c.inc(3);
  Gauge g("test.exp.gauge");
  g.set(-17);
  Histogram h("test.exp.hist");
  h.record(100);
  const std::string doc = to_json(snapshot(), {{"bench", "unit \"quoted\"", false},
                                               {"warm", "1000", true}});
  EXPECT_TRUE(MiniJson(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"test.exp.counter\": 3"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"test.exp.gauge\": -17"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"warm\": 1000"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\\\"quoted\\\""), std::string::npos) << doc;
}

TEST(Export, JsonWithTraceIsWellFormed) {
  clear_traces();
  set_trace_capacity(8);
  {
    OpScope op(OpKind::kRemove, 5);
    op.finish(true);
  }
  const std::string doc = to_json(snapshot(), {}, /*include_trace=*/true);
  EXPECT_TRUE(MiniJson(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"trace\": ["), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"op\":\"remove\""), std::string::npos) << doc;
  clear_traces();
  set_trace_capacity(0);
}

TEST(Export, PrometheusExposesCounters) {
  Counter c("test.exp.prom");
  c.inc(11);
  const std::string text = to_prometheus(snapshot());
  EXPECT_NE(text.find("# TYPE rnt_test_exp_prom counter"), std::string::npos);
  EXPECT_NE(text.find("rnt_test_exp_prom 11"), std::string::npos);
  // Exposition format: every non-comment line is "name[{labels}] value".
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    if (!line.empty() && line[0] != '#') {
      EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
    pos = eol + 1;
  }
}

TEST(Export, WriteJsonSnapshotRoundTrips) {
  Counter c("test.exp.file");
  c.inc(1);
  const std::string path = ::testing::TempDir() + "/obs_test_snapshot.json";
  ASSERT_TRUE(write_json_snapshot(path, {{"bench", "unit", false}}));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string doc;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) doc.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_TRUE(MiniJson(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"test.exp.file\""), std::string::npos);
}

TEST(Export, PrometheusHistogramBucketsAreCumulative) {
  Histogram h("test.exp.prom.hist");
  h.record(10);
  h.record(10);
  h.record(1000);
  h.record(50000);
  const std::string text = to_prometheus(snapshot());
  EXPECT_NE(text.find("# TYPE rnt_test_exp_prom_hist histogram"),
            std::string::npos);
  // Collect this family's _bucket lines in exposition order.
  std::vector<std::pair<double, std::uint64_t>> buckets;
  std::size_t pos = 0;
  const std::string prefix = "rnt_test_exp_prom_hist_bucket{le=\"";
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    pos += prefix.size();
    const std::size_t q = text.find('"', pos);
    const std::string le = text.substr(pos, q - pos);
    const std::size_t sp = text.find(' ', q);
    const std::size_t eol = text.find('\n', sp);
    buckets.emplace_back(
        le == "+Inf" ? 1e300 : std::strtod(le.c_str(), nullptr),
        std::strtoull(text.substr(sp + 1, eol - sp - 1).c_str(), nullptr, 10));
  }
  ASSERT_GE(buckets.size(), 4u);  // 3 distinct value buckets + +Inf
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_GT(buckets[i].first, buckets[i - 1].first);     // le increasing
    EXPECT_GE(buckets[i].second, buckets[i - 1].second);   // cumulative
  }
  EXPECT_EQ(buckets.back().second, 4u);  // +Inf == _count
  EXPECT_NE(text.find("rnt_test_exp_prom_hist_sum 51020\n"), std::string::npos);
  EXPECT_NE(text.find("rnt_test_exp_prom_hist_count 4\n"), std::string::npos);
}

TEST(Export, JsonHistogramHasExactSum) {
  Histogram h("test.exp.json.sum");
  h.record(7);
  h.record(13);
  const std::string doc = to_json(snapshot());
  const std::size_t at = doc.find("\"test.exp.json.sum\"");
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(doc.find("\"sum\": 20", at), std::string::npos) << doc;
}

// --- build provenance -----------------------------------------------------

TEST(BuildInfo, StandardMetaHasProvenanceFields) {
  const std::vector<MetaField> meta = standard_meta();
  auto find = [&](const char* key) -> const MetaField* {
    for (const MetaField& f : meta)
      if (f.key == key) return &f;
    return nullptr;
  };
  for (const char* key :
       {"git_sha", "build_type", "compiler", "host_cores", "timestamp"})
    EXPECT_NE(find(key), nullptr) << key;
  const MetaField* cores = find("host_cores");
  ASSERT_NE(cores, nullptr);
  EXPECT_TRUE(cores->is_number);
  EXPECT_GT(std::strtoul(cores->value.c_str(), nullptr, 10), 0u);
  const MetaField* ts = find("timestamp");
  ASSERT_NE(ts, nullptr);
  // ISO-8601 UTC: 2026-08-08T12:34:56Z
  ASSERT_EQ(ts->value.size(), 20u) << ts->value;
  EXPECT_EQ(ts->value[4], '-');
  EXPECT_EQ(ts->value[10], 'T');
  EXPECT_EQ(ts->value[19], 'Z');
  // Provenance-tagged documents must still be valid JSON.
  EXPECT_TRUE(MiniJson(to_json(snapshot(), meta)).valid());
}

// --- phase attribution ----------------------------------------------------

#if !defined(RNTREE_NO_OP_OBSERVATION)

class PhaseTest : public ::testing::Test {
 protected:
  void SetUp() override { set_phase_timing(true); }
  void TearDown() override { set_phase_timing(false); }
};

TEST_F(PhaseTest, TimerAccumulatesIntoThreadTicks) {
  const PhaseTicks before = phase_ticks_snapshot();
  {
    PhaseTimer t(Phase::kPersist);
    volatile unsigned sink = 0;
    for (int i = 0; i < 50000; ++i) sink = sink + 1;
  }
  const PhaseTicks after = phase_ticks_snapshot();
  EXPECT_GT(after.t[static_cast<int>(Phase::kPersist)],
            before.t[static_cast<int>(Phase::kPersist)]);
  // Untouched phases stay untouched.
  EXPECT_EQ(after.t[static_cast<int>(Phase::kSmo)],
            before.t[static_cast<int>(Phase::kSmo)]);
}

TEST_F(PhaseTest, DisabledTimerCostsNothingAndRecordsNothing) {
  set_phase_timing(false);
  const PhaseTicks before = phase_ticks_snapshot();
  {
    PhaseTimer t(Phase::kHtm);
    volatile unsigned sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + 1;
  }
  const PhaseTicks after = phase_ticks_snapshot();
  EXPECT_EQ(after.t[static_cast<int>(Phase::kHtm)],
            before.t[static_cast<int>(Phase::kHtm)]);
}

TEST_F(PhaseTest, EnablingRegistersPhaseHistograms) {
  const Snapshot snap = snapshot();
  int found = 0;
  for (const auto& [name, h] : snap.histograms)
    if (name.rfind("lat.phase.", 0) == 0) ++found;
  EXPECT_EQ(found, kPhaseCount);
}

TEST_F(PhaseTest, OpTraceAttributesPhasesAndCountsOps) {
  clear_traces();
  set_trace_capacity(8);
  const MetricId ops = register_metric("op.completed", Kind::kCounter);
  const std::uint64_t ops0 = counter_value(ops);
  {
    OpScope op(OpKind::kUpdate, 77);
    {
      PhaseTimer t(Phase::kPersist);
      volatile unsigned sink = 0;
      for (int i = 0; i < 200000; ++i) sink = sink + 1;
    }
    op.finish(true);
  }
  EXPECT_EQ(counter_value(ops), ops0 + 1);
  std::vector<TraceEvent> evs = collect_traces();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_GT(evs[0].phase_persist_ns, 0u);
  EXPECT_EQ(evs[0].phase_smo_ns, 0u);
  clear_traces();
  set_trace_capacity(0);
}

#else  // RNTREE_NO_OP_OBSERVATION

// Compiled-out build: phase timing and heat attribution are inert — their
// setters cannot arm them and every recording site drops — while ops still
// reach the trace ring, with zero phase fields.
TEST(OpObservationCompiledOut, EverythingIsInert) {
  set_phase_timing(true);
  set_heatmap_enabled(true);
  EXPECT_FALSE(phase_timing_enabled());
  EXPECT_FALSE(heatmap_enabled());

  const PhaseTicks before = phase_ticks_snapshot();
  {
    PhaseTimer t(Phase::kPersist);
    volatile unsigned sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + 1;
  }
  EXPECT_EQ(phase_ticks_snapshot().t[static_cast<int>(Phase::kPersist)],
            before.t[static_cast<int>(Phase::kPersist)]);

  heatmap_record_at(1, HeatCause::kConflict);
  heatmap_record(HeatCause::kConflict);
  EXPECT_TRUE(heatmap_snapshot().buckets.empty());
  EXPECT_TRUE(heatmap_json().empty());
  EXPECT_TRUE(heatmap_valid_buckets(64));  // flag validation still works
  EXPECT_FALSE(heatmap_valid_buckets(7));

  clear_traces();
  set_trace_capacity(8);
  {
    OpScope op(OpKind::kUpdate, 77);
    op.finish(true);
  }
  const std::vector<TraceEvent> evs = collect_traces();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].key, 77u);
  EXPECT_EQ(evs[0].phase_persist_ns, 0u);
  clear_traces();
  set_trace_capacity(0);
  set_phase_timing(false);
  set_heatmap_enabled(false);
}

#endif  // RNTREE_NO_OP_OBSERVATION

// --- time-series sampler --------------------------------------------------

TEST(Sampler, StartStopLifecycle) {
  Sampler s;
  EXPECT_FALSE(s.running());
  s.start({.interval_ms = 1, .capacity = 600});
  EXPECT_TRUE(s.running());
  Counter c("op.completed");
  for (int i = 0; i < 1000; ++i) c.inc();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  s.stop();
  EXPECT_FALSE(s.running());
  EXPECT_GE(s.sample_count(), 2u);  // t=0 baseline + final sample at least
  const std::vector<RateWindow> ws = s.windows();
  ASSERT_FALSE(ws.empty());
  std::uint64_t ops = 0;
  for (const RateWindow& w : ws) {
    EXPECT_GT(w.dt_s, 0.0);
    ops += w.ops;
  }
  EXPECT_GE(ops, 1000u);  // our increments all fall inside the run
  s.stop();  // idempotent
}

TEST(Sampler, RestartResetsTheRing) {
  Sampler s;
  s.start({.interval_ms = 1, .capacity = 600});
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  s.stop();
  const std::uint64_t first_total = s.total_samples();
  EXPECT_GE(first_total, 2u);
  s.start({.interval_ms = 1, .capacity = 600});
  EXPECT_TRUE(s.running());
  s.stop();
  EXPECT_LT(s.total_samples(), first_total + 2);  // counted from zero again
}

TEST(Sampler, RingEvictsOldestBeyondCapacity) {
  Sampler s;
  s.start({.interval_ms = 1, .capacity = 4});
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  s.stop();
  EXPECT_LE(s.sample_count(), 4u);
  EXPECT_GT(s.total_samples(), s.sample_count());  // some were evicted
  const std::vector<RateWindow> ws = s.windows();
  EXPECT_LE(ws.size() + 1, 4u);
}

TEST(Sampler, SurvivesWorkerThreadExitMidRun) {
  // Exiting threads fold their counter cells into retired totals under the
  // registry mutex; sampling concurrently must never lose or double-count.
  Sampler s;
  Counter c("op.completed");
  s.start({.interval_ms = 1, .capacity = 600});
  for (int round = 0; round < 8; ++round) {
    std::thread([&] {
      for (int i = 0; i < 10000; ++i) c.inc();
    }).join();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  s.stop();
  std::uint64_t ops = 0;
  for (const RateWindow& w : s.windows()) ops += w.ops;
  EXPECT_GE(ops, 80000u);
}

TEST(Sampler, TimeseriesJsonIsWellFormed) {
  Sampler& s = sampler();
  s.start({.interval_ms = 1, .capacity = 600});
  Counter c("op.completed");
  for (int i = 0; i < 100; ++i) c.inc();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  s.stop();
  const std::string ts = timeseries_json();
  ASSERT_FALSE(ts.empty());
  EXPECT_TRUE(MiniJson(ts).valid()) << ts;
  EXPECT_NE(ts.find("\"interval_ms\": 1"), std::string::npos);
  EXPECT_NE(ts.find("\"windows\": ["), std::string::npos);
  EXPECT_NE(ts.find("\"ops_per_s\""), std::string::npos);
  // And the assembled stats document embeds it intact.
  const std::string doc = to_json(snapshot(), {}, false, true);
  EXPECT_TRUE(MiniJson(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"timeseries\": {"), std::string::npos);
}

// --- chrome trace export --------------------------------------------------

TEST(ChromeTrace, VirtualTracePreservesThreadId) {
  clear_traces();
  set_trace_capacity(8);
  TraceEvent ev = make_event(1);
  ev.thread_id = 4242;
  trace_virtual(ev);
  trace(ev);  // plain trace() stamps the ring owner's id instead
  std::vector<TraceEvent> evs = collect_traces();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].thread_id, 4242u);
  EXPECT_NE(evs[1].thread_id, 4242u);
  clear_traces();
  set_trace_capacity(0);
}

TEST(ChromeTrace, EmitsValidJsonWithTracksAndPhaseSlices) {
  std::vector<TraceEvent> evs;
  for (std::uint32_t tid : {7u, 9u}) {
    TraceEvent e{};
    e.thread_id = tid;
    e.ts_ns = 5000;
    e.latency_ns = 3000;
    e.key = 11;
    e.leaf_off = 64;
    e.op = static_cast<std::uint16_t>(OpKind::kUpdate);
    e.result = static_cast<std::uint16_t>(OpResult::kOk);
    e.htm_attempts = 2;
    e.aborts_conflict = 1;
    e.fallbacks = 1;
    e.phase_htm_ns = 1000;
    e.phase_persist_ns = 1500;
    evs.push_back(e);
  }
  const std::string doc = to_chrome_trace(evs);
  EXPECT_TRUE(MiniJson(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
  // One named track per thread.
  EXPECT_NE(doc.find("\"tid\":7,\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(doc.find("\"tid\":9,\"name\":\"thread_name\""), std::string::npos);
  // The op slice: complete event starting at ts-latency, µs units.
  EXPECT_NE(doc.find("\"cat\":\"op\",\"name\":\"update\",\"ts\":2.000,"
                     "\"dur\":3.000"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"aborts_conflict\":1"), std::string::npos);
  // Phase sub-slices laid out sequentially from the op's start.
  EXPECT_NE(doc.find("\"cat\":\"phase\",\"name\":\"htm\",\"ts\":2.000,"
                     "\"dur\":1.000"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"cat\":\"phase\",\"name\":\"persist\",\"ts\":3.000,"
                     "\"dur\":1.500"),
            std::string::npos)
      << doc;
}

TEST(ChromeTrace, PhaseSlicesClampToOpDuration) {
  TraceEvent e{};
  e.thread_id = 3;
  e.ts_ns = 2000;
  e.latency_ns = 1000;
  e.op = static_cast<std::uint16_t>(OpKind::kInsert);
  e.phase_htm_ns = 800;
  e.phase_persist_ns = 800;  // would overflow: clamped to the remaining 200
  e.phase_smo_ns = 500;      // fully past the end: dropped
  const std::string doc = to_chrome_trace({e});
  EXPECT_TRUE(MiniJson(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"name\":\"persist\",\"ts\":1.800,\"dur\":0.200"),
            std::string::npos)
      << doc;
  EXPECT_EQ(doc.find("\"name\":\"smo\""), std::string::npos) << doc;
}

TEST(ChromeTrace, WriteCollectsRingsAndRoundTrips) {
  clear_traces();
  set_trace_capacity(8);
  {
    OpScope op(OpKind::kScan, 3);
    op.finish(true);
  }
  const std::string path = ::testing::TempDir() + "/obs_chrome_trace.json";
  ASSERT_TRUE(write_chrome_trace(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string doc;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) doc.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_TRUE(MiniJson(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"name\":\"scan\""), std::string::npos);
  clear_traces();
  set_trace_capacity(0);
}

}  // namespace
}  // namespace rnt::obs
