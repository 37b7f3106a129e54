// Crash-point sweep driver (tests/crash_sweep).
//
// For a (tree, operation-class) pair the harness:
//
//   1. builds a deterministic Scenario — a prep op list and one target op —
//      via calibration runs when the class needs a structural trigger
//      (split / inner SMO / compaction or the first reuse after it),
//   2. counts the target op's tracked NVM events with a ShadowPool attached
//      and no crash scheduled, asserting the class's structural expectation
//      (split happened / did not happen, compaction happened) and, for
//      non-SMO classes, the Table-1 persistent-instruction count,
//   3. replays the scenario once per crash point n in [1, events]: fresh
//      pool, prep without the shadow (prep state becomes the durable
//      baseline at attach time), attach shadow, schedule_crash_after(n),
//      run the target op, catch CrashPoint, simulate the crash (kNone or
//      seeded kRandomEviction), reopen the pool, recover, and check the
//      shared invariant oracle (invariants.hpp).
//
// Prep runs without the shadow on purpose: it is deterministic, so the
// target op's event count is identical across replays, and skipping
// per-line tracking for hundreds of prep ops keeps the full sweep fast
// enough for CI.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "crash_sweep/invariants.hpp"
#include "nvm/persist.hpp"
#include "nvm/pool.hpp"
#include "nvm/shadow.hpp"
#include "obs/metrics.hpp"

namespace rnt::crash_sweep {

inline constexpr std::size_t kPoolBytes = std::size_t{2} << 20;

enum class OpClass {
  kInsertNonFull,  ///< insert into a non-full leaf
  kInsertSplit,    ///< insert that triggers a leaf split
  kInsertInnerSmo, ///< insert that splits a leaf of a height>=2 tree
  kUpdate,         ///< update of an existing key
  kRemove,         ///< remove of an existing key
  kCompaction,     ///< op that triggers compaction (RNTree: the first update
                   ///< reusing an index its shrink split reclaimed; trees
                   ///< without a compaction path: reuse of a freed position)
};

inline const char* op_class_name(OpClass c) {
  switch (c) {
    case OpClass::kInsertNonFull: return "insert-nonfull";
    case OpClass::kInsertSplit: return "insert-split";
    case OpClass::kInsertInnerSmo: return "insert-inner-smo";
    case OpClass::kUpdate: return "update";
    case OpClass::kRemove: return "remove";
    case OpClass::kCompaction: return "compaction";
  }
  return "?";
}

struct Step {
  enum Kind { kInsert, kUpdate, kRemove } kind;
  Key key;
  Value value;
};

struct Scenario {
  OpClass cls;
  std::vector<Step> prep;
  Step target;
};

/// Whether @p s would succeed against the committed model (conditional-op
/// semantics shared by every tree under test).
inline bool step_applies(const Model& m, const Step& s) {
  switch (s.kind) {
    case Step::kInsert: return m.count(s.key) == 0;
    case Step::kUpdate: return m.count(s.key) != 0;
    case Step::kRemove: return m.count(s.key) != 0;
  }
  return false;
}

template <class Tree>
void apply_step(Tree& t, Model& m, const Step& s) {
  switch (s.kind) {
    case Step::kInsert:
      if (t.insert(s.key, s.value)) m[s.key] = s.value;
      break;
    case Step::kUpdate:
      if (t.update(s.key, s.value)) m[s.key] = s.value;
      break;
    case Step::kRemove:
      if (t.remove(s.key)) m.erase(s.key);
      break;
  }
}

template <class Tree>
void apply_step_tree_only(Tree& t, const Step& s) {
  switch (s.kind) {
    case Step::kInsert: (void)t.insert(s.key, s.value); break;
    case Step::kUpdate: (void)t.update(s.key, s.value); break;
    case Step::kRemove: (void)t.remove(s.key); break;
  }
}

// Sweep-wide counters in the process metrics registry: bench/CI exports
// pick these up, so a sweep run doubles as a machine-readable record of how
// many crash points and recoveries were actually exercised.
struct SweepObs {
  obs::Counter crash_points{"sweep.crash_points"};
  obs::Counter recoveries{"sweep.recoveries"};
  obs::Counter events{"sweep.events"};
  obs::Counter persist_gate_checks{"sweep.persist_gate_checks"};
};

inline SweepObs& sweep_obs() {
  static SweepObs o;
  return o;
}

/// kRandomEviction seeds per sweep; RNT_SWEEP_SEEDS overrides (CI pins 4).
inline std::uint64_t eviction_seed_count() {
  if (const char* s = std::getenv("RNT_SWEEP_SEEDS")) {
    const long v = std::atol(s);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return 4;
}

// ---------------------------------------------------------------------------
// Scenario construction
// ---------------------------------------------------------------------------

inline Step seq_insert_step(std::uint64_t i) {
  return Step{Step::kInsert, 1000 + i * 2, 0x5EED0000 + i};
}

/// Calibrate an insert-split scenario: after @p base_inserts sequential
/// inserts (optionally requiring height >= 2 first), keep inserting until
/// one insert triggers a split — that insert is the target.
template <class A>
Scenario calibrate_split_scenario(OpClass cls, std::uint64_t base_inserts) {
  Scenario sc;
  sc.cls = cls;
  nvm::PmemPool pool(kPoolBytes);
  auto tree = A::make(pool);
  Model m;
  std::uint64_t i = 0;
  for (; i < base_inserts; ++i) {
    const Step s = seq_insert_step(i);
    apply_step(*tree, m, s);
    sc.prep.push_back(s);
  }
  if (cls == OpClass::kInsertInnerSmo && tree->height() < 2)
    throw std::logic_error("SMO calibration: prep did not reach height 2");
  for (;; ++i) {
    if (i > base_inserts + 100000)
      throw std::logic_error("split calibration did not converge");
    const std::uint64_t s0 = A::splits();
    const Step s = seq_insert_step(i);
    apply_step(*tree, m, s);
    if (A::splits() > s0) {
      sc.target = s;
      return sc;
    }
    sc.prep.push_back(s);
  }
}

/// Calibrate a compaction scenario from the adapter's op stream: run steps
/// until one increments the compaction counter — that step is the target,
/// or, for an adapter with kTargetsFirstReuse, the step after it (checked
/// to write a reclaimed entry).
template <class A>
Scenario calibrate_compaction_scenario() {
  Scenario sc;
  sc.cls = OpClass::kCompaction;
  nvm::PmemPool pool(kPoolBytes);
  auto tree = A::make(pool);
  Model m;
  for (std::uint64_t i = 0;; ++i) {
    if (i > 5000)
      throw std::logic_error("compaction calibration did not converge");
    const std::uint64_t c0 = A::compactions();
    const Step s = A::compaction_step(i);
    apply_step(*tree, m, s);
    if (A::compactions() > c0) {
      if constexpr (A::kTargetsFirstReuse) {
        sc.prep.push_back(s);
        sc.target = A::compaction_step(i + 1);
        A::apply_checking_reuse(*tree, pool, m, sc.target);
      } else {
        sc.target = s;
      }
      return sc;
    }
    sc.prep.push_back(s);
  }
}

template <class A>
Scenario make_scenario(OpClass cls) {
  Scenario sc;
  sc.cls = cls;
  switch (cls) {
    case OpClass::kInsertNonFull:
    case OpClass::kUpdate:
    case OpClass::kRemove: {
      // Five spaced keys: below even WBTreeSO's 7-entry live capacity, so
      // the target is guaranteed to land in a non-full leaf for every tree
      // (asserted by the count pass's no-split check).
      for (std::uint64_t i = 0; i < 5; ++i)
        sc.prep.push_back(Step{Step::kInsert, 100 + i * 10, 0xA000 + i});
      if (cls == OpClass::kInsertNonFull)
        sc.target = Step{Step::kInsert, 155, 0xB001};
      else if (cls == OpClass::kUpdate)
        sc.target = Step{Step::kUpdate, 130, 0xB002};
      else
        sc.target = Step{Step::kRemove, 130, 0};
      return sc;
    }
    case OpClass::kInsertSplit:
      return calibrate_split_scenario<A>(cls, 0);
    case OpClass::kInsertInnerSmo:
      return calibrate_split_scenario<A>(cls, A::kSmoPrepKeys);
    case OpClass::kCompaction:
      if constexpr (A::kHasCompaction) {
        return calibrate_compaction_scenario<A>();
      } else {
        // No compaction path in this tree: the class instead exercises
        // reuse of a log position / bitmap slot freed by a remove — the
        // adapter's stream ends on a remove and the target reinserts.
        for (std::uint64_t i = 0; i < A::kReuseTargetStep; ++i)
          sc.prep.push_back(A::compaction_step(i));
        sc.target = A::compaction_step(A::kReuseTargetStep);
        return sc;
      }
  }
  return sc;
}

// ---------------------------------------------------------------------------
// Count pass + per-crash-point replay
// ---------------------------------------------------------------------------

struct CountResult {
  std::uint64_t events = 0;
  std::uint64_t persists = 0;
  std::uint64_t split_delta = 0;
  std::uint64_t compaction_delta = 0;
  int height = 0;
};

template <class A>
CountResult count_events(const Scenario& sc) {
  nvm::PmemPool pool(kPoolBytes);
  auto tree = A::make(pool);
  Model m;
  for (const Step& s : sc.prep) apply_step(*tree, m, s);
  const std::uint64_t splits0 = A::splits();
  const std::uint64_t comps0 = A::compactions();
  nvm::ShadowPool shadow(pool);
  const obs::Counter& persists = nvm::persist_counters().persist;
  const std::uint64_t persists0 = persists.local();
  apply_step(*tree, m, sc.target);
  CountResult r;
  r.events = shadow.events_seen();
  r.persists = persists.local() - persists0;
  r.split_delta = A::splits() - splits0;
  r.compaction_delta = A::compactions() - comps0;
  r.height = tree->height();
  return r;
}

/// Assert the class's structural expectation and the Table-1 persistent-
/// instruction count against the count pass's measurements.
template <class A>
void check_class_expectations(const Scenario& sc, const CountResult& r) {
  const std::string ctx =
      std::string(A::kName) + "/" + op_class_name(sc.cls);
  ASSERT_GT(r.events, 0u) << ctx << ": target op tracked no NVM events";
  switch (sc.cls) {
    case OpClass::kInsertNonFull:
    case OpClass::kUpdate:
    case OpClass::kRemove: {
      ASSERT_EQ(r.split_delta, 0u) << ctx << ": unexpected split";
      ASSERT_EQ(r.compaction_delta, 0u) << ctx << ": unexpected compaction";
      // The Table-1 regression gate: these op classes ARE the paper's
      // per-modify persistent-instruction counts.
      const std::uint64_t expected =
          sc.cls == OpClass::kInsertNonFull ? A::kInsertPersists
          : sc.cls == OpClass::kUpdate      ? A::kUpdatePersists
                                            : A::kRemovePersists;
      EXPECT_EQ(r.persists, expected)
          << ctx << ": Table-1 persistent-instruction count regressed";
      sweep_obs().persist_gate_checks.inc();
      break;
    }
    case OpClass::kInsertSplit:
      ASSERT_GE(r.split_delta, 1u) << ctx << ": target did not split";
      break;
    case OpClass::kInsertInnerSmo:
      ASSERT_GE(r.split_delta, 1u) << ctx << ": target did not split";
      ASSERT_GE(r.height, 2) << ctx << ": tree not tall enough for an SMO";
      break;
    case OpClass::kCompaction:
      if constexpr (A::kHasCompaction) {
        if constexpr (A::kTargetsFirstReuse) {
          // The reclaim before it was free; so is reusing what it freed.
          ASSERT_EQ(r.compaction_delta, 0u) << ctx << ": reuse reclaimed again";
          EXPECT_EQ(r.persists, A::kUpdatePersists)
              << ctx << ": update into a reclaimed entry changed its persists";
          sweep_obs().persist_gate_checks.inc();
        } else {
          ASSERT_GE(r.compaction_delta, 1u) << ctx << ": target did not compact";
        }
      }
      break;
  }
}

template <class A>
void verify_recovered(typename A::Tree& t, nvm::PmemPool& pool,
                      const Model& committed, const Step& pending,
                      bool pending_applies, const std::string& ctx);

/// One crash point: replay prep, crash the target at event @p n, recover,
/// check the oracle.  All failure output carries the tree / class / crash
/// point / mode / seed needed to reproduce the case in isolation.
template <class A>
void run_crash_point(const Scenario& sc, std::uint64_t n,
                     nvm::EvictionMode mode, std::uint64_t seed) {
  const std::string ctx = std::string(A::kName) + "/" +
                          op_class_name(sc.cls) + " crash_at=" +
                          std::to_string(n) + " mode=" +
                          (mode == nvm::EvictionMode::kNone ? "kNone"
                                                            : "kRandomEviction") +
                          " seed=" + std::to_string(seed);
  nvm::PmemPool pool(kPoolBytes);
  Model m;
  Step pending{};
  bool pending_applies = false;
  {
    auto tree = A::make(pool);
    for (const Step& s : sc.prep) apply_step(*tree, m, s);
    nvm::ShadowPool shadow(pool);
    shadow.schedule_crash_after(n);
    pending = sc.target;
    pending_applies = step_applies(m, sc.target);
    bool crashed = false;
    try {
      apply_step_tree_only(*tree, sc.target);
    } catch (const nvm::CrashPoint&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed) << ctx << ": crash point beyond the op's events";
    tree.reset();  // volatile tree state dies with the process
    shadow.simulate_crash(mode, seed);
    sweep_obs().crash_points.inc();
  }
  pool.reopen_volatile();

  std::unique_ptr<typename A::Tree> rec;
  try {
    rec = A::recover(pool);
  } catch (const std::exception& e) {
    FAIL() << ctx << ": recovery threw: " << e.what();
  }
  sweep_obs().recoveries.inc();
  verify_recovered<A>(*rec, pool, m, pending, pending_applies, ctx);
}

/// The shared invariant oracle applied to a recovered tree.
template <class A>
void verify_recovered(typename A::Tree& t, nvm::PmemPool& pool,
                      const Model& committed, const Step& pending,
                      bool pending_applies, const std::string& ctx) {
  Model got;
  try {
    got = collect_chain<typename A::Tree::Leaf>(pool);
  } catch (const std::exception& e) {
    FAIL() << ctx << ": " << e.what();
  }

  // Committed effects are durable; nothing uncommitted is visible.
  for (const auto& [k, v] : committed) {
    if (k == pending.key) continue;
    auto it = got.find(k);
    ASSERT_TRUE(it != got.end()) << ctx << ": committed key " << k << " lost";
    ASSERT_EQ(it->second, v) << ctx << ": committed key " << k << " has wrong value";
  }
  for (const auto& [k, v] : got) {
    if (k == pending.key) continue;
    auto it = committed.find(k);
    ASSERT_TRUE(it != committed.end())
        << ctx << ": uncommitted key " << k << " visible after recovery";
    ASSERT_EQ(it->second, v);
  }

  // The in-flight op is all-or-nothing.
  {
    auto it = got.find(pending.key);
    const bool present = it != got.end();
    const auto old_it = committed.find(pending.key);
    const bool had_old = old_it != committed.end();
    switch (pending.kind) {
      case Step::kInsert:
        if (pending_applies) {
          ASSERT_TRUE(!present || it->second == pending.value)
              << ctx << ": torn in-flight insert";
        } else {
          ASSERT_TRUE(present && had_old && it->second == old_it->second)
              << ctx << ": failed conditional insert mutated state";
        }
        break;
      case Step::kUpdate:
        if (pending_applies) {
          ASSERT_TRUE(present) << ctx << ": in-flight update lost the key";
          ASSERT_TRUE(it->second == pending.value ||
                      (had_old && it->second == old_it->second))
              << ctx << ": torn in-flight update";
        } else {
          ASSERT_FALSE(present) << ctx << ": failed update materialised a key";
        }
        break;
      case Step::kRemove:
        if (pending_applies) {
          ASSERT_TRUE(!present || (had_old && it->second == old_it->second))
              << ctx << ": torn in-flight remove";
        } else {
          ASSERT_FALSE(present) << ctx << ": failed remove materialised a key";
        }
        break;
    }
  }

  // The recovered volatile index (inner tree) agrees with the persistent
  // chain: point lookups and the live-entry size both go through it.
  ASSERT_EQ(t.size(), got.size()) << ctx << ": recovered size() diverges";
  for (const auto& [k, v] : got) {
    auto r = t.find(k);
    ASSERT_TRUE(r.has_value()) << ctx << ": find(" << k << ") missed after recovery";
    ASSERT_EQ(*r, v) << ctx << ": find(" << k << ") wrong value after recovery";
  }
}

/// Full sweep: every crash point n in [1, events] for the given mode/seed.
template <class A>
void sweep_scenario(const Scenario& sc, nvm::EvictionMode mode,
                    std::uint64_t seed) {
  const CountResult r = count_events<A>(sc);
  {
    SCOPED_TRACE("count pass");
    check_class_expectations<A>(sc, r);
    if (::testing::Test::HasFatalFailure()) return;
  }
  sweep_obs().events.inc(r.events);
  for (std::uint64_t n = 1; n <= r.events; ++n) {
    run_crash_point<A>(sc, n, mode, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace rnt::crash_sweep
