// Linearizability checking for concurrent RNTree histories.
//
// Wing & Gong-style checker: worker threads record every operation with
// invocation/response timestamps drawn from one global atomic ticket
// counter (fetch_add is itself linearizable, so ticket order is consistent
// with real time: res(A) < inv(B) in tickets implies A really completed
// before B started).  The checker then searches for a sequential order of
// all operations that (a) respects that real-time precedence and (b) makes
// every recorded result legal against a std::unordered_map oracle.  DFS
// over per-thread queues with memoization on (queue positions, oracle
// hash); inserted values are unique per (thread, seq), which prunes the
// search hard — a find's result pins which insert preceded it.
//
// Three concurrent legs: a split-heavy mix (COW SMO installs racing the
// recorded operations), a hot-key mix, and the split-heavy mix under a
// seeded abort storm targeted at install transactions (SmoTargetedInjector)
// — the install retry/fallback machine must stay linearizable when every
// tier gets exercised.  Plus checker self-tests on hand-built histories,
// including a non-linearizable one the checker must reject.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "core/rntree.hpp"
#include "htm/abort_inject.hpp"
#include "htm/smo.hpp"
#include "nvm/pool.hpp"

namespace rnt {
namespace {

using Tree = core::RNTree<std::uint64_t, std::uint64_t>;

enum class Kind : std::uint8_t { kInsert, kUpdate, kRemove, kFind };

struct Op {
  Kind kind;
  std::uint64_t key = 0;
  std::uint64_t val = 0;    // argument of insert/update
  bool ok = false;          // recorded status of insert/update/remove
  bool found = false;       // find: hit?
  std::uint64_t rval = 0;   // find: value when hit
  std::uint64_t inv = 0;    // invocation ticket
  std::uint64_t res = 0;    // response ticket
};

using History = std::vector<std::vector<Op>>;  // per-thread, program order

// --- the checker ------------------------------------------------------------

class LinChecker {
 public:
  enum class Verdict { kLinearizable, kNotLinearizable, kBudgetExceeded };

  explicit LinChecker(const History& h, std::uint64_t max_states = 20'000'000)
      : h_(h), budget_(max_states), pos_(h.size(), 0) {
    for (const auto& q : h_) remaining_ += q.size();
  }

  Verdict check() {
    const bool ok = dfs();
    if (exceeded_) return Verdict::kBudgetExceeded;
    return ok ? Verdict::kLinearizable : Verdict::kNotLinearizable;
  }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ull;
    return x ^ (x >> 33);
  }
  static std::uint64_t entry_hash(std::uint64_t k, std::uint64_t v) {
    return mix(k * 0x9E3779B97F4A7C15ull + 0x165667B19E3779F9ull) ^ mix(v + 1);
  }

  bool dfs() {
    if (remaining_ == 0) return true;
    if (++states_ > budget_) {
      exceeded_ = true;
      return false;
    }
    // Memoize on (positions, oracle state).  64-bit key: a false collision
    // would wrongly prune one state; with <=budget_ states the collision
    // odds are ~n^2/2^64 — negligible for a test, and the failure mode is
    // a false negative we would notice, never a false pass... actually a
    // wrong prune could only hide a witness (flaky FAIL), never fake one.
    std::uint64_t ph = 0;
    for (std::size_t p : pos_) ph = ph * 1000003ull + p;
    if (!seen_.insert(mix(ph) ^ model_hash_ * 0x9E3779B97F4A7C15ull).second)
      return false;

    // Candidate heads: h may be linearized first iff no other pending head
    // completed before h was invoked (h.inv < every other head's res).
    std::uint64_t min1 = ~0ull, min2 = ~0ull;
    for (std::size_t t = 0; t < h_.size(); ++t) {
      if (pos_[t] >= h_[t].size()) continue;
      const std::uint64_t r = h_[t][pos_[t]].res;
      if (r < min1) { min2 = min1; min1 = r; }
      else if (r < min2) { min2 = r; }
    }
    for (std::size_t t = 0; t < h_.size(); ++t) {
      if (pos_[t] >= h_[t].size()) continue;
      const Op& op = h_[t][pos_[t]];
      const std::uint64_t others_min = op.res == min1 ? min2 : min1;
      if (op.inv >= others_min) continue;
      if (try_op(t, op)) return true;
      if (exceeded_) return false;
    }
    return false;
  }

  // Applies op to the oracle if its recorded result is legal here, recurses,
  // undoes.  Returns true iff a full linearization was found down this arm.
  bool try_op(std::size_t t, const Op& op) {
    bool mutated = false, had_old = false;
    std::uint64_t old_val = 0;
    bool legal;
    switch (op.kind) {
      case Kind::kInsert: {
        const bool absent = model_.find(op.key) == model_.end();
        legal = absent == op.ok;
        if (legal && op.ok) {
          model_.emplace(op.key, op.val);
          model_hash_ ^= entry_hash(op.key, op.val);
          mutated = true;
        }
        break;
      }
      case Kind::kUpdate: {
        auto it = model_.find(op.key);
        legal = (it != model_.end()) == op.ok;
        if (legal && op.ok) {
          had_old = true;
          old_val = it->second;
          model_hash_ ^= entry_hash(op.key, old_val);
          it->second = op.val;
          model_hash_ ^= entry_hash(op.key, op.val);
          mutated = true;
        }
        break;
      }
      case Kind::kRemove: {
        auto it = model_.find(op.key);
        legal = (it != model_.end()) == op.ok;
        if (legal && op.ok) {
          had_old = true;
          old_val = it->second;
          model_hash_ ^= entry_hash(op.key, old_val);
          model_.erase(it);
          mutated = true;
        }
        break;
      }
      case Kind::kFind: {
        auto it = model_.find(op.key);
        legal = (it != model_.end()) == op.found &&
                (!op.found || it->second == op.rval);
        break;
      }
      default:
        legal = false;
    }
    bool done = false;
    if (legal) {
      pos_[t]++;
      remaining_--;
      done = dfs();
      remaining_++;
      pos_[t]--;
    }
    if (mutated) {  // undo
      switch (op.kind) {
        case Kind::kInsert:
          model_hash_ ^= entry_hash(op.key, op.val);
          model_.erase(op.key);
          break;
        case Kind::kUpdate:
          model_hash_ ^= entry_hash(op.key, op.val);
          model_[op.key] = old_val;
          model_hash_ ^= entry_hash(op.key, old_val);
          break;
        case Kind::kRemove:
          if (had_old) {
            model_.emplace(op.key, old_val);
            model_hash_ ^= entry_hash(op.key, old_val);
          }
          break;
        default:
          break;
      }
    }
    return done;
  }

  const History& h_;
  const std::uint64_t budget_;
  std::vector<std::size_t> pos_;
  std::unordered_map<std::uint64_t, std::uint64_t> model_;
  std::uint64_t model_hash_ = 0;
  std::unordered_set<std::uint64_t> seen_;
  std::uint64_t remaining_ = 0;
  std::uint64_t states_ = 0;
  bool exceeded_ = false;
};

// --- history recording -------------------------------------------------------

History record_history(Tree& tree, int threads, int ops_per_thread,
                       std::uint64_t keyspace, std::uint64_t seed) {
  std::atomic<std::uint64_t> clock{0};
  std::atomic<bool> go{false};
  History h(threads);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(seed + static_cast<std::uint64_t>(t) * 0x9E3779B9ull);
      auto& ops = h[t];
      ops.reserve(ops_per_thread);
      while (!go.load(std::memory_order_acquire)) {}
      for (int i = 0; i < ops_per_thread; ++i) {
        const std::uint64_t draw = rng.next_below(100);
        Op op{};
        op.key = rng.next_below(keyspace);
        // Unique value per (thread, seq): a find's hit identifies exactly
        // which write it observed.
        op.val = (static_cast<std::uint64_t>(t) << 20) |
                 static_cast<std::uint64_t>(i);
        if (draw < 45) {
          op.kind = Kind::kInsert;
          op.inv = clock.fetch_add(1, std::memory_order_relaxed);
          op.ok = static_cast<bool>(tree.insert(op.key, op.val));
          op.res = clock.fetch_add(1, std::memory_order_relaxed);
        } else if (draw < 60) {
          op.kind = Kind::kUpdate;
          op.inv = clock.fetch_add(1, std::memory_order_relaxed);
          op.ok = static_cast<bool>(tree.update(op.key, op.val));
          op.res = clock.fetch_add(1, std::memory_order_relaxed);
        } else if (draw < 75) {
          op.kind = Kind::kRemove;
          op.inv = clock.fetch_add(1, std::memory_order_relaxed);
          op.ok = tree.remove(op.key);
          op.res = clock.fetch_add(1, std::memory_order_relaxed);
        } else {
          op.kind = Kind::kFind;
          op.inv = clock.fetch_add(1, std::memory_order_relaxed);
          const std::optional<std::uint64_t> v = tree.find(op.key);
          op.res = clock.fetch_add(1, std::memory_order_relaxed);
          op.found = v.has_value();
          op.rval = v.value_or(0);
        }
        ops.push_back(op);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : workers) th.join();
  return h;
}

void expect_linearizable(const History& h, const char* what) {
  LinChecker checker(h);
  const LinChecker::Verdict v = checker.check();
  EXPECT_NE(v, LinChecker::Verdict::kBudgetExceeded)
      << what << ": checker state budget exceeded";
  EXPECT_EQ(v, LinChecker::Verdict::kLinearizable) << what;
}

// --- checker self-tests -------------------------------------------------------

Op mk(Kind k, std::uint64_t key, std::uint64_t val, bool ok, bool found,
      std::uint64_t rval, std::uint64_t inv, std::uint64_t res) {
  Op o;
  o.kind = k;
  o.key = key;
  o.val = val;
  o.ok = ok;
  o.found = found;
  o.rval = rval;
  o.inv = inv;
  o.res = res;
  return o;
}

TEST(LinCheckerSelfTest, AcceptsOverlappingButOrderableHistory) {
  // T0: insert(5, 100) over tickets [0, 3]; T1: find(5) -> 100 over [1, 2]
  // (fully nested in the insert).  Legal: linearize insert first.
  History h(2);
  h[0].push_back(mk(Kind::kInsert, 5, 100, true, false, 0, 0, 3));
  h[1].push_back(mk(Kind::kFind, 5, 0, false, true, 100, 1, 2));
  EXPECT_EQ(LinChecker(h).check(), LinChecker::Verdict::kLinearizable);
}

TEST(LinCheckerSelfTest, RejectsStaleReadAfterCompletedInsert) {
  // insert(5, 100) COMPLETES (res=1) before find(5) is invoked (inv=2), yet
  // the find missed.  No sequential order explains that.
  History h(2);
  h[0].push_back(mk(Kind::kInsert, 5, 100, true, false, 0, 0, 1));
  h[1].push_back(mk(Kind::kFind, 5, 0, false, false, 0, 2, 3));
  EXPECT_EQ(LinChecker(h).check(), LinChecker::Verdict::kNotLinearizable);
}

TEST(LinCheckerSelfTest, RejectsValueFromNowhere) {
  // find returns a value nobody ever wrote.
  History h(2);
  h[0].push_back(mk(Kind::kInsert, 5, 100, true, false, 0, 0, 1));
  h[1].push_back(mk(Kind::kFind, 5, 0, false, true, 777, 2, 3));
  EXPECT_EQ(LinChecker(h).check(), LinChecker::Verdict::kNotLinearizable);
}

TEST(LinCheckerSelfTest, AcceptsRacingInsertsOnOneKey) {
  // Two overlapping inserts on one key: exactly one may succeed, in either
  // order; a later find must see the winner.
  History h(3);
  h[0].push_back(mk(Kind::kInsert, 9, 1, true, false, 0, 0, 4));
  h[1].push_back(mk(Kind::kInsert, 9, 2, false, false, 0, 1, 3));
  h[2].push_back(mk(Kind::kFind, 9, 0, false, true, 1, 5, 6));
  EXPECT_EQ(LinChecker(h).check(), LinChecker::Verdict::kLinearizable);
}

// --- concurrent tree legs ------------------------------------------------------

TEST(Linearizability, CowSmoHistorySplitHeavy) {
  // Wide keyspace on a fresh tree: the insert-heavy mix splits leaves
  // constantly, so COW installs race the recorded operations throughout.
  nvm::PmemPool pool(std::size_t{128} << 20);
  Tree tree(pool, {.dual_slot = true, .root_slot = 0});
  const History h = record_history(tree, 4, 300, 4096, 0x11CE);
  expect_linearizable(h, "split-heavy");
}

TEST(Linearizability, CowSmoHistoryHotKeys) {
  // Small hot set: maximum result-level contention (racing inserts/removes
  // on the same keys), little structural churn.
  nvm::PmemPool pool(std::size_t{64} << 20);
  Tree tree(pool, {.dual_slot = true, .root_slot = 0});
  const History h = record_history(tree, 4, 250, 96, 0x5EED);
  expect_linearizable(h, "hot keys");
}

TEST(Linearizability, CowSmoHistoryUnderInstallAbortStorm) {
  // Seeded abort storm aimed ONLY at SMO install transactions: every retry
  // tier of the install machine (HTM retry, backoff, lock fallback) runs
  // while the recorded operations race it.
  htm::RandomAbortInjector rnd(0xBADF00D, /*permille=*/800);
  htm::SmoTargetedInjector smo_only(rnd);
  htm::ScopedAbortInjector scope(&smo_only);

  nvm::PmemPool pool(std::size_t{128} << 20);
  Tree tree(pool, {.dual_slot = true, .root_slot = 0});
  const History h = record_history(tree, 4, 300, 2048, 0xAB0);
  expect_linearizable(h, "under install abort storm");
}

}  // namespace
}  // namespace rnt
