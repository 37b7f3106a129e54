// Pool-exhaustion sweep: every tree variant is driven into a deliberately
// tiny NVM pool until an insert fails with kPoolExhausted, and after EVERY
// failed operation the shared crash-sweep invariant oracle
// (crash_sweep/invariants.hpp) must still pass: no torn leaf, no dangling
// split bit, no key lost.  A full tree must remain fully readable and
// updatable (updates may themselves report exhaustion, never corruption),
// and must survive a dirty crash + recovery + resumed operation.
//
// This is the end-to-end contract of the graceful-exhaustion redesign:
// allocation failure is discovered by pre-flight reservation (or an
// alloc-before-mutation split path) while backing out still costs nothing,
// so "the pool is full" is a Status the caller sees, not a state the tree
// dies in.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "baselines/cdds.hpp"
#include "common/status.hpp"
#include "crash_sweep/adapters.hpp"
#include "crash_sweep/invariants.hpp"
#include "nvm/persist.hpp"
#include "nvm/pool.hpp"

namespace rnt::crash_sweep {
namespace {

// The smallest pool PmemPool accepts: header/undo area plus one 1 MiB data
// chunk.  Every tree fills it in well under a second.
constexpr std::size_t kTinyPool = std::size_t{2} << 20;

// Fill keys are odd so tests can probe even keys as guaranteed-absent.
inline Key fill_key(std::uint64_t i) { return 2 * i + 1; }
inline Value fill_val(std::uint64_t i) { return 0xE0000000 + i; }

template <class A>
class PoolExhaustionT : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = nvm::config();
    nvm::config().write_latency_ns = 0;
    nvm::config().per_line_ns = 0;
  }
  void TearDown() override { nvm::config() = saved_; }
  nvm::NvmConfig saved_;
};

struct AdapterNames {
  template <class A>
  static std::string GetName(int) {
    std::string n = A::kName;
    for (char& c : n)
      if (c == '-') c = '_';
    return n;
  }
};

using Adapters =
    ::testing::Types<RnTreeAdapter<true>, RnTreeAdapter<false>, NvTreeAdapter,
                     WbTreeAdapter, WbTreeSoAdapter, FpTreeAdapter>;
TYPED_TEST_SUITE(PoolExhaustionT, Adapters, AdapterNames);

/// The shared oracle plus full-readability: persistent chain == model, and
/// every model entry is reachable through the tree's own lookup path.
template <class A>
void expect_intact(typename A::Tree& t, nvm::PmemPool& pool, const Model& m,
                   const std::string& ctx) {
  Model got;
  try {
    got = collect_chain<typename A::Tree::Leaf>(pool);
  } catch (const std::exception& e) {
    FAIL() << ctx << ": " << e.what();
  }
  ASSERT_EQ(got.size(), m.size()) << ctx << ": chain diverges from model";
  for (const auto& [k, v] : m) {
    auto it = got.find(k);
    ASSERT_TRUE(it != got.end()) << ctx << ": key " << k << " lost";
    ASSERT_EQ(it->second, v) << ctx << ": key " << k << " torn";
  }
  ASSERT_EQ(t.size(), m.size()) << ctx << ": size() diverges";
  // Sampled find()s (every entry on small models, strided on large ones)
  // keep the sweep fast while still crossing every leaf.
  const std::size_t stride = m.size() > 4096 ? 7 : 1;
  std::size_t i = 0;
  for (const auto& [k, v] : m) {
    if (i++ % stride != 0) continue;
    const auto r = t.find(k);
    ASSERT_TRUE(r.has_value()) << ctx << ": find(" << k << ") missed";
    ASSERT_EQ(*r, v) << ctx << ": find(" << k << ") stale";
  }
}

/// Insert ascending keys until the pool refuses one.  Returns the model of
/// everything that was accepted.
template <class A>
Model fill_to_failure(typename A::Tree& t, std::uint64_t* next_key) {
  Model m;
  common::Status st = common::OkStatus();
  std::uint64_t i = 0;
  for (; i < 10'000'000; ++i) {
    st = t.insert(fill_key(i), fill_val(i));
    if (!st) break;
    m[fill_key(i)] = fill_val(i);
  }
  EXPECT_FALSE(st) << A::kName << ": tiny pool never filled";
  EXPECT_EQ(st.code(), common::StatusCode::kPoolExhausted)
      << A::kName << ": fill failed with the wrong status";
  EXPECT_GT(m.size(), 100u) << A::kName << ": pool filled implausibly early";
  *next_key = i;
  return m;
}

TYPED_TEST(PoolExhaustionT, FailedInsertsLeaveTheTreeIntact) {
  nvm::PmemPool pool(kTinyPool);
  auto tree = TypeParam::make(pool);
  std::uint64_t next = 0;
  Model m = fill_to_failure<TypeParam>(*tree, &next);
  if (::testing::Test::HasFailure()) return;
  expect_intact<TypeParam>(*tree, pool, m, "after first failed insert");

  // Repeated failures are just as harmless: the oracle runs after each one.
  for (int round = 0; round < 3; ++round) {
    const common::Status st = tree->insert(fill_key(next + round), 0xDEAD);
    EXPECT_FALSE(st);
    EXPECT_EQ(st.code(), common::StatusCode::kPoolExhausted);
    expect_intact<TypeParam>(*tree, pool, m,
                             "after failed insert round " +
                                 std::to_string(round));
    if (::testing::Test::HasFailure()) return;
  }
}

TYPED_TEST(PoolExhaustionT, FullTreeStaysReadableAndUpdatable) {
  nvm::PmemPool pool(kTinyPool);
  auto tree = TypeParam::make(pool);
  std::uint64_t next = 0;
  Model m = fill_to_failure<TypeParam>(*tree, &next);
  if (::testing::Test::HasFailure()) return;

  // Absent keys stay absent; present keys stay found (checked in
  // expect_intact).  Updates on a full tree either apply or report
  // exhaustion — both leave the oracle clean.
  EXPECT_FALSE(tree->find(fill_key(next)).has_value());
  EXPECT_FALSE(tree->find(0).has_value());
  std::uint64_t applied = 0;
  std::uint64_t refused = 0;
  for (std::uint64_t i = 0; i < 32; ++i) {
    const Key k = fill_key(i * (m.size() / 33 + 1));
    if (m.count(k) == 0) continue;
    const common::Status u = tree->update(k, 0xF00D0000 + i);
    if (u) {
      m[k] = 0xF00D0000 + i;
      ++applied;
    } else {
      EXPECT_EQ(u.code(), common::StatusCode::kPoolExhausted)
          << TypeParam::kName << ": update failed with the wrong status";
      ++refused;
    }
    expect_intact<TypeParam>(*tree, pool, m,
                             "after update of key " + std::to_string(k));
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(applied + refused, 0u);

  // Removes free log/bitmap positions without allocating, so they must keep
  // working on a full tree for every variant except NVTree (whose removes
  // append a log entry and may themselves report exhaustion).
  std::uint64_t removed = 0;
  for (std::uint64_t i = 1; i <= 16 && !m.empty(); ++i) {
    const Key k = std::next(m.begin(), static_cast<long>(m.size() / 2))->first;
    if (tree->remove(k)) {
      m.erase(k);
      ++removed;
    }
  }
  if (std::string(TypeParam::kName) != "nvtree") {
    EXPECT_EQ(removed, 16u) << TypeParam::kName
                            << ": allocation-free removes failed on a full tree";
  }
  expect_intact<TypeParam>(*tree, pool, m, "after removes on a full tree");
}

TYPED_TEST(PoolExhaustionT, FullTreeSurvivesCrashRecoveryAndResumes) {
  nvm::PmemPool pool(kTinyPool);
  std::uint64_t next = 0;
  Model m;
  {
    auto tree = TypeParam::make(pool);
    m = fill_to_failure<TypeParam>(*tree, &next);
    if (::testing::Test::HasFailure()) return;
    // A couple more refused ops right before the crash: the failure paths
    // must not leave anything half-published for recovery to trip on.
    (void)tree->insert(fill_key(next), 0xDEAD);
    (void)tree->insert(fill_key(next + 1), 0xDEAD);
    tree.reset();  // dirty: no close(), volatile state simply vanishes
  }
  pool.reopen_volatile();
  ASSERT_FALSE(pool.clean_shutdown());

  std::unique_ptr<typename TypeParam::Tree> rec;
  try {
    rec = TypeParam::recover(pool);
  } catch (const std::exception& e) {
    FAIL() << TypeParam::kName << ": recovery of a full pool threw: "
           << e.what();
  }
  expect_intact<TypeParam>(*rec, pool, m, "after crash recovery");
  if (::testing::Test::HasFailure()) return;

  // Resume on the recovered-but-full tree: reads work, a fresh insert still
  // reports exhaustion gracefully, and the oracle stays clean.
  const common::Status st = rec->insert(fill_key(next + 2), 0xDEAD);
  EXPECT_FALSE(st);
  EXPECT_EQ(st.code(), common::StatusCode::kPoolExhausted);
  const common::Status u = rec->update(m.begin()->first, 0xBEEF);
  if (u) m[m.begin()->first] = 0xBEEF;
  expect_intact<TypeParam>(*rec, pool, m, "after resumed ops post-recovery");
}

// CDDS has no crash-sweep oracle specialization (it is the Table-1-only
// baseline), so its graceful-exhaustion contract is checked through its own
// API: fill to failure, verify every accepted entry by lookup and scan,
// and confirm multi-version updates refuse (not corrupt) when space for the
// new version cannot be secured.
TEST(PoolExhaustionCdds, FillFailReadUpdate) {
  nvm::NvmConfig saved = nvm::config();
  nvm::config().write_latency_ns = 0;
  nvm::config().per_line_ns = 0;
  {
    nvm::PmemPool pool(kTinyPool);
    baselines::CDDSTree<Key, Value> tree(pool);
    Model m;
    common::Status st = common::OkStatus();
    std::uint64_t i = 0;
    for (; i < 10'000'000; ++i) {
      st = tree.insert(fill_key(i), fill_val(i));
      if (!st) break;
      m[fill_key(i)] = fill_val(i);
    }
    ASSERT_FALSE(st);
    EXPECT_EQ(st.code(), common::StatusCode::kPoolExhausted);
    EXPECT_GT(m.size(), 100u);
    EXPECT_EQ(tree.size(), m.size());

    // The old version must survive an update that cannot allocate the new
    // one (the space is secured before the live entry is retired).
    const Key uk = m.begin()->first;
    const common::Status u = tree.update(uk, 0xBEEF);
    if (u)
      m[uk] = 0xBEEF;
    else
      EXPECT_EQ(u.code(), common::StatusCode::kPoolExhausted);
    EXPECT_EQ(tree.find(uk), std::optional<Value>(m[uk]));

    std::vector<std::pair<Key, Value>> got;
    tree.scan_n(0, m.size() + 8, got);
    ASSERT_EQ(got.size(), m.size());
    auto it = m.begin();
    for (std::size_t j = 0; j < got.size(); ++j, ++it) {
      ASSERT_EQ(got[j].first, it->first);
      ASSERT_EQ(got[j].second, it->second);
    }
  }
  nvm::config() = saved;
}

}  // namespace
}  // namespace rnt::crash_sweep
