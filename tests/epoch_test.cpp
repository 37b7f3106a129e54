// Tests for epoch-based reclamation.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "epoch/ebr.hpp"

namespace rnt::epoch {
namespace {

TEST(Epoch, RetireIsDeferredWhileGuardActive) {
  EpochManager mgr;
  std::atomic<bool> freed{false};
  {
    Guard g = mgr.pin();
    mgr.retire([&] { freed = true; });
    mgr.collect();
    EXPECT_FALSE(freed.load());  // guard pinned before the retire
  }
  mgr.collect();
  EXPECT_TRUE(freed.load());
}

TEST(Epoch, RetireFreesPromptlyWithoutGuards) {
  EpochManager mgr;
  std::atomic<bool> freed{false};
  mgr.retire([&] { freed = true; });
  mgr.collect();
  EXPECT_TRUE(freed.load());
}

TEST(Epoch, GuardMoveSemantics) {
  EpochManager mgr;
  Guard a = mgr.pin();
  Guard b = std::move(a);
  EXPECT_FALSE(a.active());
  EXPECT_TRUE(b.active());
  b.release();
  EXPECT_FALSE(b.active());
}

TEST(Epoch, MoveAssignReleasesPreviousSlot) {
  // A move-assign that leaked the destination's slot would pin its epoch
  // forever, so the retiree below could never be reclaimed.
  EpochManager mgr;
  std::atomic<bool> freed{false};
  Guard a = mgr.pin();
  mgr.retire([&] { freed = true; });
  mgr.collect();
  EXPECT_FALSE(freed.load());  // a's slot still pins the retiree's epoch
  a = mgr.pin();               // must release the old slot, then re-pin
  EXPECT_TRUE(a.active());
  mgr.collect();
  EXPECT_TRUE(freed.load());
}

TEST(Epoch, SelfMoveAssignKeepsGuardActive) {
  EpochManager mgr;
  Guard a = mgr.pin();
  Guard& alias = a;  // defeat -Wself-move at the call site
  a = std::move(alias);
  EXPECT_TRUE(a.active());
  a.release();
  EXPECT_FALSE(a.active());
  // The slot really was returned exactly once: a retire now frees promptly.
  std::atomic<bool> freed{false};
  mgr.retire([&] { freed = true; });
  mgr.collect();
  EXPECT_TRUE(freed.load());
}

TEST(Epoch, ReassignLoopDoesNotLeakSlots) {
  // pin() linear-probes EpochManager::kSlots slots and spins when none is
  // free: a leaky move-assign would wedge this loop well before it finishes
  // (and trip the manager's destructor assert on leftover pinned slots).
  EpochManager mgr;
  Guard g = mgr.pin();
  for (int i = 0; i < 4 * EpochManager::kSlots; ++i) g = mgr.pin();
  EXPECT_TRUE(g.active());
  g.release();
  std::atomic<bool> freed{false};
  mgr.retire([&] { freed = true; });
  mgr.collect();
  EXPECT_TRUE(freed.load());
}

TEST(Epoch, NewGuardDoesNotBlockOlderRetire) {
  EpochManager mgr;
  std::atomic<bool> freed{false};
  mgr.retire([&] { freed = true; });
  mgr.collect();           // epoch advances past the retiree
  Guard g = mgr.pin();     // pinned at a newer epoch
  mgr.collect();
  EXPECT_TRUE(freed.load());
}

TEST(Epoch, DestructorDrainsLimbo) {
  std::atomic<int> freed{0};
  {
    EpochManager mgr;
    for (int i = 0; i < 10; ++i) mgr.retire([&] { ++freed; });
  }
  EXPECT_EQ(freed.load(), 10);
}

TEST(Epoch, AutomaticCollectionOnThreshold) {
  EpochManager mgr;
  std::atomic<int> freed{0};
  for (int i = 0; i < 1000; ++i) mgr.retire([&] { ++freed; });
  EXPECT_GT(freed.load(), 800);  // amortised collection kicked in
}

TEST(Epoch, ManyConcurrentGuards) {
  EpochManager mgr;
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::atomic<std::uint64_t> pins{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        Guard g = mgr.pin();
        pins.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(pins.load(), static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Epoch, StressReadersNeverTouchFreedMemory) {
  // Writers repeatedly swap a shared node and retire the old one; readers
  // dereference under a guard.  Freed nodes are poisoned; readers must never
  // observe the poison through a validly acquired pointer.  The poison is a
  // value the writer's counter cannot reach, so a live node never matches.
  constexpr std::uint64_t kPoison = ~0ull;
  struct Node {
    std::atomic<std::uint64_t> value{0};
  };
  EpochManager mgr;
  std::atomic<Node*> shared{new Node{}};
  shared.load()->value = 1;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> poisoned_reads{0};

  std::thread writer([&] {
    std::uint64_t v = 2;
    while (!stop.load(std::memory_order_relaxed)) {
      Node* fresh = new Node{};
      fresh->value = v++;
      Node* old = shared.exchange(fresh, std::memory_order_acq_rel);
      mgr.retire([old] {
        old->value.store(kPoison, std::memory_order_relaxed);
        delete old;
      });
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        Guard g = mgr.pin();
        Node* n = shared.load(std::memory_order_acquire);
        if (n->value.load(std::memory_order_relaxed) == kPoison)
          poisoned_reads.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop = true;
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(poisoned_reads.load(), 0u);
  delete shared.load();
}

}  // namespace
}  // namespace rnt::epoch
