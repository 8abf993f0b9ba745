// Work-stealing deque tests: owner LIFO, thief FIFO, the conditional
// take_if used by the fork-join fast path, and a concurrent stress test.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "runtime/deque.hpp"
#include "runtime/frame.hpp"

namespace {

using cilkm::rt::Deque;
using cilkm::rt::SpawnFrame;

TEST(Deque, StartsEmpty) {
  Deque dq;
  EXPECT_TRUE(dq.empty());
  EXPECT_EQ(dq.take_any(), nullptr);
  EXPECT_EQ(dq.steal(), nullptr);
}

TEST(Deque, OwnerTakesLifo) {
  Deque dq;
  SpawnFrame f1, f2, f3;
  dq.push(&f1);
  dq.push(&f2);
  dq.push(&f3);
  EXPECT_EQ(dq.take_any(), &f3);
  EXPECT_EQ(dq.take_any(), &f2);
  EXPECT_EQ(dq.take_any(), &f1);
  EXPECT_EQ(dq.take_any(), nullptr);
}

TEST(Deque, ThiefStealsFifo) {
  Deque dq;
  SpawnFrame f1, f2, f3;
  dq.push(&f1);
  dq.push(&f2);
  dq.push(&f3);
  EXPECT_EQ(dq.steal(), &f1);  // oldest (shallowest) first
  EXPECT_EQ(dq.steal(), &f2);
  EXPECT_EQ(dq.steal(), &f3);
  EXPECT_EQ(dq.steal(), nullptr);
}

TEST(Deque, TakeIfMatchesOwnFrame) {
  Deque dq;
  SpawnFrame mine;
  dq.push(&mine);
  EXPECT_EQ(dq.take_if(&mine), &mine);
  EXPECT_TRUE(dq.empty());
}

TEST(Deque, TakeIfLeavesOlderEntryWhenOwnFrameWasStolen) {
  Deque dq;
  SpawnFrame outer, mine;
  dq.push(&outer);
  dq.push(&mine);
  EXPECT_EQ(dq.steal(), &outer);  // thief takes the old entry...
  SpawnFrame* thief2 = dq.steal();  // ...and another thief takes ours
  EXPECT_EQ(thief2, &mine);
  EXPECT_EQ(dq.take_if(&mine), nullptr);  // owner finds nothing
}

TEST(Deque, TakeIfRestoresOlderBottomEntry) {
  Deque dq;
  SpawnFrame outer, mine;
  dq.push(&outer);
  dq.push(&mine);
  ASSERT_EQ(dq.steal(), &outer);
  // Simulate: our frame got stolen, an even older frame... here instead we
  // re-push outer below and check take_if(&outer-mismatch) keeps it.
  SpawnFrame* stolen = dq.steal();
  ASSERT_EQ(stolen, &mine);
  dq.push(&outer);
  // Owner expected `mine` but bottom is `outer`: must return null and leave
  // outer available.
  EXPECT_EQ(dq.take_if(&mine), nullptr);
  EXPECT_EQ(dq.take_any(), &outer);
}

TEST(Deque, InterleavedPushTakeSteal) {
  Deque dq;
  std::vector<SpawnFrame> frames(100);
  for (int i = 0; i < 100; ++i) {
    dq.push(&frames[static_cast<std::size_t>(i)]);
    if (i % 3 == 0) EXPECT_NE(dq.take_any(), nullptr);
    if (i % 7 == 0) dq.steal();
  }
  int remaining = 0;
  while (dq.take_any() != nullptr) ++remaining;
  EXPECT_GT(remaining, 0);
}

TEST(DequeStress, ConcurrentStealersReceiveEachEntryExactlyOnce) {
  // The owner pushes and pops while four thieves steal: every frame must
  // surface exactly once across owner pops and thefts.
  Deque dq;
  constexpr int kFrames = 20000;
  constexpr int kThieves = 4;
  std::vector<SpawnFrame> frames(kFrames);
  SpawnFrame never_pushed;

  std::atomic<bool> start{false};
  std::atomic<int> taken_by_owner{0};
  std::vector<std::vector<SpawnFrame*>> stolen(kThieves);

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      while (true) {
        SpawnFrame* f = dq.steal();
        if (f != nullptr) {
          stolen[t].push_back(f);
          continue;
        }
        if (taken_by_owner.load(std::memory_order_acquire) < 0 && dq.empty()) {
          break;
        }
        std::this_thread::yield();
      }
    });
  }

  start.store(true, std::memory_order_release);
  int own = 0;
  for (int i = 0; i < kFrames; ++i) {
    SpawnFrame* f = &frames[static_cast<std::size_t>(i)];
    dq.push(f);
    if (i % 2 == 1) {
      // Alternate the owner's two pop flavours so the conditional take_if
      // (fork-join fast path) races the thieves as well as take_any. A
      // mismatched take_if first must leave the bottom entry in place
      // (restoring it when it was the last one) for the thieves or the
      // matching pop.
      if (i % 4 == 1) {
        if (dq.take_any() != nullptr) ++own;
      } else {
        EXPECT_EQ(dq.take_if(&never_pushed), nullptr);
        if (dq.take_if(f) != nullptr) ++own;
      }
    }
  }
  while (dq.take_any() != nullptr) ++own;
  taken_by_owner.store(-1, std::memory_order_release);
  for (auto& th : thieves) th.join();

  std::set<SpawnFrame*> seen;
  int stolen_total = 0;
  for (const auto& v : stolen) {
    for (SpawnFrame* f : v) {
      EXPECT_TRUE(seen.insert(f).second) << "frame stolen twice";
      ++stolen_total;
    }
  }
  EXPECT_EQ(own + stolen_total, kFrames);
}

}  // namespace
