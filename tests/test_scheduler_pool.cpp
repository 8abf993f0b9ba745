// The persistent worker pool: threads are created once and survive across
// run() calls, idle workers park on the scheduler's idle gate instead of
// spinning, stats count each theft once and each stolen continuation joins
// with one hypermerge, and a run that throws leaves the pool quiesced and
// reusable.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "reducers/reducers.hpp"
#include "runtime/api.hpp"

namespace {

using cilkm::StatCounter;
using cilkm::parallel_for;

/// Threads of this process, from /proc/self/status (Linux-only, like the
/// runtime's context switch).
int count_os_threads() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  int threads = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "Threads: %d", &threads) == 1) break;
  }
  std::fclose(f);
  return threads;
}

TEST(SchedulerPool, ThreadsPersistAcrossRuns) {
  cilkm::Scheduler sched(4);
  sched.run([] {});
  const int after_first = count_os_threads();
  ASSERT_GE(after_first, 4);
  for (int round = 0; round < 25; ++round) {
    std::atomic<long> sum{0};
    sched.run([&] {
      parallel_for(0, 500, 8, [&](std::int64_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
      });
    });
    EXPECT_EQ(sum.load(), 499L * 500 / 2);
  }
  // A per-run thread pool would have churned through dozens of threads here;
  // the persistent pool's population is unchanged.
  EXPECT_EQ(count_os_threads(), after_first);
}

TEST(SchedulerPool, WarmUpStartsThreadsWithoutRunning) {
  const int before = count_os_threads();
  cilkm::Scheduler sched(3);
  sched.warm_up();
  EXPECT_GE(count_os_threads(), before + 3);
  // warm_up is idempotent and the warmed pool runs normally.
  sched.warm_up();
  std::atomic<int> ran{0};
  sched.run([&] { ran.store(1); });
  EXPECT_EQ(ran.load(), 1);
}

TEST(SchedulerPool, IdleWorkersParkInsteadOfSpinning) {
  // Oversubscribed pool, serial root: every worker except the one running
  // the root is idle for the whole run and must end up parked on the idle
  // gate (spin → yield → park), observable via the new kParks counter.
  cilkm::Scheduler sched(8);
  sched.run([] {});  // create threads; don't count warm-up parking
  sched.reset_stats();
  sched.run([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  const auto stats = sched.aggregate_stats();
  EXPECT_GE(stats[StatCounter::kParks], 1u);
  // The root-done broadcast (and any pushes) must have delivered wake-ups to
  // the parked workers.
  EXPECT_GE(stats[StatCounter::kWakes], 1u);
}

TEST(SchedulerPool, StatsAccumulateUntilReset) {
  cilkm::Scheduler sched(2);
  sched.run([] { parallel_for(0, 200, 4, [](std::int64_t) {}); });
  const auto first = sched.aggregate_stats();
  EXPECT_GE(first[StatCounter::kFibersAllocated], 1u);

  sched.run([] { parallel_for(0, 200, 4, [](std::int64_t) {}); });
  const auto second = sched.aggregate_stats();
  EXPECT_GE(second[StatCounter::kFibersAllocated],
            first[StatCounter::kFibersAllocated] + 1);

  sched.reset_stats();
  const auto cleared = sched.aggregate_stats();
  for (unsigned i = 0; i < static_cast<unsigned>(StatCounter::kCount); ++i) {
    EXPECT_EQ(cleared.counters[i], 0u) << "counter " << i;
  }

  // The pool still works and records fresh stats after the reset.
  sched.run([] { parallel_for(0, 200, 4, [](std::int64_t) {}); });
  EXPECT_GE(sched.aggregate_stats()[StatCounter::kFibersAllocated], 1u);
}

TEST(SchedulerPool, ExceptionDoesNotPoisonThePool) {
  cilkm::Scheduler sched(4);
  for (int round = 0; round < 5; ++round) {
    EXPECT_THROW(sched.run([] { throw std::runtime_error("boom"); }),
                 std::runtime_error);
    // The very next run on the same pool is healthy.
    std::atomic<long> sum{0};
    sched.run([&] {
      parallel_for(0, 300, 8, [&](std::int64_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
      });
    });
    EXPECT_EQ(sum.load(), 299L * 300 / 2);
  }
}

TEST(SchedulerPool, ExceptionIsNotRedeliveredToTheNextRun) {
  cilkm::Scheduler sched(2);
  EXPECT_THROW(sched.run([] { throw std::logic_error("first"); }),
               std::logic_error);
  EXPECT_NO_THROW(sched.run([] {}));
}

TEST(SchedulerPool, SingleWorkerRunHasNoStealsOrAttempts) {
  // With one worker there are no victims: the fork fast path services every
  // spawn, so both the theft counter and the attempt counter stay at zero
  // (the pre-fix code could count own-deque promotions as steals).
  cilkm::Scheduler sched(1);
  sched.reset_stats();
  long total = 0;
  cilkm::reducer_opadd<long> sum;
  sched.run([&] {
    parallel_for(0, 2000, 16, [&](std::int64_t) { *sum += 1; });
  });
  total = sum.get_value();
  EXPECT_EQ(total, 2000);
  const auto stats = sched.aggregate_stats();
  EXPECT_EQ(stats[StatCounter::kSteals], 0u);
  EXPECT_EQ(stats[StatCounter::kStealAttempts], 0u);
}

TEST(SchedulerPool, GenuineTheftIsCountedWithItsAttempts) {
  // The left branch cannot finish until the right branch runs, so a second
  // worker MUST steal the continuation: total_steals() counts it, and every
  // steal implies at least one recorded attempt.
  std::atomic<bool> right_ran{false};
  cilkm::Scheduler sched(2);
  sched.reset_stats();
  sched.run([&] {
    cilkm::fork2join(
        [&] {
          while (!right_ran.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        },
        [&] { right_ran.store(true, std::memory_order_release); });
  });
  const auto stats = sched.aggregate_stats();
  EXPECT_GE(stats[StatCounter::kSteals], 1u);
  EXPECT_GE(stats[StatCounter::kStealAttempts], stats[StatCounter::kSteals]);
  EXPECT_EQ(sched.total_steals(), stats[StatCounter::kSteals]);
}

TEST(SchedulerPool, StealAccountingInvariantsHold) {
  // Every theft contributes exactly one latency sample, and every sample
  // lands in exactly one histogram bucket.
  cilkm::Scheduler sched(4);
  sched.reset_stats();
  for (int round = 0; round < 10; ++round) {
    std::atomic<long> sum{0};
    sched.run([&] {
      parallel_for(0, 4000, 4, [&](std::int64_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
      });
    });
    EXPECT_EQ(sum.load(), 3999L * 4000 / 2);
  }
  const auto stats = sched.aggregate_stats();
  std::uint64_t in_buckets = 0;
  for (const std::uint64_t bucket : stats.steal_lat_hist) in_buckets += bucket;
  EXPECT_EQ(in_buckets, stats.steal_lat_count[0]);
  EXPECT_EQ(stats.steal_lat_count[0], stats[StatCounter::kSteals]);
}

TEST(SchedulerPool, StealHalfForcedTheftAcquiresFrames) {
  // The forced-steal shape from GenuineTheftIsCountedWithItsAttempts: the
  // theft happens, and its frame joins through one hypermerge.
  std::atomic<bool> right_ran{false};
  cilkm::Scheduler sched(2);
  sched.reset_stats();
  sched.run([&] {
    cilkm::fork2join(
        [&] {
          while (!right_ran.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        },
        [&] { right_ran.store(true, std::memory_order_release); });
  });
  const auto stats = sched.aggregate_stats();
  EXPECT_GE(stats[StatCounter::kSteals], 1u);
  EXPECT_EQ(stats[StatCounter::kHypermerges], stats[StatCounter::kSteals]);
}

TEST(SchedulerPool, EachTheftJoinsWithExactlyOneHypermerge) {
  // A theft takes exactly one frame, and every stolen continuation joins
  // through exactly one merge_deposit (by whichever side arrives last), so
  // across a reducer-heavy run the two counters agree. A steal that also
  // hands the thief further frames to promote breaks the equality. The
  // loops stay inside one run so the other workers are awake and stealing
  // rather than still waking for each short run.
  constexpr int kReducers = 256;
  constexpr int kLoops = 64;
  constexpr std::int64_t kIters = 1 << 14;
  std::vector<cilkm::reducer_opadd<long>> sums(kReducers);
  cilkm::Scheduler sched(4);
  sched.reset_stats();
  sched.run([&] {
    for (int loop = 0; loop < kLoops; ++loop) {
      parallel_for(0, kIters, 4, [&](std::int64_t i) {
        *sums[static_cast<std::size_t>(i % kReducers)] += 1;
      });
    }
  });
  for (auto& sum : sums) {
    EXPECT_EQ(sum.get_value(), kLoops * kIters / kReducers);
  }
  const auto stats = sched.aggregate_stats();
  EXPECT_GT(stats[StatCounter::kSteals], 0u);
  EXPECT_EQ(stats[StatCounter::kHypermerges], stats[StatCounter::kSteals]);
}

TEST(SchedulerPool, ParkedWorkersWakeForNewWork) {
  // Phase 1 idles everyone long enough to park; phase 2 (same run) then
  // spawns real work, which must wake the parked workers via Deque::push and
  // still compute the right answer.
  cilkm::Scheduler sched(4);
  sched.reset_stats();
  std::atomic<long> sum{0};
  sched.run([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    parallel_for(0, 4000, 8, [&](std::int64_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(sum.load(), 3999L * 4000 / 2);
  const auto stats = sched.aggregate_stats();
  EXPECT_GE(stats[StatCounter::kParks], 1u);
}

TEST(SchedulerPool, ReducersCorrectAcrossReusedRuns) {
  // Reducer state (view stores, slot offsets) stays warm in the persistent
  // workers; values must still be exact run after run.
  cilkm::Scheduler sched(4);
  for (int round = 0; round < 10; ++round) {
    cilkm::reducer_opadd<long> sum;
    sched.run([&] {
      parallel_for(0, 1000, 4, [&](std::int64_t) { *sum += 1; });
    });
    EXPECT_EQ(sum.get_value(), 1000);
  }
}

TEST(SchedulerPool, ManySequentialRunsAreFast) {
  // 500 empty runs through the persistent pool: mostly a wake/quiesce
  // handshake each. This is a liveness test (no lost wake-up between runs),
  // not a timing assertion.
  cilkm::Scheduler sched(4);
  for (int i = 0; i < 500; ++i) sched.run([] {});
}

}  // namespace
