// Scheduler-tracing tests: the recorded event stream must obey the join
// protocol's invariants (every park is resumed exactly once; deposits
// pair with merges; a root_done terminates every run).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <sstream>
#include <thread>

#include "runtime/api.hpp"
#include "runtime/trace.hpp"
#include "test_support.hpp"

namespace {

using cilkm::rt::TraceEvent;
using cilkm::rt::Tracer;

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().reset();
    Tracer::instance().enable();
  }
  void TearDown() override {
    Tracer::instance().disable();
    Tracer::instance().reset();
  }
};

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  Tracer::instance().disable();
  cilkm::run(2, [] {});
  EXPECT_TRUE(Tracer::instance().snapshot().empty());
}

TEST_F(TraceTest, RootRunProducesLaunchAndRootDone) {
  cilkm::run(1, [] {});
  const auto records = Tracer::instance().snapshot();
  ASSERT_FALSE(records.empty());
  int launches = 0, root_dones = 0;
  for (const auto& rec : records) {
    launches += rec.event == TraceEvent::kLaunch;
    root_dones += rec.event == TraceEvent::kRootDone;
  }
  EXPECT_EQ(launches, 1);  // only the root fiber on a steal-free run
  EXPECT_EQ(root_dones, 1);
}

TEST_F(TraceTest, ForcedStealProducesProtocolEvents) {
  std::atomic<bool> right_ran{false};
  cilkm::run(2, [&] {
    cilkm::fork2join(
        [&] {
          while (!right_ran.load()) std::this_thread::yield();
        },
        [&] { right_ran.store(true); });
  });
  std::map<TraceEvent, int> counts;
  for (const auto& rec : Tracer::instance().snapshot()) ++counts[rec.event];
  EXPECT_GE(counts[TraceEvent::kSteal], 1);
  EXPECT_GE(counts[TraceEvent::kLaunch], 2);  // root + stolen branch
  // The victim spins until the thief runs, so the victim parks and the
  // thief performs a joining steal (or the victim resumes itself in the
  // double-deposit race) — either way, parks match resumes.
  const int resumes = counts[TraceEvent::kResumeByThief] +
                      counts[TraceEvent::kResumeSelf];
  EXPECT_EQ(counts[TraceEvent::kPark], resumes);
}

TEST_F(TraceTest, ParksAndResumesBalanceUnderLoad) {
  cilkm::run(8, [&] {
    cilkm::parallel_for(0, 5000, 16, [&](std::int64_t i) {
      if (i % 64 == 0) std::this_thread::yield();
    });
  });
  std::map<TraceEvent, int> counts;
  for (const auto& rec : Tracer::instance().snapshot()) ++counts[rec.event];
  const int resumes = counts[TraceEvent::kResumeByThief] +
                      counts[TraceEvent::kResumeSelf];
  EXPECT_EQ(counts[TraceEvent::kPark], resumes);
  EXPECT_EQ(counts[TraceEvent::kRootDone], 1);
}

TEST_F(TraceTest, CsvDumpIsWellFormed) {
  cilkm::run(2, [] {
    cilkm::parallel_for(0, 100, 4, [](std::int64_t) {});
  });
  std::ostringstream out;
  Tracer::instance().dump_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("time_ns,worker,event,frame"), std::string::npos);
  EXPECT_NE(csv.find("root_done"), std::string::npos);
  // Every line has 3 commas.
  std::istringstream lines(csv);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 3) << line;
  }
}

TEST_F(TraceTest, SnapshotIsTimeOrdered) {
  cilkm::run(4, [] {
    cilkm::parallel_for(0, 2000, 8, [](std::int64_t i) {
      if (i % 32 == 0) std::this_thread::yield();
    });
  });
  const auto records = Tracer::instance().snapshot();
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].time_ns, records[i].time_ns);
  }
}

TEST(TraceEventNames, AllNamed) {
  for (int e = 0; e <= static_cast<int>(TraceEvent::kRootDone); ++e) {
    EXPECT_NE(cilkm::rt::to_string(static_cast<TraceEvent>(e)), "?");
  }
}

TEST_F(TraceTest, EventGrammarHoldsUnderLoad) {
  // Under both join-path inputs: degraded (fiber-less) frames record the
  // same launch and join events as fibered ones.
  for (const auto& cfg : cilkm::test::join_path_inputs()) {
    SCOPED_TRACE(cfg ? "fiber-acquire faults p=0.5" : "chaos off");
    Tracer::instance().reset();
    {
      cilkm::test::ScopedChaos chaos(cfg);
      cilkm::run(4, [&] {
        cilkm::parallel_for(0, 4000, 8, [&](std::int64_t i) {
          if (i % 32 == 0) std::this_thread::yield();
        });
      });
    }
    const auto records = Tracer::instance().snapshot();
    ASSERT_FALSE(records.empty());

    // Every steal is immediately followed, on the same worker, by the
    // launch of the stolen frame — nothing is recorded in between.
    std::map<unsigned, TraceEvent> last_event;
    std::map<unsigned, std::uint64_t> last_time;
    std::map<const void*, int> park_balance;
    for (const auto& rec : records) {
      const auto it = last_event.find(rec.worker);
      if (it != last_event.end() && it->second == TraceEvent::kSteal) {
        EXPECT_EQ(rec.event, TraceEvent::kLaunch)
            << "worker " << static_cast<unsigned>(rec.worker) << ": "
            << cilkm::rt::to_string(it->second) << " followed by "
            << cilkm::rt::to_string(rec.event);
      }
      // Per-worker timestamps never go backwards (each ring is written by
      // one thread reading a monotonic clock).
      const auto lt = last_time.find(rec.worker);
      if (lt != last_time.end()) EXPECT_GE(rec.time_ns, lt->second);
      last_event[rec.worker] = rec.event;
      last_time[rec.worker] = rec.time_ns;

      if (rec.event == TraceEvent::kPark) ++park_balance[rec.frame];
      if (rec.event == TraceEvent::kResumeByThief ||
          rec.event == TraceEvent::kResumeSelf) {
        --park_balance[rec.frame];
      }
    }
    // kPark pairs with exactly one resume per frame (parks land on the
    // victim's worker, resumes on whoever arrived last — balance is global
    // per frame, not per worker).
    for (const auto& [frame, balance] : park_balance) {
      EXPECT_EQ(balance, 0) << "frame " << frame;
    }
  }
}

TEST_F(TraceTest, EveryLaunchAndResumeTicksProgress) {
  // The watchdog's progress tick counts every launch and every resumed
  // continuation, by either side of the join. Force joining steals: `a`
  // waits until the thief runs `b`, and `b` outlasts the victim's park, so
  // the thief usually arrives last and resumes the continuation itself.
  cilkm::Scheduler sched(2);
  std::map<TraceEvent, std::uint64_t> counts;
  for (int round = 0; round < 50 && counts[TraceEvent::kResumeByThief] == 0;
       ++round) {
    std::atomic<bool> b_started{false};
    sched.run([&] {
      cilkm::fork2join(
          [&] {
            while (!b_started.load()) std::this_thread::yield();
          },
          [&] {
            b_started.store(true);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          });
    });
    counts.clear();
    for (const auto& rec : Tracer::instance().snapshot()) ++counts[rec.event];
  }
  ASSERT_GT(counts[TraceEvent::kResumeByThief], 0u) << "no joining steal";
  // A handful of events per round: no ring wrapped.
  ASSERT_LT(Tracer::instance().snapshot().size(), Tracer::kRingCapacity);
  std::uint64_t progress = 0;
  for (unsigned i = 0; i < sched.num_workers(); ++i) {
    progress += sched.worker(i).progress();
  }
  EXPECT_EQ(progress, counts[TraceEvent::kLaunch] +
                          counts[TraceEvent::kResumeSelf] +
                          counts[TraceEvent::kResumeByThief]);
}

TEST_F(TraceTest, RingOverflowKeepsNewestInOrder) {
  // Regression: on a wrapped ring, snapshot() must return exactly the last
  // kRingCapacity records, oldest retained entry first — not a stream that
  // starts mid-ring at index 0 of the buffer.
  constexpr std::uint64_t kExtra = 100;
  auto& tracer = Tracer::instance();
  for (std::uint64_t i = 0; i < Tracer::kRingCapacity + kExtra; ++i) {
    tracer.record(0, TraceEvent::kMerge,
                  reinterpret_cast<const void*>(static_cast<std::uintptr_t>(i)));
  }
  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), Tracer::kRingCapacity);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].frame,
              reinterpret_cast<const void*>(
                  static_cast<std::uintptr_t>(kExtra + i)))
        << "at snapshot index " << i;
  }
}

TEST_F(TraceTest, EventsBeyondMaxWorkersAreCountedNotSilentlyDropped) {
  auto& tracer = Tracer::instance();
  EXPECT_EQ(tracer.dropped(), 0u);
  tracer.record(Tracer::kMaxWorkers, TraceEvent::kSteal, nullptr);
  tracer.record(Tracer::kMaxWorkers + 7, TraceEvent::kPark, nullptr);
  EXPECT_EQ(tracer.dropped(), 2u);
  EXPECT_TRUE(tracer.snapshot().empty());  // nothing retained for them
  tracer.record(0, TraceEvent::kMerge, nullptr);  // in-range still records
  EXPECT_EQ(tracer.snapshot().size(), 1u);
  EXPECT_EQ(tracer.dropped(), 2u);
  tracer.reset();
  EXPECT_EQ(tracer.dropped(), 0u);
  // Disabled tracers count nothing.
  tracer.disable();
  tracer.record(Tracer::kMaxWorkers, TraceEvent::kSteal, nullptr);
  EXPECT_EQ(tracer.dropped(), 0u);
}

}  // namespace
