// ViewStore-layer unit tests: the FlatViewStore (dense-id ablation policy),
// the FlatIdAllocator, the ViewStoreSet engine moving all three stores'
// views through one deposit — the contract every policy implements — and
// the layout and accounting invariants of the view path: 32-byte reducers,
// 16-byte slots, line-isolated views, sampled miss timers.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "hypermap/hypermap.hpp"
#include "mem/internal_alloc.hpp"
#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/worker.hpp"
#include "tlmm/region.hpp"
#include "util/cache.hpp"
#include "views/flat_registry.hpp"
#include "views/view_store.hpp"

namespace {

using cilkm::StatCounter;
using cilkm::ViewOps;
using cilkm::WorkerStats;
using cilkm::rt::Scheduler;
using cilkm::rt::Worker;
using cilkm::views::FlatIdAllocator;
using cilkm::views::FlatViewStore;
using cilkm::views::ViewSetDeposit;

struct StrView {
  std::string text;
};

// A reducer as the view stores see it: a ReducerBase whose static table
// reduces by concatenation and collapses into `collapsed`.
struct FakeReducer : cilkm::ReducerBase {
  std::string collapsed;

  static constexpr ViewOps kOps{
      [](cilkm::ReducerBase*, void* l, void* r) {
        static_cast<StrView*>(l)->text += static_cast<StrView*>(r)->text;
        delete static_cast<StrView*>(r);
      },
      [](cilkm::ReducerBase* self, void* v) {
        static_cast<FakeReducer*>(self)->collapsed +=
            static_cast<StrView*>(v)->text;
        delete static_cast<StrView*>(v);
      }};

  FakeReducer() : ReducerBase{&kOps} {}
};

// ---------------------------------------------------------------------------
// FlatIdAllocator
// ---------------------------------------------------------------------------

TEST(FlatIdAllocator, IdsAreDenseAndRecycledLifo) {
  auto& alloc = FlatIdAllocator::instance();
  const std::size_t live_before = alloc.live();
  const std::uint32_t a = alloc.allocate();
  const std::uint32_t b = alloc.allocate();
  EXPECT_NE(a, b);
  EXPECT_EQ(alloc.live(), live_before + 2);
  alloc.free(b);
  const std::uint32_t c = alloc.allocate();
  EXPECT_EQ(c, b);  // LIFO reuse keeps the id space dense
  alloc.free(a);
  alloc.free(c);
  EXPECT_EQ(alloc.live(), live_before);
}

// ---------------------------------------------------------------------------
// FlatViewStore in isolation
// ---------------------------------------------------------------------------

class FlatStoreTest : public ::testing::Test {
 protected:
  WorkerStats stats;
  FlatViewStore store{&stats};
};

TEST_F(FlatStoreTest, InstallLookupExtract) {
  FakeReducer r;
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.lookup(5), nullptr);

  store.install(5, new StrView{"v"}, &r);
  ASSERT_NE(store.lookup(5), nullptr);
  EXPECT_EQ(static_cast<StrView*>(store.lookup(5))->text, "v");
  EXPECT_FALSE(store.empty());
  EXPECT_GE(store.capacity(), 6u);  // grew to cover the id

  void* out = store.extract(5);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(store.lookup(5), nullptr);
  EXPECT_TRUE(store.empty());
  delete static_cast<StrView*>(out);
}

TEST_F(FlatStoreTest, ExtractAbsentIdIsNull) {
  EXPECT_EQ(store.extract(0), nullptr);
  EXPECT_EQ(store.extract(1u << 20), nullptr);  // beyond capacity
}

TEST_F(FlatStoreTest, DepositMovesViewsAndEmptiesStore) {
  FakeReducer r;
  store.install(0, new StrView{"a"}, &r);
  store.install(7, new StrView{"b"}, &r);

  std::vector<cilkm::views::FlatDepositEntry> dep;
  store.deposit(&dep);
  EXPECT_TRUE(store.empty());
  ASSERT_EQ(dep.size(), 2u);

  store.install_deposit(&dep);
  EXPECT_TRUE(dep.empty());
  EXPECT_EQ(static_cast<StrView*>(store.lookup(0))->text, "a");
  EXPECT_EQ(static_cast<StrView*>(store.lookup(7))->text, "b");
  store.collapse_into_leftmosts();
  EXPECT_EQ(r.collapsed, "ab");
}

TEST_F(FlatStoreTest, MergePreservesOperandOrderBothDirections) {
  FakeReducer r;
  WorkerStats other_stats;
  FlatViewStore other{&other_stats};

  // Left merge: deposit is serially earlier.
  other.install(3, new StrView{"L"}, &r);
  std::vector<cilkm::views::FlatDepositEntry> dep;
  other.deposit(&dep);
  store.install(3, new StrView{"R"}, &r);
  store.merge(&dep, /*deposit_is_left=*/true);
  EXPECT_EQ(static_cast<StrView*>(store.lookup(3))->text, "LR");

  // Right merge: ambient is serially earlier.
  other.install(3, new StrView{"!"}, &r);
  other.deposit(&dep);
  store.merge(&dep, /*deposit_is_left=*/false);
  EXPECT_EQ(static_cast<StrView*>(store.lookup(3))->text, "LR!");

  store.collapse_into_leftmosts();
  EXPECT_EQ(r.collapsed, "LR!");
}

TEST_F(FlatStoreTest, MergeAdoptsViewsAbsentFromAmbient) {
  FakeReducer r;
  WorkerStats other_stats;
  FlatViewStore other{&other_stats};
  other.install(1, new StrView{"x"}, &r);
  other.install(2, new StrView{"y"}, &r);
  std::vector<cilkm::views::FlatDepositEntry> dep;
  other.deposit(&dep);

  store.install(1, new StrView{"q"}, &r);
  store.merge(&dep, /*deposit_is_left=*/true);
  EXPECT_EQ(static_cast<StrView*>(store.lookup(1))->text, "xq");
  EXPECT_EQ(static_cast<StrView*>(store.lookup(2))->text, "y");  // adopted
  store.collapse_into_leftmosts();
  EXPECT_TRUE(store.empty());
}

TEST_F(FlatStoreTest, ReinstallAfterExtractIsCleanDespiteStaleTouchedEntry) {
  // extract() leaves a stale id in the touched log (same convention as the
  // SPA page log); a reinstall plus deposit must not duplicate the view.
  FakeReducer r;
  store.install(4, new StrView{"a"}, &r);
  delete static_cast<StrView*>(store.extract(4));
  store.install(4, new StrView{"b"}, &r);

  std::vector<cilkm::views::FlatDepositEntry> dep;
  store.deposit(&dep);
  ASSERT_EQ(dep.size(), 1u);
  EXPECT_EQ(static_cast<StrView*>(dep[0].slot.view)->text, "b");
  store.install_deposit(&dep);
  store.collapse_into_leftmosts();
  EXPECT_EQ(r.collapsed, "b");
}

// ---------------------------------------------------------------------------
// ViewStoreSet: one deposit carries all three mechanisms at once
// ---------------------------------------------------------------------------

class ViewStoreSetTest : public ::testing::Test {
 protected:
  ViewStoreSetTest() : sched_(2) {}
  ~ViewStoreSetTest() override { cilkm::tlmm::set_current_region(nullptr); }

  Worker& w(unsigned i) { return sched_.worker(i); }

  Scheduler sched_;
};

TEST_F(ViewStoreSetTest, DepositCarriesAllThreeStores) {
  FakeReducer r_spa, r_hmap, r_flat;
  w(0).views().spa().install(cilkm::spa::slot_offset(0, 11),
                             new StrView{"s"}, &r_spa);
  w(0).views().hypermap().install(&r_hmap, new StrView{"h"});
  w(0).views().flat().install(9, new StrView{"f"}, &r_flat);
  EXPECT_FALSE(w(0).views().empty());

  ViewSetDeposit dep;
  w(0).views().deposit_ambient(&dep);
  EXPECT_TRUE(w(0).views().empty());
  EXPECT_EQ(dep.spa.size(), 1u);
  EXPECT_EQ(dep.hmap.size(), 1u);
  EXPECT_EQ(dep.flat.size(), 1u);

  w(1).views().install_deposit(&dep);
  EXPECT_TRUE(dep.empty());
  w(1).views().collapse_into_leftmosts();
  EXPECT_EQ(r_spa.collapsed, "s");
  EXPECT_EQ(r_hmap.collapsed, "h");
  EXPECT_EQ(r_flat.collapsed, "f");
}

TEST_F(ViewStoreSetTest, MergeLeftOrdersAllThreeStores) {
  FakeReducer r_spa, r_hmap, r_flat;
  const auto off = cilkm::spa::slot_offset(2, 20);

  w(0).views().spa().install(off, new StrView{"S1"}, &r_spa);
  w(0).views().hypermap().install(&r_hmap, new StrView{"H1"});
  w(0).views().flat().install(2, new StrView{"F1"}, &r_flat);
  ViewSetDeposit dep;
  w(0).views().deposit_ambient(&dep);

  w(1).views().spa().install(off, new StrView{"S2"}, &r_spa);
  w(1).views().hypermap().install(&r_hmap, new StrView{"H2"});
  w(1).views().flat().install(2, new StrView{"F2"}, &r_flat);
  w(1).views().merge_deposit_left(&dep);
  w(1).views().collapse_into_leftmosts();

  EXPECT_EQ(r_spa.collapsed, "S1S2");
  EXPECT_EQ(r_hmap.collapsed, "H1H2");
  EXPECT_EQ(r_flat.collapsed, "F1F2");
}

// ---------------------------------------------------------------------------
// Layout: 32-byte reducers, 16-byte slots and entries
// ---------------------------------------------------------------------------

static_assert(sizeof(cilkm::reducer_opadd<std::uint64_t>) <= 32);
static_assert(
    sizeof(cilkm::reducer_opadd<std::uint64_t, cilkm::hypermap_policy>) <= 32);
static_assert(
    sizeof(cilkm::reducer_opadd<std::uint64_t, cilkm::flat_policy>) <= 32);
static_assert(sizeof(cilkm::hypermap::Entry) == 16);
static_assert(sizeof(cilkm::spa::ViewSlot) == 16);
static_assert(cilkm::mem::view_block_bytes(1) == cilkm::kCacheLineSize);
static_assert(cilkm::mem::view_block_bytes(65) == 2 * cilkm::kCacheLineSize);

// ---------------------------------------------------------------------------
// Line isolation: no two live views share a cache line, on any worker
// ---------------------------------------------------------------------------

/// Every live probe view, filed by the cache lines its bytes cover.
class LineLedger {
 public:
  void reset() {
    std::lock_guard guard(mu_);
    counts_ = {};
    line_owner_.clear();
    creator_.clear();
  }

  void add(const void* view, std::size_t bytes, unsigned worker) {
    std::lock_guard guard(mu_);
    ++counts_.views;
    const auto addr = reinterpret_cast<std::uintptr_t>(view);
    if (addr % cilkm::kCacheLineSize != 0) ++counts_.misaligned;
    for (std::uintptr_t line = addr / cilkm::kCacheLineSize;
         line <= (addr + bytes - 1) / cilkm::kCacheLineSize; ++line) {
      if (!line_owner_.emplace(line, view).second) ++counts_.shared_lines;
    }
    creator_[view] = worker;
  }

  void remove(const void* view, std::size_t bytes, const Worker* current) {
    std::lock_guard guard(mu_);
    const auto addr = reinterpret_cast<std::uintptr_t>(view);
    for (std::uintptr_t line = addr / cilkm::kCacheLineSize;
         line <= (addr + bytes - 1) / cilkm::kCacheLineSize; ++line) {
      auto it = line_owner_.find(line);
      if (it != line_owner_.end() && it->second == view) line_owner_.erase(it);
    }
    auto it = creator_.find(view);
    if (it == creator_.end()) return;
    if (current != nullptr && current->id() != it->second) {
      ++counts_.cross_worker_frees;
    }
    creator_.erase(it);
  }

  struct Counts {
    std::uint64_t views = 0;
    std::uint64_t misaligned = 0;
    std::uint64_t shared_lines = 0;
    std::uint64_t cross_worker_frees = 0;
  };
  Counts counts() const {
    std::lock_guard guard(mu_);
    return counts_;
  }

 private:
  mutable std::mutex mu_;
  Counts counts_;
  std::unordered_map<std::uintptr_t, const void*> line_owner_;
  std::unordered_map<const void*, unsigned> creator_;
};

LineLedger& ledger() {
  static LineLedger instance;
  return instance;
}

/// A 24-byte view that files itself in the ledger when it is moved into
/// pooled storage inside a run (the leftmost view, built outside runs, is
/// not a pooled view and stays out).
struct LineProbe {
  std::uint64_t sum = 0;
  std::uint64_t pad[2] = {};
  bool tracked = false;

  LineProbe() = default;
  LineProbe(LineProbe&& other) noexcept : sum(other.sum) {
    if (Worker* w = Worker::current()) {
      tracked = true;
      ledger().add(this, sizeof(*this), w->id());
    }
  }
  LineProbe& operator=(LineProbe&& other) noexcept {
    sum = other.sum;
    return *this;
  }
  ~LineProbe() {
    if (tracked) ledger().remove(this, sizeof(*this), Worker::current());
  }
};

struct probe_sum {
  using value_type = LineProbe;
  LineProbe identity() const { return {}; }
  void reduce(LineProbe& left, LineProbe& right) const {
    left.sum += right.sum;
  }
};

template <typename Policy>
void touch_tree(cilkm::reducer<probe_sum, Policy>* reds, unsigned n,
                std::uint64_t lo, std::uint64_t hi) {
  if (hi - lo == 1) {
    for (unsigned i = 0; i < n; ++i) reds[(lo + i) % n].view().sum += lo;
    if (lo % 4 == 0) std::this_thread::yield();  // invite thieves
    return;
  }
  const std::uint64_t mid = lo + (hi - lo) / 2;
  cilkm::fork2join([&] { touch_tree(reds, n, lo, mid); },
                   [&] { touch_tree(reds, n, mid, hi); });
}

template <typename Policy>
void expect_line_isolated_views() {
  constexpr unsigned kReducers = 48;
  constexpr std::uint64_t kLeaves = 1024;
  constexpr std::uint64_t kExpected = kLeaves * (kLeaves - 1) / 2;  // Σ lo
  Scheduler sched(4);
  ledger().reset();
  // Views migrate in merges and die wherever the join lands; repeat until
  // some view has been freed by a worker other than its creator.
  for (int attempt = 0;
       attempt < 50 && ledger().counts().cross_worker_frees == 0; ++attempt) {
    auto reds =
        std::make_unique<cilkm::reducer<probe_sum, Policy>[]>(kReducers);
    sched.run([&] { touch_tree(reds.get(), kReducers, 0, kLeaves); });
    for (unsigned i = 0; i < kReducers; ++i) {
      ASSERT_EQ(reds[i].get_value().sum, kExpected) << "reducer " << i;
    }
  }
  const LineLedger::Counts counts = ledger().counts();
  EXPECT_GT(counts.views, 0u);
  EXPECT_GT(counts.cross_worker_frees, 0u);
  EXPECT_EQ(counts.misaligned, 0u);
  EXPECT_EQ(counts.shared_lines, 0u);
}

TEST(ViewLayout, LiveViewsNeverShareACacheLineAcrossWorkers) {
  expect_line_isolated_views<cilkm::mm_policy>();
  expect_line_isolated_views<cilkm::hypermap_policy>();
  expect_line_isolated_views<cilkm::flat_policy>();
}

// ---------------------------------------------------------------------------
// Miss accounting: exact counts, sampled timers
// ---------------------------------------------------------------------------

TEST(ViewMissSampling, CountsEveryMissAndTimesOneInStride) {
  using cilkm::views::kMissSampleStride;
  for (const std::uint32_t misses :
       {kMissSampleStride - 1, kMissSampleStride, 5 * kMissSampleStride + 3}) {
    SCOPED_TRACE(misses);
    Scheduler sched(1);  // a fresh worker: its sampling countdown is full
    auto reds = std::make_unique<cilkm::reducer_opadd<std::uint64_t>[]>(misses);
    sched.run([&] {
      for (std::uint32_t i = 0; i < misses; ++i) reds[i].view() += i;
    });
    const WorkerStats stats = sched.aggregate_stats();
    EXPECT_EQ(stats[StatCounter::kViewsCreated], misses);
    if (misses < kMissSampleStride) {
      // No miss was sampled, so none read the clock.
      EXPECT_EQ(stats[StatCounter::kViewCreateNs], 0u);
      EXPECT_EQ(stats[StatCounter::kViewInsertNs], 0u);
    } else {
      EXPECT_GT(stats[StatCounter::kViewCreateNs], 0u);
    }
    for (std::uint32_t i = 0; i < misses; ++i) {
      EXPECT_EQ(reds[i].get_value(), i);
    }
  }
}

}  // namespace
