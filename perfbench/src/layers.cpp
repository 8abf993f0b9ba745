#include "layers.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "mem/internal_alloc.hpp"
#include "pbfs/bag.hpp"
#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "runtime/worker.hpp"
#include "views/view_store.hpp"

namespace perfbench {

namespace {

using cilkm::rt::Scheduler;

constexpr double kQ = 0.1;  // the reported quantile of every timed loop
constexpr std::uint64_t kKey = 0x6c61796572ULL;

template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

double ns_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0);
}

// --- runtime ---------------------------------------------------------------

constexpr int kEmptyDepth = 20;  // 2^20 leaves, 2^20 - 1 spawns
constexpr double kEmptySpawns = static_cast<double>((1u << kEmptyDepth) - 1);

void empty_tree(int depth) {
  if (depth == 0) return;
  cilkm::fork2join([&] { empty_tree(depth - 1); },
                   [&] { empty_tree(depth - 1); });
}

void spawn_costs(Scheduler& p1, Scheduler& pn, MetricList* out) {
  std::vector<double> elision, fast;
  for (int r = 0; r < 7; ++r) {
    const std::uint64_t t0 = now_ns();
    empty_tree(kEmptyDepth);
    elision.push_back(ns_between(t0, now_ns()));
    p1.run([&] {
      const std::uint64_t t1 = now_ns();
      empty_tree(kEmptyDepth);
      fast.push_back(ns_between(t1, now_ns()));
    });
  }
  std::vector<double> dispatch;
  for (int r = 0; r < 300; ++r) {
    const std::uint64_t t0 = now_ns();
    pn.run([] {});
    dispatch.push_back(ns_between(t0, now_ns()));
  }
  out->emplace_back("runtime.spawn_ns.elision",
                    quantile(elision, kQ) / kEmptySpawns);
  out->emplace_back("runtime.spawn_ns.p1", quantile(fast, kQ) / kEmptySpawns);
  out->emplace_back("runtime.run_dispatch_us.pN",
                    quantile(dispatch, kQ) / 1e3);
}

// --- views -----------------------------------------------------------------

/// Per-update cost of a reducer lookup hit at P=1 with `bins` live
/// reducers: (reducer loop − plain array loop) ÷ updates, both loops
/// running inside one Scheduler(1) run so only the lookup differs.
template <typename Policy>
double lookup_ns(Scheduler& p1, unsigned bins) {
  constexpr std::int64_t kUpdates = std::int64_t{1} << 20;
  const std::uint64_t mask = bins - 1;
  auto reds =
      std::make_unique<cilkm::reducer_opadd<std::uint64_t, Policy>[]>(bins);
  std::vector<std::uint64_t> plain(bins, 0);
  std::vector<double> red_t, plain_t;
  p1.run([&] {
    for (unsigned b = 0; b < bins; ++b) reds[b].view() += 0;  // views exist
    for (int r = 0; r < 9; ++r) {
      const std::uint64_t t0 = now_ns();
      for (std::int64_t i = 0; i < kUpdates; ++i) {
        const auto u = static_cast<std::uint64_t>(i);
        plain[mix(kKey, u) & mask] += u;
      }
      keep(plain.data());
      const std::uint64_t t1 = now_ns();
      for (std::int64_t i = 0; i < kUpdates; ++i) {
        const auto u = static_cast<std::uint64_t>(i);
        reds[mix(kKey, u) & mask].view() += u;
      }
      const std::uint64_t t2 = now_ns();
      plain_t.push_back(ns_between(t0, t1));
      red_t.push_back(ns_between(t1, t2));
    }
  });
  return (quantile(red_t, kQ) - quantile(plain_t, kQ)) /
         static_cast<double>(kUpdates);
}

constexpr unsigned kViewSet = 1024;

/// First touch of fresh mm reducers inside a run, per view.
double create_ns(Scheduler& p1) {
  std::vector<double> t;
  for (int r = 0; r < 15; ++r) {
    auto reds = std::make_unique<cilkm::reducer_opadd<std::uint64_t>[]>(kViewSet);
    p1.run([&] {
      const std::uint64_t t0 = now_ns();
      for (unsigned b = 0; b < kViewSet; ++b) reds[b].view() += 1;
      t.push_back(ns_between(t0, now_ns()));
    });
  }
  return quantile(t, kQ) / kViewSet;
}

/// ViewStoreSet::deposit_ambient of a 1024-view mm store, per view.
double transfer_ns(Scheduler& p1) {
  auto reds = std::make_unique<cilkm::reducer_opadd<std::uint64_t>[]>(kViewSet);
  std::vector<double> t;
  p1.run([&] {
    for (unsigned b = 0; b < kViewSet; ++b) reds[b].view() += 1;
    cilkm::views::ViewStoreSet& store = cilkm::rt::Worker::current()->views();
    for (int r = 0; r < 31; ++r) {
      cilkm::views::ViewSetDeposit deposit;
      const std::uint64_t t0 = now_ns();
      store.deposit_ambient(&deposit);
      t.push_back(ns_between(t0, now_ns()));
      store.install_deposit(&deposit);
    }
  });
  return quantile(t, kQ) / kViewSet;
}

/// ViewStoreSet::merge_deposit_left with 1024 views on each side, per view.
template <typename Policy>
double merge_ns(Scheduler& p1) {
  auto reds =
      std::make_unique<cilkm::reducer_opadd<std::uint64_t, Policy>[]>(kViewSet);
  std::vector<double> t;
  p1.run([&] {
    cilkm::views::ViewStoreSet& store = cilkm::rt::Worker::current()->views();
    for (int r = 0; r < 31; ++r) {
      for (unsigned b = 0; b < kViewSet; ++b) reds[b].view() += 1;
      cilkm::views::ViewSetDeposit deposit;
      store.deposit_ambient(&deposit);
      for (unsigned b = 0; b < kViewSet; ++b) reds[b].view() += 1;
      const std::uint64_t t0 = now_ns();
      store.merge_deposit_left(&deposit);
      t.push_back(ns_between(t0, now_ns()));
    }
  });
  return quantile(t, kQ) / kViewSet;
}

// --- mem -------------------------------------------------------------------

/// Warm-magazine allocate + deallocate of one add-reducer view.
double alloc_free_ns() {
  constexpr int kPairs = 1 << 20;
  constexpr std::size_t kBytes = sizeof(std::uint64_t);
  auto& alloc = cilkm::mem::InternalAlloc::instance();
  std::vector<double> t;
  for (int r = 0; r < 7; ++r) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kPairs; ++i) {
      void* p = alloc.allocate(kBytes, cilkm::mem::AllocTag::kViews);
      keep(p);
      alloc.deallocate(p, kBytes, cilkm::mem::AllocTag::kViews);
    }
    t.push_back(ns_between(t0, now_ns()));
  }
  return quantile(t, kQ) / kPairs;
}

// --- pbfs ------------------------------------------------------------------

using VertexBag = cilkm::pbfs::Bag<std::uint32_t>;

double bag_insert_ns() {
  constexpr std::uint32_t kElems = 1u << 20;
  std::vector<double> t;
  for (int r = 0; r < 5; ++r) {
    VertexBag bag;
    const std::uint64_t t0 = now_ns();
    for (std::uint32_t i = 0; i < kElems; ++i) bag.insert(i);
    t.push_back(ns_between(t0, now_ns()));
  }
  return quantile(t, kQ) / kElems;
}

/// Bag::merge of two bags of 2^16 − 1 elements: every rank is occupied on
/// both sides, so the full adder carries at every rank.
double bag_merge_ns() {
  constexpr std::uint32_t kElems = (1u << 16) - 1;
  constexpr int kPairs = 4;
  std::vector<double> t;
  for (int r = 0; r < 9; ++r) {
    std::vector<VertexBag> left(kPairs), right(kPairs);
    for (int p = 0; p < kPairs; ++p) {
      for (std::uint32_t i = 0; i < kElems; ++i) {
        left[p].insert(i);
        right[p].insert(i);
      }
    }
    const std::uint64_t t0 = now_ns();
    for (int p = 0; p < kPairs; ++p) left[p].merge(std::move(right[p]));
    t.push_back(ns_between(t0, now_ns()));
  }
  return quantile(t, kQ) / kPairs;
}

}  // namespace

MetricList measure_layers(Scheduler& p1, Scheduler& pn) {
  MetricList out;
  spawn_costs(p1, pn, &out);
  out.emplace_back("views.lookup_ns.mm", lookup_ns<cilkm::mm_policy>(p1, 8));
  out.emplace_back("views.lookup_ns.hypermap",
                   lookup_ns<cilkm::hypermap_policy>(p1, 8));
  out.emplace_back("views.lookup_ns.flat", lookup_ns<cilkm::flat_policy>(p1, 8));
  out.emplace_back("views.lookup_ns.mm.k1024",
                   lookup_ns<cilkm::mm_policy>(p1, kViewSet));
  out.emplace_back("views.lookup_ns.hypermap.k1024",
                   lookup_ns<cilkm::hypermap_policy>(p1, kViewSet));
  out.emplace_back("views.create_ns.mm", create_ns(p1));
  out.emplace_back("views.transfer_ns.mm", transfer_ns(p1));
  out.emplace_back("views.merge_ns.mm", merge_ns<cilkm::mm_policy>(p1));
  out.emplace_back("views.merge_ns.hypermap",
                   merge_ns<cilkm::hypermap_policy>(p1));
  out.emplace_back("mem.alloc_free_ns.views", alloc_free_ns());
  out.emplace_back("pbfs.bag_insert_ns", bag_insert_ns());
  out.emplace_back("pbfs.bag_merge_ns", bag_merge_ns());
  return out;
}

}  // namespace perfbench
