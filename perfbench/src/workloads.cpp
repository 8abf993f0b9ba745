#include "workloads.hpp"

#include "common.hpp"
#include "pbfs/graph.hpp"
#include "pbfs/pbfs.hpp"
#include "reducers/reducers.hpp"
#include "runtime/api.hpp"

namespace perfbench {

namespace {

using cilkm::rt::Scheduler;
using AddReducer = cilkm::reducer_opadd<std::uint64_t>;

std::uint64_t fold(std::uint64_t h, std::uint64_t v) noexcept {
  return mix(h, v);
}

// ---------------------------------------------------------------------------
// lookup / reduce: `updates` adds into `bins` mm add-reducers. The bin of
// update i is mix(key, i) & (bins - 1) and the value added is i. The plain
// program is the same loop into an array; the cilkm program splits the
// range with fork2join down to `grain` updates per leaf, so it makes about
// updates / grain spawns and one reducer lookup per update.
// ---------------------------------------------------------------------------
class HistogramWorkload final : public Workload {
 public:
  HistogramWorkload(const char* name, unsigned bins, std::int64_t updates,
                    std::int64_t grain)
      : name_(name), mask_(bins - 1), updates_(updates), grain_(grain) {}

  const char* name() const override { return name_; }
  double items_per_rep() const override {
    return static_cast<double>(updates_);
  }

  void setup(std::uint64_t seed) override {
    key_ = mix(seed, 0x6c6f6f6b7570ULL);
    ref_ = plain_sums();
  }

  std::uint64_t digest() const override {
    std::uint64_t h = key_;
    for (std::uint64_t s : ref_) h = fold(h, s);
    return h;
  }

  RepResult plain_rep() override {
    const std::uint64_t t0 = now_ns();
    const std::vector<std::uint64_t> sums = plain_sums();
    const std::uint64_t t1 = now_ns();
    return {static_cast<double>(t1 - t0) * 1e-9, sums == ref_};
  }

  RepResult pool_rep(Scheduler& sched, Tracer* tracer) override {
    std::vector<std::uint64_t> got(ref_.size());
    const std::uint64_t t0 = now_ns();
    auto reds = std::make_unique<AddReducer[]>(ref_.size());
    {
      MainSpan rep(tracer, SpanKind::kRep);
      sched.run([&] {
        if (tracer != nullptr) {
          split<true>(reds.get(), 0, updates_, tracer);
        } else {
          split<false>(reds.get(), 0, updates_, nullptr);
        }
      });
    }
    {
      MainSpan collapse(tracer, SpanKind::kCollapse);
      for (std::size_t b = 0; b < got.size(); ++b) got[b] = reds[b].get_value();
      reds.reset();
    }
    const std::uint64_t t1 = now_ns();
    MainSpan verify(tracer, SpanKind::kVerify);
    return {static_cast<double>(t1 - t0) * 1e-9, got == ref_};
  }

  void corrupt_reference() override { ref_[0] += 1; }

 private:
  std::vector<std::uint64_t> plain_sums() const {
    std::vector<std::uint64_t> sums(mask_ + 1, 0);
    for (std::int64_t i = 0; i < updates_; ++i) {
      const auto u = static_cast<std::uint64_t>(i);
      sums[mix(key_, u) & mask_] += u;
    }
    return sums;
  }

  void leaf(AddReducer* reds, std::int64_t lo, std::int64_t hi) const {
    for (std::int64_t i = lo; i < hi; ++i) {
      const auto u = static_cast<std::uint64_t>(i);
      reds[mix(key_, u) & mask_].view() += u;
    }
  }

  template <bool kTraced>
  void split(AddReducer* reds, std::int64_t lo, std::int64_t hi,
             Tracer* tracer) const {
    if (hi - lo <= grain_) {
      if constexpr (kTraced) {
        LeafSpan span(tracer);
        leaf(reds, lo, hi);
      } else {
        leaf(reds, lo, hi);
      }
      return;
    }
    const std::int64_t mid = lo + (hi - lo) / 2;
    cilkm::fork2join([&] { split<kTraced>(reds, lo, mid, tracer); },
                     [&] { split<kTraced>(reds, mid, hi, tracer); });
  }

  const char* name_;
  std::uint64_t mask_;
  std::int64_t updates_;
  std::int64_t grain_;
  std::uint64_t key_ = 0;
  std::vector<std::uint64_t> ref_;
};

// ---------------------------------------------------------------------------
// spawn: a fib(27)-shaped binary fork2join tree (317810 spawns). Leaf `id`
// (the path from the root, 1 bit per level) runs mix(key, id) & 31 steps of
// an LCG and adds (1, result) to one tally reducer. The plain program is the
// same recursion with direct calls.
// ---------------------------------------------------------------------------
struct LeafTally {
  std::uint64_t leaves = 0;
  std::uint64_t sum = 0;
  bool operator==(const LeafTally&) const = default;
};

struct tally_monoid {
  using value_type = LeafTally;
  LeafTally identity() const { return {}; }
  void reduce(LeafTally& left, LeafTally& right) const {
    left.leaves += right.leaves;
    left.sum += right.sum;
  }
};

class SpawnWorkload final : public Workload {
 public:
  static constexpr int kDepth = 27;
  /// Traced reps record one leaf span per subtree of this fib order (and
  /// smaller ones whose parent is above it): a few hundred spans per rep.
  static constexpr int kSpanCutoff = 12;

  const char* name() const override { return "spawn"; }
  double items_per_rep() const override {
    return static_cast<double>(ref_.leaves - 1);  // internal nodes = spawns
  }

  void setup(std::uint64_t seed) override {
    key_ = mix(seed, 0x737061776eULL);
    ref_ = {};
    plain_tree(kDepth, 1, ref_);
  }

  std::uint64_t digest() const override {
    return fold(fold(key_, ref_.leaves), ref_.sum);
  }

  RepResult plain_rep() override {
    LeafTally tally;
    const std::uint64_t t0 = now_ns();
    plain_tree(kDepth, 1, tally);
    const std::uint64_t t1 = now_ns();
    return {static_cast<double>(t1 - t0) * 1e-9, tally == ref_};
  }

  RepResult pool_rep(Scheduler& sched, Tracer* tracer) override {
    LeafTally got;
    const std::uint64_t t0 = now_ns();
    {
      cilkm::reducer<tally_monoid> tally;
      {
        MainSpan rep(tracer, SpanKind::kRep);
        sched.run([&] {
          if (tracer != nullptr) {
            tree<true>(kDepth, 1, tally, tracer);
          } else {
            tree<false>(kDepth, 1, tally, nullptr);
          }
        });
      }
      MainSpan collapse(tracer, SpanKind::kCollapse);
      got = tally.get_value();
    }
    const std::uint64_t t1 = now_ns();
    MainSpan verify(tracer, SpanKind::kVerify);
    return {static_cast<double>(t1 - t0) * 1e-9, got == ref_};
  }

  void corrupt_reference() override { ref_.sum += 1; }

 private:
  std::uint64_t payload(std::uint64_t id) const noexcept {
    const std::uint64_t steps = mix(key_, id) & 31;
    std::uint64_t x = id;
    for (std::uint64_t k = 0; k < steps; ++k) {
      x = x * 0x5851f42d4c957f2dULL + 0x14057b7ef767814fULL;
    }
    return x;
  }

  void plain_tree(int n, std::uint64_t id, LeafTally& tally) const {
    if (n < 2) {
      ++tally.leaves;
      tally.sum += payload(id);
      return;
    }
    plain_tree(n - 1, 2 * id, tally);
    plain_tree(n - 2, 2 * id + 1, tally);
  }

  template <bool kTraced>
  void tree(int n, std::uint64_t id, cilkm::reducer<tally_monoid>& tally,
            Tracer* tracer) const {
    if constexpr (kTraced) {
      if (n <= kSpanCutoff) {
        LeafSpan span(tracer);
        tree<false>(n, id, tally, nullptr);
        return;
      }
    }
    if (n < 2) {
      LeafTally& view = tally.view();
      ++view.leaves;
      view.sum += payload(id);
      return;
    }
    cilkm::fork2join([&] { tree<kTraced>(n - 1, 2 * id, tally, tracer); },
                     [&] { tree<kTraced>(n - 2, 2 * id + 1, tally, tracer); });
  }

  std::uint64_t key_ = 0;
  LeafTally ref_;
};

// ---------------------------------------------------------------------------
// pbfs: pbfs::pbfs<mm_policy> from vertex 0 of a seeded RMAT graph (scale
// 18, 8 edges per vertex before symmetrisation, a = .45, b = c = .22). The
// plain program is pbfs::serial_bfs. Leaf spans are not recorded: pbfs::pbfs
// offers no per-chunk hook to the caller.
// ---------------------------------------------------------------------------
class PbfsWorkload final : public Workload {
 public:
  static constexpr unsigned kScale = 18;

  const char* name() const override { return "pbfs"; }
  double items_per_rep() const override {
    return static_cast<double>(graph_.num_edges());
  }

  void setup(std::uint64_t seed) override {
    graph_ = cilkm::pbfs::rmat(kScale, std::uint64_t{8} << kScale, 0.45, 0.22,
                               0.22, mix(seed, 0x70626673ULL));
    ref_ = cilkm::pbfs::serial_bfs(graph_, 0).dist;
  }

  std::uint64_t digest() const override {
    std::uint64_t h = graph_.num_edges();
    for (cilkm::pbfs::Vertex d : ref_) h = fold(h, d);
    return h;
  }

  RepResult plain_rep() override {
    const std::uint64_t t0 = now_ns();
    const cilkm::pbfs::BfsResult r = cilkm::pbfs::serial_bfs(graph_, 0);
    const std::uint64_t t1 = now_ns();
    return {static_cast<double>(t1 - t0) * 1e-9, r.dist == ref_};
  }

  RepResult pool_rep(Scheduler& sched, Tracer* tracer) override {
    cilkm::pbfs::BfsResult r;
    const std::uint64_t t0 = now_ns();
    {
      MainSpan rep(tracer, SpanKind::kRep);
      sched.run([&] { r = cilkm::pbfs::pbfs<cilkm::mm_policy>(graph_, 0); });
    }
    const std::uint64_t t1 = now_ns();
    lookups_ = static_cast<double>(r.reducer_lookups);
    layers_ = static_cast<double>(r.num_layers);
    MainSpan verify(tracer, SpanKind::kVerify);
    return {static_cast<double>(t1 - t0) * 1e-9, r.dist == ref_};
  }

  void corrupt_reference() override { ref_[0] += 1; }

  double bfs_lookups() const override { return lookups_; }
  double bfs_layers() const override { return layers_; }

 private:
  cilkm::pbfs::Graph graph_;
  std::vector<cilkm::pbfs::Vertex> ref_;
  double lookups_ = 0;
  double layers_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"lookup", "spawn", "reduce",
                                                 "pbfs"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  // Sizes: see BENCHMARK.json; each rep runs a few ms to ~100 ms.
  if (name == "lookup") {
    return std::make_unique<HistogramWorkload>("lookup", 8, std::int64_t{1} << 23,
                                               std::int64_t{1} << 13);
  }
  if (name == "reduce") {
    return std::make_unique<HistogramWorkload>("reduce", 1024,
                                               std::int64_t{1} << 22, 256);
  }
  if (name == "spawn") return std::make_unique<SpawnWorkload>();
  if (name == "pbfs") return std::make_unique<PbfsWorkload>();
  return nullptr;
}

}  // namespace perfbench
