// The ViewStore layer: the explicit view-lookup / view-transferal contract
// that the paper's two reducer mechanisms (and any future one) implement.
//
// The paper's central claim is that the memory-mapped (TLMM/SPA) scheme and
// the Cilk Plus hypermap are interchangeable implementations of one
// contract:
//
//   lookup   find the executing worker's local view of a reducer
//   install  bind a freshly created identity view (lookup-miss path) to
//            its owning reducer — every slot is a (view, reducer) pair
//   extract  unbind and return a view (reducer destruction)
//   deposit  move ALL local views into a frame's deposit placeholder
//            ("view transferal", paper Section 7)
//   install_deposit
//            adopt a whole deposit into an empty store
//   merge    hypermerge a deposit into the ambient views, preserving the
//            serial operand order of every ⊗ (deposit-left = deposit is
//            serially earlier; deposit-right = ambient is earlier)
//   collapse fold every remaining view into its reducer's leftmost view
//            (quiescence)
//
// Three stores implement the contract, selected per reducer by its Policy:
//
//   SpaViewStore       mm_policy        the paper's contribution — SPA maps
//                                       in an emulated-TLMM region
//   HyperMapViewStore  hypermap_policy  the Cilk Plus baseline hash table
//   FlatViewStore      flat_policy      ablation: a dense reducer-id-indexed
//                                       array (no hashing, no mmap
//                                       emulation) — the "what if ids were
//                                       perfect" upper bound
//
// A worker owns one ViewStoreSet holding all three, so every program can mix
// policies and the benchmarks compare them inside a single binary. The
// scheduling code (Worker) only ever talks to ViewStoreSet; it no longer
// knows how views are kept.
#pragma once

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/view_ops.hpp"
#include "hypermap/hypermap.hpp"
#include "mem/internal_alloc.hpp"
#include "spa/page_pool.hpp"
#include "spa/slot_alloc.hpp"
#include "spa/spa_map.hpp"
#include "tlmm/region.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"
#include "util/timing.hpp"

namespace cilkm::views {

/// The lookup-miss path reads the clock on one miss in this many per
/// worker and charges that sample this many times over (paper Fig. 8's
/// create and insert columns). A clock read costs more than the view it
/// would time, so timing every miss would mostly measure the clock. The
/// stride is prime, so it is coprime to the view magazine's batch. A
/// stride sharing a factor with the batch would keep landing on the same
/// positions in the refill cycle (with both at 64, only on the misses that
/// refill) and overstate the mean several times over.
inline constexpr std::uint32_t kMissSampleStride = 61;
static_assert(std::gcd(std::size_t{kMissSampleStride},
                       mem::InternalAlloc::batch(mem::AllocTag::kViews)) == 1,
              "miss sampling must not lock onto the view refill cycle");

/// One transferred flat-store view: the reducer's dense id plus the
/// (view, reducer) pair, the flat analogue of a public SPA-map entry.
struct FlatDepositEntry {
  std::uint32_t id;
  spa::ViewSlot slot;
};

/// A deposited set of local views, one component per store. All three
/// mechanisms coexist in one program, which is how the benchmarks compare
/// them in a single binary.
struct ViewSetDeposit {
  std::vector<spa::SpaDepositEntry> spa;
  hypermap::HyperMap hmap;
  std::vector<FlatDepositEntry> flat;

  bool empty() const noexcept {
    return spa.empty() && hmap.empty() && flat.empty();
  }
};

// ---------------------------------------------------------------------------
// SpaViewStore — the memory-mapped mechanism (mm_policy)
// ---------------------------------------------------------------------------

/// The TLMM/SPA state that used to be inlined in Worker: the emulated
/// private region, the touched-page log, and the Hoard-style slot cache.
/// Public pages come from the tagged internal allocator via PagePool (the
/// calling thread's magazine is the per-worker cache). A reducer's key is
/// its tlmm_addr (a byte offset valid in every worker's region).
class SpaViewStore {
 public:
  explicit SpaViewStore(WorkerStats* stats);
  ~SpaViewStore();

  SpaViewStore(const SpaViewStore&) = delete;
  SpaViewStore& operator=(const SpaViewStore&) = delete;

  std::byte* base() const noexcept { return region_.base(); }
  spa::LocalSlotCache& slot_cache() noexcept { return slot_cache_; }

  spa::ViewSlot* slot_at(std::uint64_t offset) noexcept {
    return reinterpret_cast<spa::ViewSlot*>(region_.base() + offset);
  }
  spa::SpaPage* page_at(std::uint32_t page) noexcept {
    return reinterpret_cast<spa::SpaPage*>(region_.base() +
                                           std::size_t{page} * spa::kPageBytes);
  }

  /// Install a freshly created view into the private slot at `offset`
  /// (the reducer lookup-miss path and the merge-adopt path). Untimed: the
  /// callers time it, per sampled miss or per bulk operation.
  void install(std::uint64_t offset, void* view, ReducerBase* reducer) {
    const std::uint32_t page_idx = spa::offset_page(offset);
    spa::SpaPage* page = page_at(page_idx);
    spa::ViewSlot* slot = slot_at(offset);
    CILKM_DCHECK(slot->empty(), "installing over a live view");
    *slot = spa::ViewSlot{view, reducer};
    const bool first_in_page = page->num_valid == 0;
    page->note_insert(spa::offset_index(offset));
    if (first_in_page) touched_pages_.push_back(page_idx);
  }

  /// Remove and return the view at `offset`, or nullptr (reducer dtor).
  void* extract(std::uint64_t offset);

  bool empty() const noexcept;

  /// View transferal: move every private SPA map into public pages in `out`.
  void deposit(std::vector<spa::SpaDepositEntry>* out);

  /// Adopt a deposit wholesale; the store must be empty.
  void install_deposit(std::vector<spa::SpaDepositEntry>* in);

  /// Hypermerge `in` into the ambient views; `deposit_is_left` gives the
  /// serial order of every ⊗ (deposit earlier vs ambient earlier).
  void merge(std::vector<spa::SpaDepositEntry>* in, bool deposit_is_left);

  void collapse_into_leftmosts();

 private:
  tlmm::WorkerRegion region_{spa::kRegionBytes};
  std::vector<std::uint32_t> touched_pages_;
  spa::LocalSlotCache slot_cache_;
  WorkerStats* stats_;
};

// ---------------------------------------------------------------------------
// HyperMapViewStore — the Cilk Plus baseline (hypermap_policy)
// ---------------------------------------------------------------------------

/// Wraps the worker-local HyperMap. A reducer's key is its ReducerBase
/// address, so an entry {key, view} already names the owning reducer. View
/// transferal is a pointer switch, as in Cilk Plus.
class HyperMapViewStore {
 public:
  HyperMapViewStore() = default;

  HyperMapViewStore(const HyperMapViewStore&) = delete;
  HyperMapViewStore& operator=(const HyperMapViewStore&) = delete;

  hypermap::HyperMap& map() noexcept { return map_; }

  /// The hot lookup path: hash plus probe chain.
  hypermap::Entry* lookup(const void* key) noexcept {
    return map_.lookup(key);
  }

  void install(ReducerBase* reducer, void* view) {
    map_.insert(reducer, view);
  }

  /// Remove and return the view for `key`, or nullptr (reducer dtor).
  void* extract(const void* key);

  bool empty() const noexcept { return map_.empty(); }

  void deposit(hypermap::HyperMap* out) { *out = std::move(map_); }

  void install_deposit(hypermap::HyperMap* in) { map_ = std::move(*in); }

  /// The hypermerge rule: sequence through the smaller map and reduce into
  /// the larger one; swapping the physical tables flips which map survives
  /// but never the ⊗ operand order.
  void merge(hypermap::HyperMap&& deposit, bool deposit_is_left);

  void collapse_into_leftmosts();

 private:
  hypermap::HyperMap map_;
};

// ---------------------------------------------------------------------------
// FlatViewStore — dense-id ablation (flat_policy)
// ---------------------------------------------------------------------------

/// A worker-indexed flat view array: reducer id → (view, reducer), no
/// hashing, no mmap emulation. Lookup is one bounds check and one array
/// load — the cheapest conceivable implementation of the contract, which is
/// exactly what makes it a useful third point in the ablation benches.
class FlatViewStore {
 public:
  explicit FlatViewStore(WorkerStats* stats) : stats_(stats) {}

  FlatViewStore(const FlatViewStore&) = delete;
  FlatViewStore& operator=(const FlatViewStore&) = delete;

  /// The hot lookup path. Returns the view, or nullptr on a miss.
  void* lookup(std::uint32_t id) const noexcept {
    return id < slots_.size() ? slots_[id].view : nullptr;
  }

  void install(std::uint32_t id, void* view, ReducerBase* reducer);

  /// Remove and return the view for `id`, or nullptr (reducer dtor).
  void* extract(std::uint32_t id);

  bool empty() const noexcept;

  /// How many ids the store has slots for; test hook.
  std::size_t capacity() const noexcept { return slots_.size(); }

  void deposit(std::vector<FlatDepositEntry>* out);
  void install_deposit(std::vector<FlatDepositEntry>* in);
  void merge(std::vector<FlatDepositEntry>* in, bool deposit_is_left);
  void collapse_into_leftmosts();

 private:
  std::vector<spa::ViewSlot> slots_;
  // Ids installed since the last transferal, so deposit/collapse never scan
  // the whole array. Stale entries (extracted ids) are skipped because their
  // slot is a null pair — same convention as the SPA touched-page log.
  std::vector<std::uint32_t> touched_;
  WorkerStats* stats_;
};

// ---------------------------------------------------------------------------
// ViewStoreSet — what a Worker owns
// ---------------------------------------------------------------------------

/// The union of one store per mechanism plus the view-transferal /
/// hypermerge engine over all of them. This is the whole interface the
/// scheduler needs: the join protocol deposits, installs, and merges entire
/// view sets without knowing how any store keeps its views.
class ViewStoreSet {
 public:
  explicit ViewStoreSet(WorkerStats* stats)
      : spa_(stats), flat_(stats), stats_(stats) {}

  SpaViewStore& spa() noexcept { return spa_; }
  HyperMapViewStore& hypermap() noexcept { return hypermap_; }
  FlatViewStore& flat() noexcept { return flat_; }

  /// True iff no store holds any live view.
  bool empty() const noexcept;

  /// The lookup-miss path every policy shares: `create()` makes an
  /// identity view and `install(view)` binds it in one store. kViewsCreated
  /// counts every miss exactly; kViewCreateNs and kViewInsertNs are read
  /// on one miss in kMissSampleStride and scaled up by the stride, so an
  /// unsampled miss reads no clock at all.
  template <typename Create, typename Install>
  auto create_on_miss(Create&& create, Install&& install) {
    ++(*stats_)[StatCounter::kViewsCreated];
    if (--miss_countdown_ != 0) [[likely]] {
      auto* view = create();
      install(view);
      return view;
    }
    miss_countdown_ = kMissSampleStride;
    const std::uint64_t t0 = now_ns();
    auto* view = create();
    const std::uint64_t t1 = now_ns();
    install(view);
    const std::uint64_t t2 = now_ns();
    (*stats_)[StatCounter::kViewCreateNs] += (t1 - t0) * kMissSampleStride;
    (*stats_)[StatCounter::kViewInsertNs] += (t2 - t1) * kMissSampleStride;
    return view;
  }

  /// Move every local view of every store into `out` (view transferal).
  void deposit_ambient(ViewSetDeposit* out);

  /// Adopt a full deposit; requires an empty ambient. Timed as one bulk
  /// insertion (kViewInsertNs).
  void install_deposit(ViewSetDeposit* in);

  /// Hypermerge a deposit that is serially EARLIER than the ambient views
  /// (deposit ⊗ ambient).
  void merge_deposit_left(ViewSetDeposit* in);

  /// Hypermerge a deposit that is serially LATER than the ambient views
  /// (ambient ⊗ deposit).
  void merge_deposit_right(ViewSetDeposit* in);

  /// Quiescence: fold every remaining view into its reducer's leftmost.
  void collapse_into_leftmosts();

 private:
  void merge_deposit(ViewSetDeposit* in, bool deposit_is_left);

  SpaViewStore spa_;
  HyperMapViewStore hypermap_;
  FlatViewStore flat_;
  WorkerStats* stats_;
  std::uint32_t miss_countdown_ = kMissSampleStride;
};

}  // namespace cilkm::views
