// Public fork-join API. fork2join(a, b) runs `a` immediately and exposes
// "`b`, then the join" as a stealable continuation — exactly the
// continuation-stealing discipline of cilk_spawn/cilk_sync, expressed with
// closures instead of compiler support. Any spawn/sync pattern desugars into
// nested fork2join calls (see README, "Substitutions"), and each worker
// executes in precise serial order between steals, which is what the reducer
// protocol relies on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <utility>
#include <vector>

#include "chaos/chaos.hpp"
#include "obs/profiler.hpp"
#include "runtime/frame.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/worker.hpp"

namespace cilkm {

/// Run a() then b(), allowing b's side (with everything after it up to the
/// join) to be stolen. Serial semantics: exactly a(); b();.
///
/// Every path — the serial elision, a degraded or refused-push spawn, the
/// un-stolen fast path, and the stolen slow path — walks the same strand
/// transitions, each written once below:
///   - pedigree (runtime/pedigree.hpp): at spawn rank r, `a` runs as the
///     child with prefix+[r] (its own leaf rank restarts at 0), `b` runs as
///     the continuation at rank r+1, and the strand past the join at r+2,
///     so pedigree-hashed draws are schedule-independent;
///   - profile (obs/profiler.hpp, under --profile): each boundary closes the
///     running strand and opens a fresh subcomputation, and the join applies
///     obs::combine, so the reported span is the DAG's span under every
///     schedule. Off, the cost is one relaxed load and predicted branches.
/// Only the slow path differs: b ran on a thief (Worker::run_branch), which
/// published its totals in the frame before arriving at the join.
///
/// NOTE: the call may return on a different worker thread than it started on
/// (the continuation migrates at a joining steal); do not cache
/// thread-identity-dependent state across this call.
template <typename A, typename B>
void fork2join(A&& a, B&& b) {
  rt::Worker* w = rt::Worker::current();
  rt::PedigreeState& ped = rt::current_pedigree();
  const rt::PedigreeState spawn = ped;
  rt::PedigreeNode child_node{spawn.rank, spawn.parent};
  const bool prof = obs::profiler_enabled();
  obs::ProfileState prefix, left, right;
  if (prof) prefix = obs::close_strand();
  // The child. Its exception is held until the frame is off the deque and
  // the continuation's pedigree is seated.
  std::exception_ptr a_eptr;
  const auto run_child = [&] {
    ped = {&child_node, 0};
    if (prof) obs::open_subcomputation();
    try {
      a();
    } catch (...) {
      a_eptr = std::current_exception();
    }
    if (prof) left = obs::close_strand();
  };
  // Set when b ran on a thief: its exception, and the victim's protocol
  // cost that burdens a's path.
  bool stolen = false;
  std::exception_ptr b_eptr;
  std::uint64_t left_protocol = 0;
  if (w != nullptr && !w->serial_spawns()) {
    rt::SpawnFrameT<std::remove_reference_t<B>> frame(&b);
    // The pedigree snapshot must be complete before the push: a thief may
    // promote the frame (and read these fields) immediately. Likewise the
    // victim's burden slot; the thief always overwrites the other prof_*.
    frame.ped_parent = spawn.parent;
    frame.ped_rank = spawn.rank;
    if (prof) frame.prof_burden_left = 0;
    // An injected push fault or a genuinely full deque runs the child in
    // place, exactly as in the serial elision, and the process survives
    // what used to be a capacity abort.
    const bool pushed = !chaos::should_fail(chaos::Site::kDequePush) &&
                        w->deque().push(&frame);
    if (!pushed) ++w->stats()[StatCounter::kSerialDegrades];
    run_child();
    // a() may have migrated this strand at an inner join: re-fetch the
    // worker (and below, the thread-local pedigree and profile slots).
    if (pushed && rt::Worker::current()->deque().take_if(&frame) != &frame) {
      // Stolen: b ran (or runs) on a thief, which published its totals in
      // the frame before arriving at the join.
      rt::Worker::join_slow(&frame);
      stolen = true;
      // Take-and-clear: this frame's storage is recycled through the
      // tagged allocator, and a stale exception_ptr must never survive
      // into the next activation that lands on the same bytes.
      b_eptr = std::exchange(frame.eptr, nullptr);
      if (prof) {
        right = {frame.prof_work, frame.prof_span, frame.prof_burden};
        left_protocol = frame.prof_burden_left;
      }
    }
  } else {
    run_child();
  }
  if (!stolen) {
    // The continuation, run in place at r+1.
    rt::current_pedigree() = {spawn.parent, spawn.rank + 1};
    if (a_eptr) std::rethrow_exception(a_eptr);
    if (prof) obs::open_subcomputation();
    b();
    if (prof) right = obs::close_strand();
  }
  // Past the join, at r+2.
  rt::current_pedigree() = {spawn.parent, spawn.rank + 2};
  if (prof) {
    obs::resume_joined(obs::combine(prefix, left, left_protocol, right));
  }
  if (a_eptr) std::rethrow_exception(a_eptr);
  if (b_eptr) std::rethrow_exception(b_eptr);
}

/// Run all invocables, allowing them to execute in parallel; serial order is
/// left-to-right (so order-sensitive reducers behave as in serial code).
template <typename F1, typename F2, typename... Rest>
void parallel_invoke(F1&& f1, F2&& f2, Rest&&... rest) {
  if constexpr (sizeof...(Rest) == 0) {
    fork2join(std::forward<F1>(f1), std::forward<F2>(f2));
  } else {
    fork2join(std::forward<F1>(f1), [&] {
      parallel_invoke(std::forward<F2>(f2), std::forward<Rest>(rest)...);
    });
  }
}

/// Parallel loop over [lo, hi): recursive binary splitting down to `grain`
/// iterations, preserving ascending serial order within and across leaves.
template <typename Body>
void parallel_for(std::int64_t lo, std::int64_t hi, std::int64_t grain,
                  Body&& body) {
  if (hi - lo <= grain) {
    for (std::int64_t i = lo; i < hi; ++i) body(i);
    return;
  }
  const std::int64_t mid = lo + (hi - lo) / 2;
  fork2join([&] { parallel_for(lo, mid, grain, body); },
            [&] { parallel_for(mid, hi, grain, body); });
}

/// Parallel loop with automatic grain selection: aims for ~8 leaf chunks per
/// worker, the usual divide-and-conquer rule of thumb.
template <typename Body>
void parallel_for(std::int64_t lo, std::int64_t hi, Body&& body) {
  std::int64_t workers = 1;
  if (rt::Worker* w = rt::Worker::current()) {
    workers = static_cast<std::int64_t>(w->scheduler()->num_workers());
  }
  const std::int64_t grain = std::max<std::int64_t>(1, (hi - lo) / (8 * workers));
  parallel_for(lo, hi, grain, std::forward<Body>(body));
}

/// A dynamic set of tasks executed in parallel at sync(), with serial order
/// preserved left-to-right (so order-sensitive reducers behave exactly as if
/// the tasks ran in spawn order). Unlike cilk_spawn, children do not begin
/// until sync() — use fork2join directly when the spawning strand should
/// overlap with its children.
class SpawnGroup {
 public:
  template <typename F>
  void spawn(F&& task) {
    tasks_.emplace_back(std::forward<F>(task));
  }

  bool empty() const noexcept { return tasks_.empty(); }
  std::size_t size() const noexcept { return tasks_.size(); }

  /// Run all spawned tasks (parallel, order-preserving) and clear the group.
  void sync() {
    if (!tasks_.empty()) invoke_range(0, tasks_.size());
    tasks_.clear();
  }

  ~SpawnGroup() { sync(); }

 private:
  void invoke_range(std::size_t lo, std::size_t hi) {
    if (hi - lo == 1) {
      tasks_[lo]();
      return;
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    fork2join([&] { invoke_range(lo, mid); }, [&] { invoke_range(mid, hi); });
  }

  std::vector<std::function<void()>> tasks_;
};

/// Convenience re-exports.
using rt::Scheduler;
using rt::SchedulerOptions;
inline void run(unsigned num_workers, std::function<void()> root) {
  rt::run(num_workers, std::move(root));
}

}  // namespace cilkm
