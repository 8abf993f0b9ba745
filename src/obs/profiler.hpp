// Cilkview-style work/span profiler (the scalability-analyzer lineage of the
// source paper's runtime family). When enabled, the runtime's strand
// transitions (fork2join's spawn/continuation/join, Worker's branch and root
// runners) maintain a per-strand ProfileState alongside the pedigree: every
// strand's elapsed time is charged to both `work` (T1) and `span`, and at
// each join the two branches' subcomputation totals combine (combine() below,
// the only place the rule is written) as
//
//   work   = work(spawner-prefix) + work(a) + work(b)
//   span   = span(spawner-prefix) + max(span(a), span(b))
//   burden = burden(prefix) + max(burden(a) + victim protocol costs,
//                                 burden(b) + steal + thief protocol costs)
//
// so a run's final state holds T1 (total work), T-infinity (critical-path
// span), parallelism T1/T-inf, and a *burdened* span that additionally
// charges the scheduling costs actually incurred along each path — the steal
// latency that launched a stolen branch plus the view-transferal (deposit)
// and hypermerge time of its join — to the critical path. Burdened
// parallelism T1/burdened-span is the paper-facing number: how much
// parallelism survives the reduce machinery the paper's Figure 8 attributes.
//
// The state travels exactly like the pedigree: a thread-local re-seated at
// every point a strand (re)starts on an OS thread, with stolen branches
// publishing their totals through SpawnFrame::prof_* before the join
// arrival. All hooks are gated on profiler_enabled(): with the profiler off,
// the fork2join fast path pays one relaxed load and a predicted branch.
//
// Accounting is only meaningful for runs that complete without escaping
// exceptions, and the enable flag must not change while a run is in flight.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "util/timing.hpp"

namespace cilkm::obs {

/// The calling strand's accumulators for the innermost open subcomputation.
/// `work`/`span`/`burden` are ns totals since the subcomputation began;
/// `strand_start` is when the currently running strand was (re)started.
struct ProfileState {
  std::uint64_t work = 0;
  std::uint64_t span = 0;
  std::uint64_t burden = 0;
  std::uint64_t strand_start = 0;
};

namespace detail {
extern std::atomic<bool> g_profiler_enabled;
}  // namespace detail

/// Cheap global gate read on every fork2join. Relaxed: toggling is only
/// legal while no scheduler run is in flight (the driver toggles between
/// cells), so no ordering is needed against the accounting it guards.
inline bool profiler_enabled() noexcept {
  return detail::g_profiler_enabled.load(std::memory_order_relaxed);
}

/// The current strand's profile state. Deliberately OUT OF LINE and noinline
/// for the same reason as rt::current_pedigree(): fibers migrate between OS
/// threads at joins, and a CSE'd thread-local address would charge a resumed
/// strand's time to the thread it departed. Re-fetch after any fork2join or
/// scheduler call; never cache across them.
ProfileState& current_profile() noexcept;

/// Start timing a strand on the current thread.
inline void strand_begin(ProfileState& ps) noexcept {
  ps.strand_start = now_ns();
}

/// Close the running strand: charge its elapsed time to work, span, and
/// burden alike (a strand is on its own critical path by definition).
inline void strand_end(ProfileState& ps) noexcept {
  const std::uint64_t d = now_ns() - ps.strand_start;
  ps.work += d;
  ps.span += d;
  ps.burden += d;
}

/// Open a fresh subcomputation on the calling thread — a spawned child, a
/// continuation, a stolen branch, or a run's root — and start timing its
/// first strand. A stolen branch seeds `burden` with the steal latency that
/// delivered it, charging that scheduling cost to its path.
inline void open_subcomputation(std::uint64_t burden = 0) noexcept {
  current_profile() = {0, 0, burden, now_ns()};
}

/// Close the calling thread's running strand and return its
/// subcomputation's totals.
inline ProfileState close_strand() noexcept {
  ProfileState& ps = current_profile();
  strand_end(ps);
  return ps;
}

/// The join rule: combine the spawner's prefix with the spawned child `a`
/// and the continuation `b`. `a_protocol` is the protocol cost charged to
/// the victim's path (SpawnFrame::prof_burden_left; 0 when nothing was
/// stolen); `b`'s burden already holds its steal latency and thief-side
/// protocol costs.
constexpr ProfileState combine(const ProfileState& prefix,
                               const ProfileState& a, std::uint64_t a_protocol,
                               const ProfileState& b) noexcept {
  return {prefix.work + a.work + b.work,
          prefix.span + std::max(a.span, b.span),
          prefix.burden + std::max(a.burden + a_protocol, b.burden), 0};
}

/// Resume the strand past a join on the calling thread with the `combined`
/// totals.
inline void resume_joined(const ProfileState& combined) noexcept {
  ProfileState& ps = current_profile();
  ps = combined;
  strand_begin(ps);
}

/// Accumulated totals over the runs recorded since the last reset(), summed
/// so multi-rep cells report per-run means without the collector caring how
/// many reps the driver chose.
struct RunProfile {
  std::uint64_t runs = 0;
  std::uint64_t work_ns = 0;
  std::uint64_t span_ns = 0;
  std::uint64_t burdened_span_ns = 0;

  double parallelism() const noexcept {
    return span_ns == 0 ? 0.0
                        : static_cast<double>(work_ns) /
                              static_cast<double>(span_ns);
  }
  double burdened_parallelism() const noexcept {
    return burdened_span_ns == 0 ? 0.0
                                 : static_cast<double>(work_ns) /
                                       static_cast<double>(burdened_span_ns);
  }
};

/// Process-wide collector. The root runner (Worker::run_root) records one
/// entry per scheduler run; readers consume totals after run() returns
/// (quiescence orders the plain fields, exactly like WorkerStats).
class Profiler {
 public:
  static Profiler& instance();

  void enable() noexcept {
    detail::g_profiler_enabled.store(true, std::memory_order_relaxed);
  }
  void disable() noexcept {
    detail::g_profiler_enabled.store(false, std::memory_order_relaxed);
  }

  void reset() noexcept { totals_ = {}; }

  /// Root-done hook: `final_state` is the root strand's combined totals.
  void record_run(const ProfileState& final_state) noexcept {
    ++totals_.runs;
    totals_.work_ns += final_state.work;
    totals_.span_ns += final_state.span;
    totals_.burdened_span_ns += final_state.burden;
  }

  RunProfile totals() const noexcept { return totals_; }

 private:
  RunProfile totals_;
};

}  // namespace cilkm::obs
