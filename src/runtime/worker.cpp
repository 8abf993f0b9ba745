#include "runtime/worker.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <thread>
#include <utility>

#include "chaos/chaos.hpp"
#include "obs/profiler.hpp"
#include "runtime/sanitizer.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/trace.hpp"
#include "util/assert.hpp"
#include "util/timing.hpp"

namespace cilkm::rt {

thread_local Worker* tls_worker = nullptr;

void fiber_main(void* arg);

// The worker whose thread runs the caller right now, for use after any
// point where a fiber may have migrated. Out of line and noinline for the
// reason current_pedigree() is: inlined into this file, which defines
// tls_worker, the thread-local's address is computed once per function and
// reused on the OS thread the fiber has since moved to.
__attribute__((noinline)) Worker* worker_here() noexcept { return tls_worker; }

Worker::Worker(Scheduler* sched, unsigned id) : id_(id), sched_(sched) {}

Worker::~Worker() {
  // Hand cached fibers back to the node shards; the pool (and its trim
  // policy) outlives any one worker.
  StackPool::instance().flush(fiber_cache_);
}

// ---------------------------------------------------------------------------
// Scheduling: fibers, parking, stealing. All view bookkeeping is delegated
// to views_ (the ViewStoreSet); this file only sequences the join protocol.
// ---------------------------------------------------------------------------

namespace {

/// One join-protocol step: a deposit, install or merge of `frame`'s view
/// sets on worker `w` (the table of steps is in README, "Observability").
/// Steps allocate (monoid combines, table growth) inside the scheduler's
/// machinery, outside any SpawnFrame::eptr catch, so injected allocator
/// faults are suppressed for them; injected protocol delays are not. Each
/// step takes its site's chaos delay, records its trace event (an install
/// has none), and under profiling charges its own time to `burden` — the
/// frame's prof_burden on the thief's path, prof_burden_left on the
/// victim's.
template <typename Op>
void protocol_step(Worker* w, chaos::Site site,
                   std::optional<TraceEvent> event, SpawnFrame* frame,
                   std::uint64_t* burden, Op&& op) {
  // Scoped to the step, never function-wide: callers may switch stacks
  // right after and never return, and a SuppressFaults left open across a
  // switch would leak the thread-local count and mute injection on this
  // worker for good.
  chaos::SuppressFaults suppress;
  chaos::maybe_delay(site);
  if (event) Tracer::instance().record(w->id(), *event, frame);
  if (!obs::profiler_enabled()) {
    op();
    return;
  }
  const std::uint64_t t0 = now_ns();
  op();
  *burden += now_ns() - t0;
}

/// The last arriver's reinstall: take the victim's (serially earlier) views
/// back as ambient, then merge the thief's deposit on their right.
void reinstall(Worker* w, SpawnFrame* frame, std::uint64_t* burden) {
  protocol_step(w, chaos::Site::kInstallDelay, std::nullopt, frame, burden,
                [&] { w->views().install_deposit(&frame->left_views); });
  protocol_step(w, chaos::Site::kMergeDelay, TraceEvent::kMerge, frame, burden,
                [&] { w->views().merge_deposit_right(&frame->right_views); });
}

}  // namespace

void Worker::drain_pending() {
  if (pending_recycle_ != nullptr) {
    StackPool::instance().release(pending_recycle_, &fiber_cache_);
    pending_recycle_ = nullptr;
  }
}

void Worker::switch_stack(Context* from, const Context* to, Fiber* to_fiber,
                          bool from_finished) {
  void* fake_stack = nullptr;
  asan::start_switch(from_finished ? nullptr : &fake_stack,
                     to_fiber != nullptr
                         ? asan::StackBounds{to_fiber->alloc_base,
                                             to_fiber->alloc_size}
                         : sched_stack_);
  tsan::switch_to(to_fiber != nullptr ? to_fiber->tsan_fiber : sched_tsan_);
  if (to != nullptr) {
    cilkm_ctx_switch(from, to);
  } else {
    cilkm_ctx_start(from, to_fiber->stack_top, &fiber_main, to_fiber);
  }
  // Resumed, possibly on another worker's thread: no member access below.
  asan::finish_switch(fake_stack);
}

void Worker::resume_parked(SpawnFrame* frame, TraceEvent how,
                           Fiber* finished) {
  progress_.fetch_add(1, std::memory_order_relaxed);
  if (how == TraceEvent::kResumeByThief) ++stats_[StatCounter::kJoiningSteals];
  Tracer::instance().record(id_, how, frame);
  current_fiber_ = frame->parked_fiber;
  switch_stack(finished != nullptr ? &finished->ctx : &sched_ctx_,
               &frame->parked, frame->parked_fiber, finished != nullptr);
}

void Worker::run_root() {
  // Every run() starts from the root pedigree, so pedigrees (and DPRNG
  // streams) are reproducible per run, not per pool lifetime. The root
  // strand opens the run's outermost subcomputation; its final combined
  // state IS the run's work/span/burden.
  current_pedigree() = PedigreeState{};
  const bool prof = obs::profiler_enabled();
  if (prof) obs::open_subcomputation();
  Scheduler* sched = worker_here()->sched_;
  try {
    sched->root_fn_();
  } catch (...) {
    sched->root_eptr_ = std::current_exception();
  }
  Worker* w = worker_here();  // the root may have migrated
  if (prof) obs::Profiler::instance().record_run(obs::close_strand());
  w->views_.collapse_into_leftmosts();
  Tracer::instance().record(w->id_, TraceEvent::kRootDone, nullptr);
  sched->done_.store(true, std::memory_order_release);
  // Idle workers may be parked on the lot; they must all observe the done
  // flag to quiesce the run.
  w->stats_[StatCounter::kWakes] += sched->parking_.wake_all();
}

bool Worker::run_branch(SpawnFrame* frame) {
  // A promoted frame resumes the continuation strand: rank ped_rank + 1
  // under the spawn-time prefix, exactly where the victim's fast path would
  // have resumed it. The stolen branch is a fresh subcomputation whose
  // burden starts at the steal latency that delivered it.
  current_pedigree() = {frame->ped_parent, frame->ped_rank + 1};
  const bool prof = obs::profiler_enabled();
  if (prof) obs::open_subcomputation(launch_burden_ns_);
  try {
    frame->invoke_b(frame);
  } catch (...) {
    frame->eptr = std::current_exception();
  }
  if (prof) {
    // Publish b's totals BEFORE any arrival announcement: the release
    // fetch_add below (or the victim's acquire load of arrivals) makes them
    // visible to whoever resumes the continuation.
    const obs::ProfileState b = obs::close_strand();
    frame->prof_work = b.work;
    frame->prof_span = b.span;
    frame->prof_burden = b.burden;
  }
  // The thief half of the join, on whichever worker holds the branch now (a
  // fibered branch may have migrated at an inner join). Its burden lands in
  // prof_burden before the release arrival, or after it only when this
  // thread resumes the continuation itself, which orders the store first.
  Worker* w = worker_here();
  if (frame->arrivals.load(std::memory_order_acquire) == 1) {
    // The victim has already parked (its arrival is announced only after
    // its deposit and context save are complete). Merge its serially
    // earlier views on the left of ours: a joining steal, no deposit.
    protocol_step(w, chaos::Site::kMergeDelay, TraceEvent::kMerge, frame,
                  &frame->prof_burden,
                  [&] { w->views_.merge_deposit_left(&frame->left_views); });
    return true;
  }
  // Deposit our views on the right, THEN announce the arrival: the other
  // side must never observe a half-built deposit.
  protocol_step(w, chaos::Site::kDepositDelay, TraceEvent::kDepositRight,
                frame, &frame->prof_burden,
                [&] { w->views_.deposit_ambient(&frame->right_views); });
  // First arriver: the victim will resume the continuation.
  if (frame->arrivals.fetch_add(1, std::memory_order_acq_rel) != 1) {
    return false;
  }
  // The victim parked in the meantime and we arrived last: both deposits
  // exist and our ambient is empty.
  reinstall(w, frame, &frame->prof_burden);
  return true;
}

/// Trampoline for every fiber: runs the root task or a stolen branch, then
/// leaves the fiber for good, into the parked continuation if the branch
/// arrived last at its join, else back to the scheduler loop.
void fiber_main(void* arg) {
  auto* self = static_cast<Fiber*>(arg);
  asan::finish_switch(nullptr);  // first landing on this stack
  Worker* w = worker_here();
  w->drain_pending();
  SpawnFrame* frame = std::exchange(w->launch_frame_, nullptr);
  bool resume = false;
  if (frame == nullptr) {
    Worker::run_root();
  } else {
    resume = w->run_branch(frame);
  }
  w = worker_here();  // the strand may have migrated
  w->pending_recycle_ = self;  // released by the next context to run here
  if (resume) w->resume_parked(frame, TraceEvent::kResumeByThief, self);
  w->current_fiber_ = nullptr;
  w->switch_stack(&self->ctx, &w->sched_ctx_, nullptr, /*from_finished=*/true);
  __builtin_unreachable();
}

void Worker::launch(SpawnFrame* frame_or_null_root) {
  progress_.fetch_add(1, std::memory_order_relaxed);
  Tracer::instance().record(id_, TraceEvent::kLaunch, frame_or_null_root);
  Fiber* fiber = nullptr;
  // The fiber consult is keyed on the frame's pedigree SNAPSHOT, not this
  // thread's pedigree slot: on the scheduler context the slot may reference
  // chain nodes on stacks that are already recycled, and the snapshot is
  // what makes the decision schedule-independent (the frame's identity,
  // not who launches it).
  const PedigreeState frame_ped =
      frame_or_null_root != nullptr
          ? PedigreeState{frame_or_null_root->ped_parent,
                          frame_or_null_root->ped_rank}
          : PedigreeState{};
  if (!chaos::should_fail(chaos::Site::kFiberAcquire, frame_ped)) {
    // The fiber-header allocation goes through the internal allocator;
    // suppress injected refill faults for it (a throw here would escape
    // into the scheduler loop). Real exhaustion returns nullptr instead.
    chaos::SuppressFaults suppress;
    fiber = StackPool::instance().acquire(&fiber_cache_);
  }
  if (fiber == nullptr) {
    // Out of fiber stacks (or an injected fault said so): run the frame on
    // this OS thread's own stack instead of aborting.
    ++stats_[StatCounter::kFiberFallbacks];
    run_degraded(frame_or_null_root);
    return;
  }
  ++stats_[StatCounter::kFibersAllocated];
  launch_frame_ = frame_or_null_root;
  current_fiber_ = fiber;
  switch_stack(&sched_ctx_, nullptr, fiber);
  // Control returns here when the fiber parks or finishes.
}

void Worker::run_degraded(SpawnFrame* frame) {
  // serial_mode_ forces every nested fork2join onto its serial path, so
  // nothing below can push, park, or migrate. A resume switches into the
  // parked continuation exactly as the scheduler loop's kResumeSelf path
  // does; control returns here when some fiber on this thread next yields
  // to the scheduler context, and the loop's drain_pending picks up
  // whatever that fiber left.
  serial_mode_ = true;
  bool resume = false;
  if (frame == nullptr) {
    run_root();
  } else {
    resume = run_branch(frame);
  }
  serial_mode_ = false;
  if (resume) resume_parked(frame, TraceEvent::kResumeByThief, nullptr);
}

void Worker::join_slow(SpawnFrame* frame) {
  Worker* w = worker_here();
  if (frame->arrivals.load(std::memory_order_acquire) == 1) {
    // The thief has already deposited and left: merge its views on the
    // right of ours and carry on without parking. fork2join reads
    // prof_burden_left right after we return, on this thread.
    protocol_step(w, chaos::Site::kMergeDelay, TraceEvent::kMerge, frame,
                  &frame->prof_burden_left,
                  [&] { w->views_.merge_deposit_right(&frame->right_views); });
    return;
  }
  // Park: transfer our views (serially earlier than the thief's) into the
  // frame, suspend this fiber, and let the scheduler announce our arrival
  // once the context is fully saved; that release orders the burden store
  // before a thief-side resume reads it.
  protocol_step(w, chaos::Site::kDepositDelay, TraceEvent::kDepositLeft, frame,
                &frame->prof_burden_left,
                [&] { w->views_.deposit_ambient(&frame->left_views); });
  Tracer::instance().record(w->id(), TraceEvent::kPark, frame);
  frame->parked_fiber = w->current_fiber_;
  w->pending_park_ = frame;
  w->switch_stack(&frame->parked, &w->sched_ctx_, nullptr);
  // Resumed by the last arriver — possibly on a different worker.
  worker_here()->drain_pending();
}

SpawnFrame* Worker::try_steal_round() {
  // One rotation tour: every other worker probed at most once, from a
  // random start, capped so wide oversubscribed pools still re-check the
  // done flag promptly.
  const StealTour tour = sched_->steal_tour(id_);
  for (unsigned a = 0; a < tour.size(); ++a) {
    Deque& victim = sched_->workers_[tour[a]]->deque_;
    ++stats_[StatCounter::kStealAttempts];
    // Timestamp per attempt, not per round: the latency sample covers only
    // the successful theft, not the failed probes before it.
    const std::uint64_t attempt_start = now_ns();
    SpawnFrame* frame = victim.steal();
    if (frame != nullptr) {
      const std::uint64_t steal_lat = now_ns() - attempt_start;
      stats_.record_steal(steal_lat);
      launch_burden_ns_ = steal_lat;  // burden seed for the frame's launch
      // Injected delay between claiming the frame and launching it — the
      // window a preempted thief would leave the protocol in. Keyed on the
      // frame's pedigree snapshot (this thread's pedigree slot is
      // scheduler-context here).
      chaos::maybe_delay(chaos::Site::kStealDelay,
                         PedigreeState{frame->ped_parent, frame->ped_rank});
      return frame;
    }
    cpu_relax();
  }
  return nullptr;
}

void Worker::park_idle(unsigned episode_parks) {
  ParkingLot& lot = sched_->parking_;
  const std::uint32_t ticket = lot.prepare_park(id_);
  // Registered as a sleeper — re-check everything a producer could have
  // published before it saw us: the done flag and every deque. Publications
  // after this point are guaranteed to observe the registration and wake.
  if (sched_->done_.load(std::memory_order_acquire) ||
      sched_->work_available()) {
    // A producer may have targeted us already; cancel forwards its wake
    // credit to the next sleeper, and those forwards count as wake-ups we
    // delivered.
    stats_[StatCounter::kWakes] += lot.cancel_park(id_);
    return;
  }
  // kParks counts idle EPISODES, not poll cycles: re-parking after a
  // backstop expiry (episode_parks > 1) is the same episode.
  if (episode_parks == 1) ++stats_[StatCounter::kParks];
  // The backstop bounds the damage of any missed wake-up; in correct
  // operation only a wake ends the wait. It escalates exponentially
  // (2ms → 64ms) across one episode so long-idle workers converge to a
  // handful of spurious wake-ups per second instead of a 500 Hz poll.
  const auto backstop =
      std::chrono::milliseconds(2L << std::min(episode_parks - 1, 5u));
  lot.park(id_, ticket, backstop);
}

void Worker::scheduler_loop() {
  // Record this thread's own TSan identity and stack bounds so fibers can
  // switch back to the scheduler stack. The pool thread persists across
  // runs, so this is idempotent after the first run.
  sched_tsan_ = tsan::current_fiber();
  sched_stack_ = asan::thread_stack();
  const bool is_bootstrap = (id_ == 0);
  if (is_bootstrap) launch(nullptr);  // run the root task

  // Exponential idle backoff: pause-spin rounds, then yields, then parking.
  constexpr unsigned kSpinRounds = 48;
  constexpr unsigned kYieldRounds = 8;
  unsigned idle_rounds = 0;

  while (true) {
    drain_pending();
    if (pending_park_ != nullptr) {
      SpawnFrame* frame = std::exchange(pending_park_, nullptr);
      if (frame->arrivals.fetch_add(1, std::memory_order_acq_rel) == 1) {
        // The thief finished in the meantime: both deposits exist. Take our
        // own views back, merge the thief's on the right, and resume the
        // continuation ourselves.
        reinstall(this, frame, &frame->prof_burden_left);
        resume_parked(frame, TraceEvent::kResumeSelf, nullptr);
        // The resumed continuation ran (and may have spawned): restart the
        // idle backoff from the spin phase rather than parking immediately.
        idle_rounds = 0;
        continue;
      }
      // We arrived first; the thief will resume the continuation.
    }
    if (sched_->done_.load(std::memory_order_acquire)) break;

    CILKM_DCHECK(ambient_empty(), "stealing with non-empty ambient views");
    // A deque holds only its owner's unstolen spawn frames, and every one
    // of them is popped or stolen before the strand that pushed it parks
    // or finishes — so back on the scheduler stack there is nothing of
    // ours left to run.
    CILKM_DCHECK(deque_.empty(), "scheduler loop found frames in own deque");
    if (SpawnFrame* frame = try_steal_round()) {
      ++stats_[StatCounter::kSteals];
      Tracer::instance().record(id_, TraceEvent::kSteal, frame);
      idle_rounds = 0;
      launch(frame);
      continue;
    }
    // Nothing runnable anywhere we looked: back off, then park.
    ++idle_rounds;
    if (idle_rounds <= kSpinRounds) {
      for (unsigned i = 0; i < 1u << std::min(idle_rounds / 8, 5u); ++i) {
        cpu_relax();
      }
    } else if (idle_rounds <= kSpinRounds + kYieldRounds) {
      std::this_thread::yield();
    } else {
      park_idle(idle_rounds - kSpinRounds - kYieldRounds);
    }
  }
}

namespace {

/// assert_fail context: which worker died, executing which strand. Uses
/// only async-signal-tolerant pieces (fprintf, a bounded stack array) since
/// the process is already aborting.
void print_assert_context(std::FILE* out) {
  Worker* w = Worker::current();
  if (w == nullptr) {
    std::fprintf(out, "  on an external thread (no worker)\n");
    return;
  }
  std::fprintf(out, "  on worker %u", w->id());
  constexpr unsigned kMaxDepth = 128;
  std::uint64_t ranks[kMaxDepth];
  unsigned depth = 0;
  const PedigreeState& ped = current_pedigree();
  const PedigreeNode* n = ped.parent;
  for (; n != nullptr && depth < kMaxDepth; n = n->parent) {
    ranks[depth++] = n->rank;
  }
  std::fprintf(out, ", pedigree (root->leaf):");
  if (n != nullptr) std::fprintf(out, " ...");  // deeper than the buffer
  for (unsigned i = depth; i-- > 0;) {
    std::fprintf(out, " %llu", static_cast<unsigned long long>(ranks[i]));
  }
  std::fprintf(out, " %llu\n", static_cast<unsigned long long>(ped.rank));
}

}  // namespace

void install_assert_context() noexcept {
  ::cilkm::detail::assert_context_fn = &print_assert_context;
}

}  // namespace cilkm::rt
