#include "runtime/scheduler.hpp"

#include <chrono>
#include <cstdio>
#include <iostream>
#include <utility>

#include "mem/internal_alloc.hpp"
#include "obs/metrics.hpp"
#include "runtime/trace.hpp"
#include "tlmm/region.hpp"
#include "topo/placement.hpp"
#include "topo/topology.hpp"
#include "util/assert.hpp"

namespace cilkm::rt {

Scheduler::Scheduler(unsigned num_workers, SchedulerOptions options)
    : options_(options), parking_(num_workers) {
  CILKM_CHECK(num_workers >= 1, "need at least one worker");
  // Every runtime-linked binary gets worker/pedigree context on aborts.
  install_assert_context();
  workers_.reserve(num_workers);
  for (unsigned i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(this, i));
  }

  // The topology is discovered once per process; placement wraps modulo the
  // CPU count when the pool is oversubscribed.
  worker_cpu_ = topo::assign_cpus(topo::Topology::machine(), num_workers);

  for (auto& worker : workers_) {
    worker->deque().attach_wake_gate(
        &parking_, &worker->stats()[StatCounter::kWakes],
        &worker->stats()[StatCounter::kBatchWakes]);
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    CILKM_CHECK(!running_, "Scheduler destroyed while a run is in flight");
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

StealTour Scheduler::steal_tour(unsigned thief) {
  const unsigned n = num_workers();
  const auto start =
      static_cast<unsigned>(workers_[thief]->rng_.below(n - 1));
  return StealTour{thief, n, start};
}

bool Scheduler::work_available() const noexcept {
  for (const auto& worker : workers_) {
    if (!worker->deque_.empty()) return true;
  }
  return false;
}

void Scheduler::start_threads_locked() {
  if (!threads_.empty()) return;
  threads_.reserve(workers_.size());
  for (auto& worker : workers_) {
    threads_.emplace_back([this, w = worker.get()] { worker_thread(w); });
  }
}

void Scheduler::warm_up() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  start_threads_locked();
}

/// Persistent body of one pool thread: TLS is installed once for the life of
/// the thread; between runs the thread sleeps on start_cv_ until run() opens
/// a new epoch (or the destructor shuts the pool down).
void Scheduler::worker_thread(Worker* w) {
  if (options_.pin) {
    topo::pin_current_thread(worker_cpu_[w->id()]);  // best-effort
    // Bind this thread's allocator magazine to the pinned CPU's NUMA shard:
    // every batch exchange (views, SPA pages, frames) stays node-local
    // without per-refill CPU queries. Unpinned workers keep deriving the
    // shard from wherever they currently run.
    mem::InternalAlloc::bind_current_thread(worker_cpu_[w->id()]);
  }
  tls_worker = w;
  tlmm::tls_region_base = w->region_base();
  std::uint64_t seen_epoch = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(lifecycle_mu_);
      start_cv_.wait(lock,
                     [&] { return shutdown_ || run_epoch_ != seen_epoch; });
      if (shutdown_) break;
      seen_epoch = run_epoch_;
    }
    w->scheduler_loop();
    CILKM_DCHECK(w->ambient_empty(), "worker exits with live ambient views");
    {
      std::lock_guard<std::mutex> lock(lifecycle_mu_);
      if (--active_workers_ == 0) quiesce_cv_.notify_all();
    }
  }
  tls_worker = nullptr;
  tlmm::tls_region_base = nullptr;
}

void Scheduler::run(std::function<void()> root) {
  CILKM_CHECK(Worker::current() == nullptr,
              "Scheduler::run may not be called from inside a run");
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    CILKM_CHECK(!running_, "Scheduler::run is not reentrant");
    running_ = true;
    // Publish the run's inputs before the epoch opens: workers only read
    // them after observing the new epoch under this mutex.
    root_fn_ = std::move(root);
    root_eptr_ = nullptr;
    done_.store(false, std::memory_order_release);
    start_threads_locked();
    active_workers_ = num_workers();
    ++run_epoch_;
  }
  start_cv_.notify_all();
  std::exception_ptr eptr;
  {
    std::unique_lock<std::mutex> lock(lifecycle_mu_);
    const auto quiesced = [&] { return active_workers_ == 0; };
    if (options_.watchdog_ms == 0) {
      quiesce_cv_.wait(lock, quiesced);
    } else {
      // Watchdog: while the run is in flight, a full window in which no
      // worker's progress tick advanced is a stalled epoch — dump the
      // observable state and abort rather than hang forever. progress_sum()
      // reads only atomics, so taking it while holding lifecycle_mu_ is
      // safe (workers never touch that mutex mid-run).
      std::uint64_t last = progress_sum();
      while (!quiesce_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.watchdog_ms), quiesced)) {
        const std::uint64_t now = progress_sum();
        if (now == last) {
          dump_stall_diagnostics();
          CILKM_CHECK(false,
                      "run watchdog: no scheduling progress within the stall "
                      "window");
        }
        last = now;
      }
    }
    running_ = false;
    root_fn_ = nullptr;
    // Take the exception out under the lock: once running_ drops, another
    // external thread may legally begin the next run.
    eptr = std::exchange(root_eptr_, nullptr);
  }
  if (eptr != nullptr) std::rethrow_exception(eptr);
}

std::uint64_t Scheduler::progress_sum() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& worker : workers_) sum += worker->progress();
  return sum;
}

void Scheduler::dump_stall_diagnostics() {
  std::fprintf(stderr,
               "cilkm: run watchdog fired (no scheduling progress for %u ms); "
               "dumping state\n",
               options_.watchdog_ms);
  // The pool is NOT quiesced here, so the snapshot's values are racy
  // best-effort reads — acceptable for a post-mortem that precedes abort.
  const obs::MetricsSnapshot snap = obs::capture(this);
  for (const obs::Metric& m : snap.flatten()) {
    std::fprintf(stderr, "  %s = %.17g\n", m.name.c_str(), m.value);
  }
  if (Tracer::instance().enabled()) {
    std::fprintf(stderr, "-- tracer rings --\n");
    Tracer::instance().dump_csv(std::cerr);
  }
  std::fflush(stderr);
}

WorkerStats Scheduler::aggregate_stats() const {
  WorkerStats total;
  for (const auto& worker : workers_) total += worker->stats();
  return total;
}

void Scheduler::reset_stats() {
  for (auto& worker : workers_) worker->stats().reset();
}

std::uint64_t Scheduler::total_steals() const {
  return aggregate_stats()[StatCounter::kSteals];
}

void run(unsigned num_workers, std::function<void()> root) {
  Scheduler scheduler(num_workers);
  scheduler.run(std::move(root));
}

}  // namespace cilkm::rt
