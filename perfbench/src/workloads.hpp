// The four benchmark workloads. Each generates its inputs from the seed,
// computes a serial reference, and runs three programs that must all match
// it: a plain serial C++ program (no runtime), and the cilkm program on a
// given pool, traced or not. Why each workload exists — which layer does
// most of its work, and which layer it leaves idle — is recorded in
// BENCHMARK.json and perfbench/metrics.json.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/scheduler.hpp"
#include "trace.hpp"

namespace perfbench {

struct RepResult {
  double seconds = 0;  ///< wall time of the rep, verification excluded
  bool ok = false;     ///< output equals the serial reference
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;

  /// What one rep processes: updates, spawns or edges.
  virtual double items_per_rep() const = 0;

  /// Generate the inputs for `seed` and compute the serial reference.
  virtual void setup(std::uint64_t seed) = 0;

  /// Order-independent digest of the inputs and reference; equal seeds give
  /// equal digests.
  virtual std::uint64_t digest() const = 0;

  /// The plain serial program: the baseline of slowdown.p1.
  virtual RepResult plain_rep() = 0;

  /// One rep on `sched`. With a tracer, records rep/leaf/collapse/verify
  /// spans; without one, runs the untraced instantiation.
  virtual RepResult pool_rep(cilkm::rt::Scheduler& sched, Tracer* tracer) = 0;

  /// Damage the expected output so every later rep must fail verification
  /// (the self-test's proof that a wrong result is counted).
  virtual void corrupt_reference() = 0;

  /// pbfs only: bag-reducer lookups and BFS layers of the last pool rep.
  virtual double bfs_lookups() const { return 0; }
  virtual double bfs_layers() const { return 0; }
};

/// The workload called `name`, or nullptr.
std::unique_ptr<Workload> make_workload(const std::string& name);

/// Names accepted by make_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

}  // namespace perfbench
