// Per-layer costs the traced run measures from outside each layer: timed
// loops around calls into the runtime, view stores, allocator and bag.
// Each is the 10th percentile over several reps, interleaved with its
// plain-code control where it has one.
#pragma once

#include "common.hpp"
#include "runtime/scheduler.hpp"

namespace perfbench {

/// Runs every per-layer microbenchmark on the warm pools and returns their
/// metrics (names as in BENCHMARK.json). Takes about two seconds.
MetricList measure_layers(cilkm::rt::Scheduler& p1, cilkm::rt::Scheduler& pn);

}  // namespace perfbench
