// Shared support for the randomized tests: one process-wide base seed,
// fixed by default so every run is reproducible, overridable through the
// CILKM_TEST_SEED environment variable (any strtoull-parseable value).
// Tests derive their per-case seeds from base_seed() and wrap their bodies
// in SCOPED_TRACE(seed_trace()), so a failing run always prints the exact
// seed needed to replay it. Join-protocol tests also sweep the chaos inputs
// below.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "util/rng.hpp"

namespace cilkm::test {

/// The run's base seed: CILKM_TEST_SEED if set, else cilkm::kDefaultSeed —
/// the same constant the workload driver defaults to, so the ctest matrix
/// and a bare `cilkm_run` exercise identical inputs.
inline std::uint64_t base_seed() {
  static const std::uint64_t value = [] {
    if (const char* env = std::getenv("CILKM_TEST_SEED")) {
      char* end = nullptr;
      const std::uint64_t parsed = std::strtoull(env, &end, 0);
      if (end != env && *end == '\0') return parsed;
    }
    return kDefaultSeed;
  }();
  return value;
}

/// The i-th seed derived from the base (splitmix64 stream), so independent
/// test cases draw decorrelated but reproducible seeds.
inline std::uint64_t derived_seed(std::uint64_t i) {
  std::uint64_t state = base_seed() + i;
  return splitmix64(state);
}

/// For SCOPED_TRACE at the top of every randomized test body: on failure,
/// gtest prints this line, telling the developer how to replay the run.
inline std::string seed_trace() {
  return "replay with CILKM_TEST_SEED=" + std::to_string(base_seed());
}

/// The inputs join-protocol tests run under: chaos disarmed (nullopt), and
/// fiber-acquire faults at p = 0.5, which mix fibered launches with degraded
/// ones (Worker::run_degraded) running the same branch runner and join
/// protocol on the scheduler's own stack. The seed keeps the root launch
/// fibered, so the faults land on stolen frames mid-run.
inline std::vector<std::optional<chaos::Config>> join_path_inputs() {
  chaos::Config degraded;
  degraded.p = 0.5;
  degraded.sites = chaos::site_bit(chaos::Site::kFiberAcquire);
  degraded.seed = 0x2223;
  return {std::nullopt, degraded};
}

/// Arms chaos with `cfg` for the scope (nullopt leaves it disarmed) and
/// disarms on exit, even when an assertion fails mid-test: armed chaos
/// leaking into the next TEST would make its failures non-local.
class ScopedChaos {
 public:
  explicit ScopedChaos(const std::optional<chaos::Config>& cfg)
      : armed_(cfg.has_value()) {
    if (armed_) chaos::arm(*cfg);
  }
  ~ScopedChaos() {
    if (armed_) chaos::disarm();
  }
  ScopedChaos(const ScopedChaos&) = delete;
  ScopedChaos& operator=(const ScopedChaos&) = delete;

 private:
  bool armed_;
};

}  // namespace cilkm::test
