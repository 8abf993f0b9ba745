// Shared helpers of the repository benchmark: the seeded input hash, sample
// statistics, and the metric list every mode prints.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/timing.hpp"

namespace perfbench {

using cilkm::now_ns;

/// Stateless 64-bit mix of (key, i): the input generator of the histogram
/// workloads and the spawn workload's leaf payloads. A pure function of the
/// seed-derived key, so every rep (and the serial reference) sees the same
/// inputs without materialising them.
inline std::uint64_t mix(std::uint64_t key, std::uint64_t i) noexcept {
  std::uint64_t x = (i + key) * 0x9e3779b97f4a7c15ULL;
  x ^= x >> 29;
  x *= 0xbf58476d1ce4e5b9ULL;
  return x ^ (x >> 32);
}

/// Linear-interpolated quantile q in [0, 1] of a sample set; 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Ordered name → value list of one run's metrics.
using MetricList = std::vector<std::pair<std::string, double>>;

}  // namespace perfbench
