// CPU-topology discovery: which logical CPUs the process may use, and how
// they group into SMT siblings, physical cores, packages, and NUMA nodes.
// The runtime uses this to place (and optionally pin) workers, and the
// internal allocator and fiber-stack pool use its NUMA node map to shard
// by node. Steal victims and wake-ups are not ranked by it: the scheduler
// steals uniformly (see README "Topology and steal policy").
//
// Discovery reads the Linux sysfs tree (/sys/devices/system by default;
// tests point it at canned trees) intersected with the current affinity
// mask from sched_getaffinity, and degrades to a flat single-package
// topology when sysfs is missing or unparseable (containers with a
// restricted /sys, non-Linux hosts).
#pragma once

#include <string>
#include <vector>

namespace cilkm::topo {

/// One logical CPU the process may run on.
struct CpuInfo {
  unsigned cpu = 0;      ///< logical id (sysfs cpuN / sched_setaffinity bit)
  unsigned core = 0;     ///< dense physical-core index, unique across packages
  unsigned package = 0;  ///< physical_package_id as reported by sysfs
  unsigned node = 0;     ///< NUMA node; equals `package` when undiscoverable
};

/// Parse a sysfs cpulist ("0-3,8,10-11") into ascending cpu ids. Malformed
/// input yields the longest valid prefix (sysfs itself is trusted; the
/// leniency is for canned test trees).
std::vector<unsigned> parse_cpulist(const std::string& text);

class Topology {
 public:
  /// Discover the live machine: sysfs structure restricted to the CPUs in
  /// the calling thread's affinity mask. Falls back to flat() when either
  /// source is unavailable.
  static Topology discover();

  /// Discovery with injectable inputs (the golden-file test seam).
  /// `sysfs_root` mimics /sys/devices/system (containing cpu/ and
  /// optionally node/); `affinity`, when non-null, plays the role of the
  /// sched_getaffinity mask.
  static Topology discover_at(const std::string& sysfs_root,
                              const std::vector<unsigned>* affinity = nullptr);

  /// Flat fallback: cpus 0..n-1, one package, every cpu its own core.
  static Topology flat(unsigned num_cpus);

  /// Flat fallback over explicit cpu ids (a restricted mask with no sysfs).
  static Topology flat_over(std::vector<unsigned> cpu_ids);

  /// The process-wide topology, discovered once on first use.
  static const Topology& machine();

  unsigned num_cpus() const noexcept {
    return static_cast<unsigned>(cpus_.size());
  }
  unsigned num_cores() const noexcept { return num_cores_; }
  unsigned num_packages() const noexcept { return num_packages_; }
  unsigned num_nodes() const noexcept { return num_nodes_; }

  /// False when discovery fell back to the flat topology.
  bool from_sysfs() const noexcept { return from_sysfs_; }

  /// All usable CPUs, ascending by logical id.
  const std::vector<CpuInfo>& cpus() const noexcept { return cpus_; }

  /// Lookup by logical id; nullptr when the id is not usable here.
  const CpuInfo* find(unsigned cpu_id) const noexcept;

  /// One-line human summary, e.g. "8 cpus / 4 cores / 2 packages / 2 nodes
  /// (sysfs)".
  std::string describe() const;

 private:
  std::vector<CpuInfo> cpus_;  // sorted by logical id
  unsigned num_cores_ = 0;
  unsigned num_packages_ = 0;
  unsigned num_nodes_ = 0;
  bool from_sysfs_ = false;
};

}  // namespace cilkm::topo
