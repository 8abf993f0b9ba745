// Ablation: worker pinning, the one deployment choice the scheduler leaves
// open, on a steal-heavy spawn tree. Series:
//
//   default — the scheduling policy as shipped, threads unpinned
//   pin     — the same policy, each worker pinned to its assigned CPU
//
// Each series reports the median wall time plus the steal/wake counters
// that make the policy visible: genuine thefts and batched wake-ups. The
// tree is sized so one sample runs for tens of milliseconds, above timer
// and host noise. The JSON keeps the machine's describe() string so a
// cross-host comparison knows what it is looking at.
//
//   ./abl_topology [--reps R] [--workers P]
#include <cstdio>
#include <string>

#include "harness.hpp"
#include "topo/topology.hpp"
#include "util/stats.hpp"

namespace {

struct Config {
  const char* series;
  cilkm::rt::SchedulerOptions options;
};

/// Spawn-dense kernel: a fine-grained parallel_for with per-leaf yields, so
/// even an oversubscribed host sees a realistic steal rate (the same trick
/// the reduce-overhead figures use).
void spawn_tree(std::uint64_t items) {
  bench::MicroBench<cilkm::mm_policy>::add_n(64, items, 64, 512);
}

void run_config(const Config& cfg, unsigned workers, int reps,
                std::uint64_t items, bench::JsonReport& report) {
  cilkm::Scheduler sched(workers, cfg.options);
  sched.warm_up();
  sched.run([&] { spawn_tree(items / 8); });  // warm the view stores
  sched.reset_stats();
  const bench::RunStat stat =
      bench::repeat(sched, reps, [&] { spawn_tree(items); });
  const auto stats = sched.aggregate_stats();
  const auto steals = stats[cilkm::StatCounter::kSteals];
  const auto batch_wakes = stats[cilkm::StatCounter::kBatchWakes];

  std::printf("%-18s %12.6f %10llu %12llu\n", cfg.series, stat.median_s,
              static_cast<unsigned long long>(steals),
              static_cast<unsigned long long>(batch_wakes));
  report.add(cfg.series, static_cast<double>(workers),
             {{"median_s", stat.median_s},
              {"stddev_s", stat.stddev_s},
              {"steals", static_cast<double>(steals)},
              {"batch_wakes", static_cast<double>(batch_wakes)}});
}

}  // namespace

int main(int argc, char** argv) {
  const int reps = static_cast<int>(bench::flag_int(argc, argv, "--reps", 5));
  const auto workers = static_cast<unsigned>(
      bench::flag_int(argc, argv, "--workers", 8));
  const std::uint64_t items = std::uint64_t{1} << 25;

  const cilkm::topo::Topology& topo = cilkm::topo::Topology::machine();
  std::printf("# Ablation: worker pinning under the scheduling policy\n");
  std::printf("# machine: %s, P=%u\n", topo.describe().c_str(), workers);
  std::printf("%-18s %12s %10s %12s\n", "series", "median_s", "steals",
              "batch_wakes");

  bench::JsonReport report("abl_topology");
  // machine row: num_cpus as x so the trajectory diff can spot host changes.
  report.add("machine:" + topo.describe(), static_cast<double>(topo.num_cpus()),
             {{"cores", static_cast<double>(topo.num_cores())},
              {"packages", static_cast<double>(topo.num_packages())}});

  cilkm::rt::SchedulerOptions pinned;
  pinned.pin = true;
  for (const Config& cfg : {Config{"default", {}}, Config{"pin", pinned}}) {
    run_config(cfg, workers, reps, items, report);
  }
  return 0;
}
