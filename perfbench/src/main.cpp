// perfbench: the repository benchmark's measuring program. perfbench/run.py
// builds it and turns its report into the benchmark's result line.
//
//   perfbench --workload lookup|spawn|reduce|pbfs --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//   perfbench --self-test --seed N
//
// One run: calibrate the host, then for S seconds alternate plain-serial,
// P=1 and P=N reps round-robin, verifying every rep against the serial
// reference, then calibrate again. The run is cut into 3-15 segments, each
// begun by a fresh timed set-up (inputs, serial reference, warm pools).
// --trace 1 adds a traced P=1 and P=N rep to every round, writes their spans
// as a Chrome trace, and then runs the per-layer microbenchmarks. The last
// stdout line is one JSON object: correct, attempted, failed, metrics (every
// metric measured, name → value) and info.
//
// Host facts behind the statistics (a shared 4-vCPU VM, see
// perfbench/metrics.json): the host's speed drifts by up to ~20% over
// minutes and it sometimes withholds CPUs, so the gated metrics are ratios
// over interleaved pairs of reps (P=1 ÷ plain, P=N ÷ plain), and absolute
// throughputs use the 10th percentile of many short reps.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "mem/internal_alloc.hpp"
#include "runtime/scheduler.hpp"
#include "trace.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using cilkm::StatCounter;
using cilkm::rt::Scheduler;
using cilkm::mem::AllocTag;

/// Set-ups per run: enough to take about kSetupShare of the measuring time,
/// clamped to [kMinSetups, kMaxSetups]; setup_s is their median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupShare = 0.05;
/// Every run completes at least this many measured rounds.
constexpr int kMinRounds = 20;
/// Share of --seconds the traced run gives to workload reps; the per-layer
/// microbenchmarks follow.
constexpr double kTracedShare = 0.6;
/// A host giving less than this share of the pool's CPUs is "contended".
constexpr double kContendedShare = 0.75;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
  bool self_test = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n"
               "       perfbench --self-test [--seed N]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* flag) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64(v, "--seed");
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(v, "--seconds");
      if (s == 0 || s > 3600) usage("--seconds must be in 1..3600");
      a.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(v, "--trace");
      if (t > 1) usage("--trace must be 0 or 1");
      a.trace = static_cast<int>(t);
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!a.self_test && !make_workload(a.workload)) usage("unknown --workload");
  return a;
}

/// Pool width N = min(CPUs this process may use, 4).
unsigned pool_width() {
  cpu_set_t set;
  CPU_ZERO(&set);
  unsigned cpus = std::thread::hardware_concurrency();
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::clamp(cpus, 1u, 4u);
}

// --- host calibration --------------------------------------------------------

std::uint64_t spin(std::uint64_t iters) {
  std::uint64_t x = iters;
  for (std::uint64_t i = 0; i < iters; ++i) x = x * 0x5851f42d4c957f2dULL + i;
  return x;
}

/// CPUs the host actually gives n spinning threads: n × (time of one
/// thread's loop alone) ÷ (wall time of n threads each running the loop).
/// The n threads spin on a start flag for a few ms first, so the kernel has
/// spread them over the CPUs before the clock starts. Best of three.
double cpus_effective(unsigned n) {
  constexpr std::uint64_t kIters = std::uint64_t{1} << 24;
  std::uint64_t sink = 0;
  double one = 1e30, all = 1e30;
  for (int trial = 0; trial < 3; ++trial) {
    std::uint64_t t0 = now_ns();
    sink += spin(kIters);
    one = std::min(one, static_cast<double>(now_ns() - t0));
    std::vector<std::uint64_t> out(n);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < n; ++i) {
      threads.emplace_back([&out, &go, i] {
        while (!go.load(std::memory_order_acquire)) {
        }
        out[i] = spin(kIters + i);
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    t0 = now_ns();
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    all = std::min(all, static_cast<double>(now_ns() - t0));
    for (std::uint64_t v : out) sink += v;
  }
  asm volatile("" : : "r"(sink));
  return static_cast<double>(n) * one / all;
}

// --- set-up ------------------------------------------------------------------

struct Rig {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Scheduler> p1;
  std::unique_ptr<Scheduler> pn;
};

/// Inputs, serial reference and warm pools — everything before the first
/// timed rep. `rig` must be empty.
void set_up(Rig& rig, const std::string& name, std::uint64_t seed,
            unsigned n) {
  rig.workload = make_workload(name);
  rig.workload->setup(seed);
  rig.p1 = std::make_unique<Scheduler>(1);
  rig.pn = std::make_unique<Scheduler>(n);
  rig.p1->warm_up();
  rig.pn->warm_up();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double mib(std::uint64_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

void print_report(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const MetricList& metrics, const MetricList& info) {
  auto print_list = [](const MetricList& list) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ", list[i].first.c_str(),
                  list[i].second);
    }
  };
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  print_list(metrics);
  std::printf("}, \"info\": {");
  print_list(info);
  std::printf("}}\n");
  std::fflush(stdout);
}

// --- one measured run ----------------------------------------------------------

int run(const Args& args) {
  const unsigned n = pool_width();
  const double cpus_before = cpus_effective(n);

  std::unique_ptr<Tracer> tracer;
  if (args.trace != 0) tracer = std::make_unique<Tracer>(std::size_t{1} << 15);

  // The run is cut into segments, each begun by a fresh timed set-up (the
  // previous one is torn down untimed). Spreading the set-ups over the run
  // exposes them to the same host phases as the reps; setup_s is their
  // median. The first round of each segment warms caches and view pools and
  // is verified but not measured.
  Rig rig;
  std::vector<double> setup_s;
  std::uint64_t digest = 0;
  bool deterministic = true;
  auto timed_set_up = [&] {
    rig = {};
    // Hand the freed inputs back to the OS, so repeated set-ups do not grow
    // the heap and peak_rss_mib stays that of one set-up.
    malloc_trim(0);
    const std::uint64_t t0 = now_ns();
    set_up(rig, args.workload, args.seed, n);
    const std::uint64_t t1 = now_ns();
    setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    if (tracer) tracer->record(SpanKind::kSetup, t0, t1);
    if (setup_s.size() == 1) digest = rig.workload->digest();
    deterministic = deterministic && rig.workload->digest() == digest;
  };
  const std::uint64_t start = now_ns();
  timed_set_up();
  const double budget_s =
      args.seconds * (args.trace != 0 ? kTracedShare : 1.0);
  const int segments = std::clamp(
      static_cast<int>(kSetupShare * budget_s / setup_s[0]), kMinSetups,
      kMaxSetups);

  std::uint64_t attempted = 0, failed = 0;
  auto checked = [&](const RepResult& r) {
    ++attempted;
    if (!r.ok) ++failed;
    return r.seconds;
  };

  std::vector<double> plain, p1, pn, p1_traced, pn_traced;
  std::uint64_t leaf_p1_ns = 0, leaf_pn_ns = 0;
  std::uint64_t pn_reps = 0, refills = 0;
  cilkm::WorkerStats stats;  // P=N counters over the measured rounds
  auto& alloc = cilkm::mem::InternalAlloc::instance();
  for (int segment = 0, round = 0;; ++round) {
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if (segment + 1 < segments &&
        elapsed >= (segment + 1) * budget_s / segments) {
      stats += rig.pn->aggregate_stats();
      timed_set_up();
      ++segment;
      round = 0;
    } else if (elapsed >= budget_s && p1.size() >= kMinRounds) {
      break;
    }
    Workload& w = *rig.workload;
    const bool measured = round > 0;
    if (round == 1) rig.pn->reset_stats();
    const double tp = checked(w.plain_rep());
    const double t1 = checked(w.pool_rep(*rig.p1, nullptr));
    const std::uint64_t refills0 = alloc.tag_stats(AllocTag::kViews).refills;
    const double tn = checked(w.pool_rep(*rig.pn, nullptr));
    std::uint64_t refills1 = alloc.tag_stats(AllocTag::kViews).refills;
    if (measured) {
      plain.push_back(tp);
      p1.push_back(t1);
      pn.push_back(tn);
      refills += refills1 - refills0;
      ++pn_reps;
    }
    if (tracer) {
      tracer->set_pool(1);
      const double t1t = checked(w.pool_rep(*rig.p1, tracer.get()));
      const std::uint64_t leaf1 = tracer->take_leaf_ns();
      tracer->set_pool(n);
      refills1 = alloc.tag_stats(AllocTag::kViews).refills;
      const double tnt = checked(w.pool_rep(*rig.pn, tracer.get()));
      const std::uint64_t leafn = tracer->take_leaf_ns();
      tracer->set_pool(0);
      if (measured) {
        p1_traced.push_back(t1t);
        pn_traced.push_back(tnt);
        leaf_p1_ns += leaf1;
        leaf_pn_ns += leafn;
        refills += alloc.tag_stats(AllocTag::kViews).refills - refills1;
        ++pn_reps;
      }
    }
  }
  stats += rig.pn->aggregate_stats();
  Workload& w = *rig.workload;
  alloc.stats_sync();
  const double cpus_after = cpus_effective(n);
  const double cpus = std::min(cpus_before, cpus_after);

  std::vector<double> slow_p1, slow_pn, speedup;
  for (std::size_t k = 0; k < p1.size(); ++k) {
    slow_p1.push_back(p1[k] / plain[k]);
    slow_pn.push_back(pn[k] / plain[k]);
    speedup.push_back(p1[k] / pn[k]);
  }
  const double items = w.items_per_rep();
  MetricList m;
  m.emplace_back("setup_s", median(setup_s));
  m.emplace_back("mitems_per_s.p1", items / quantile(p1, 0.1) / 1e6);
  m.emplace_back("mitems_per_s.pN", items / quantile(pn, 0.1) / 1e6);
  m.emplace_back("slowdown.p1", median(slow_p1));
  m.emplace_back("slowdown.pN", median(slow_pn));
  m.emplace_back("peak_rss_mib", peak_rss_mib());
  m.emplace_back("verify_fail_frac",
                 static_cast<double>(failed) / static_cast<double>(attempted));
  m.emplace_back("serial.plain_ms", quantile(plain, 0.1) * 1e3);
  m.emplace_back("host.cpus_effective", cpus);
  m.emplace_back("host.contended", cpus < kContendedShare * n ? 1.0 : 0.0);
  m.emplace_back("reps", static_cast<double>(p1.size()));

  if (tracer) {
    const double reps_n = static_cast<double>(pn_reps);
    auto per_rep = [&](StatCounter c) {
      return static_cast<double>(stats[c]) / reps_n;
    };
    auto per_rep_ms = [&](StatCounter c) { return per_rep(c) / 1e6; };
    std::uint64_t lat_ns = 0, lat_count = 0;
    for (std::size_t t = 0; t < cilkm::WorkerStats::kStealTiers; ++t) {
      lat_ns += stats.steal_lat_ns[t];
      lat_count += stats.steal_lat_count[t];
    }
    const double attempts = static_cast<double>(stats[StatCounter::kStealAttempts]);
    m.emplace_back("runtime.steals_per_rep.pN", per_rep(StatCounter::kSteals));
    m.emplace_back("runtime.steal_success.pN",
                   attempts > 0 ? static_cast<double>(stats[StatCounter::kSteals]) / attempts
                                : 0.0);
    m.emplace_back("runtime.steal_ns.pN",
                   lat_count > 0 ? static_cast<double>(lat_ns) /
                                       static_cast<double>(lat_count)
                                 : 0.0);
    m.emplace_back("runtime.parks_per_rep.pN", per_rep(StatCounter::kParks));
    m.emplace_back("runtime.speedup.pN", median(speedup));
    m.emplace_back("views.views_created_per_rep.pN",
                   per_rep(StatCounter::kViewsCreated));
    m.emplace_back("views.hypermerges_per_rep.pN",
                   per_rep(StatCounter::kHypermerges));
    m.emplace_back("views.fig8.create_ms.pN", per_rep_ms(StatCounter::kViewCreateNs));
    m.emplace_back("views.fig8.insert_ms.pN", per_rep_ms(StatCounter::kViewInsertNs));
    m.emplace_back("views.fig8.transfer_ms.pN",
                   per_rep_ms(StatCounter::kViewTransferNs));
    m.emplace_back("views.fig8.merge_ms.pN", per_rep_ms(StatCounter::kHypermergeNs));
    m.emplace_back("mem.refills_per_rep.views.pN",
                   static_cast<double>(refills) / reps_n);
    m.emplace_back("mem.peak_mib.views",
                   mib(alloc.tag_stats(AllocTag::kViews).peak_bytes));
    m.emplace_back("mem.peak_mib.spa_pages",
                   mib(alloc.tag_stats(AllocTag::kSpaPages).peak_bytes));
    m.emplace_back("mem.peak_mib.fiber_stacks",
                   mib(alloc.tag_stats(AllocTag::kFiberStacks).peak_bytes));
    m.emplace_back("mem.peak_mib.frames",
                   mib(alloc.tag_stats(AllocTag::kFrames).peak_bytes));
    m.emplace_back("pbfs.lookups_per_rep", w.bfs_lookups());
    m.emplace_back("pbfs.layers", w.bfs_layers());
    m.emplace_back("rep_ms.p1.q50", quantile(p1, 0.5) * 1e3);
    m.emplace_back("rep_ms.p1.q90", quantile(p1, 0.9) * 1e3);
    m.emplace_back("rep_ms.pN.q50", quantile(pn, 0.5) * 1e3);
    m.emplace_back("rep_ms.pN.q90", quantile(pn, 0.9) * 1e3);

    // Accounting from the traced reps. A rep span covers the whole rep
    // (reducer set-up, Scheduler::run, collapse) as timed by pool_rep.
    std::vector<double> overhead;
    double rep_pn_s = 0;
    for (std::size_t k = 0; k < p1_traced.size(); ++k) {
      overhead.push_back(p1_traced[k] / p1[k]);
      rep_pn_s += pn_traced[k];
    }
    const double leaf_pn_s = static_cast<double>(leaf_pn_ns) * 1e-9;
    const double traced_reps = static_cast<double>(pn_traced.size());
    m.emplace_back("acct.leaf_frac.pN", leaf_pn_s / (n * rep_pn_s));
    m.emplace_back("acct.other_ms.pN",
                   (n * rep_pn_s - leaf_pn_s) / traced_reps * 1e3);
    m.emplace_back("acct.leaf_inflation.pN",
                   leaf_p1_ns > 0 ? static_cast<double>(leaf_pn_ns) /
                                        static_cast<double>(leaf_p1_ns)
                                  : 0.0);
    m.emplace_back("bench.trace_overhead", median(overhead));
    for (auto& kv : measure_layers(*rig.p1, *rig.pn)) m.push_back(kv);
  }

  MetricList info;
  info.emplace_back("seed", static_cast<double>(args.seed));
  info.emplace_back("workers_n", n);
  info.emplace_back("items_per_rep", items);
  info.emplace_back("host.cpus_before", cpus_before);
  info.emplace_back("host.cpus_after", cpus_after);
  info.emplace_back("deterministic_setup", deterministic ? 1 : 0);
  if (tracer) {
    info.emplace_back("trace.spans_dropped",
                      static_cast<double>(tracer->spans_dropped()));
    if (!args.trace_out.empty() && !tracer->write_chrome(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }
  const bool correct = failed == 0 && deterministic;
  print_report(correct, attempted, failed, m, info);
  return correct ? 0 : 1;
}

// --- self-test -------------------------------------------------------------------

/// Every workload on two seeds: set-up is deterministic and seed-dependent,
/// every program matches the reference, and a wrong expected value is
/// counted as a failure by both the plain and the pool path.
int self_test(std::uint64_t seed) {
  const unsigned n = pool_width();
  Scheduler p1(1), pn(n);
  Tracer tracer(1024);
  int bad = 0;
  auto expect = [&](bool cond, const std::string& what) {
    std::printf("self-test %-48s %s\n", what.c_str(), cond ? "ok" : "FAILED");
    if (!cond) ++bad;
  };
  for (const std::string& name : workload_names()) {
    std::uint64_t digests[2] = {};
    for (int s = 0; s < 2; ++s) {
      const std::uint64_t sd = seed + static_cast<std::uint64_t>(s);
      const std::string tag = name + " seed=" + std::to_string(sd);
      auto w = make_workload(name);
      auto again = make_workload(name);
      w->setup(sd);
      again->setup(sd);
      digests[s] = w->digest();
      expect(again->digest() == digests[s], tag + ": same seed, same inputs");
      expect(w->plain_rep().ok, tag + ": plain matches");
      expect(w->pool_rep(p1, nullptr).ok, tag + ": P=1 matches");
      expect(w->pool_rep(pn, nullptr).ok, tag + ": P=N matches");
      expect(w->pool_rep(pn, &tracer).ok, tag + ": traced P=N matches");
      w->corrupt_reference();
      expect(!w->plain_rep().ok, tag + ": wrong expected value fails plain");
      expect(!w->pool_rep(pn, nullptr).ok, tag + ": wrong expected value fails P=N");
    }
    expect(digests[0] != digests[1], name + ": seeds give different inputs");
  }
  std::printf("self-test: %s\n", bad == 0 ? "PASS" : "FAIL");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  return args.self_test ? perfbench::self_test(args.seed) : perfbench::run(args);
}
