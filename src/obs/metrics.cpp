#include "obs/metrics.hpp"

#include "runtime/scheduler.hpp"
#include "runtime/trace.hpp"

namespace cilkm::obs {

MetricsSnapshot capture(rt::Scheduler* sched) {
  MetricsSnapshot snap;
  if (sched != nullptr) {
    snap.workers = sched->num_workers();
    snap.per_worker.reserve(snap.workers);
    for (unsigned i = 0; i < snap.workers; ++i) {
      snap.per_worker.push_back(sched->worker(i).stats());
      snap.aggregate += snap.per_worker.back();
    }
  }
  auto& alloc = mem::InternalAlloc::instance();
  alloc.stats_sync();  // fold this thread's in-magazine deltas in
  for (std::size_t t = 0; t < mem::kNumTags; ++t) {
    snap.mem_tags[t] = alloc.tag_stats(static_cast<mem::AllocTag>(t));
  }
  snap.trace_dropped = rt::Tracer::instance().dropped();
  for (unsigned s = 0; s < chaos::kNumSites; ++s) {
    snap.chaos_sites[s] = chaos::site_stats(static_cast<chaos::Site>(s));
  }
  return snap;
}

std::vector<Metric> MetricsSnapshot::flatten() const {
  std::vector<Metric> out;
  out.push_back({"workers", static_cast<double>(workers)});
  for (unsigned c = 0; c < static_cast<unsigned>(StatCounter::kCount); ++c) {
    const auto counter = static_cast<StatCounter>(c);
    out.push_back({std::string(to_string(counter)),
                   static_cast<double>(aggregate[counter])});
  }
  out.push_back({"steal_ns", static_cast<double>(aggregate.steal_lat_ns[0])});
  out.push_back(
      {"steal_count", static_cast<double>(aggregate.steal_lat_count[0])});
  for (std::size_t b = 0; b < WorkerStats::kStealLatBuckets; ++b) {
    out.push_back({"steal_hist_b" + std::to_string(b),
                   static_cast<double>(aggregate.steal_lat_hist[b])});
  }
  for (std::size_t t = 0; t < mem::kNumTags; ++t) {
    const mem::TagStats& ts = mem_tags[t];
    const std::string prefix =
        std::string("mem.") + mem::to_string(static_cast<mem::AllocTag>(t)) +
        ".";
    out.push_back({prefix + "live_blocks", static_cast<double>(ts.live_blocks)});
    out.push_back({prefix + "peak_blocks", static_cast<double>(ts.peak_blocks)});
    out.push_back({prefix + "live_bytes", static_cast<double>(ts.live_bytes)});
    out.push_back({prefix + "peak_bytes", static_cast<double>(ts.peak_bytes)});
    out.push_back({prefix + "allocs", static_cast<double>(ts.allocs)});
    out.push_back({prefix + "refills", static_cast<double>(ts.refills)});
    out.push_back({prefix + "flushes", static_cast<double>(ts.flushes)});
    out.push_back(
        {prefix + "carved_blocks", static_cast<double>(ts.carved_blocks)});
  }
  for (unsigned s = 0; s < chaos::kNumSites; ++s) {
    const std::string prefix =
        std::string("chaos.") + chaos::to_string(static_cast<chaos::Site>(s)) +
        ".";
    out.push_back(
        {prefix + "consults", static_cast<double>(chaos_sites[s].consults)});
    out.push_back(
        {prefix + "injected", static_cast<double>(chaos_sites[s].injected)});
  }
  out.push_back({"trace_dropped_records", static_cast<double>(trace_dropped)});
  return out;
}

}  // namespace cilkm::obs
