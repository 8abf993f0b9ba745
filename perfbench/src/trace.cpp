#include "trace.hpp"

#include <cstdio>

namespace perfbench {

namespace {

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSetup: return "setup";
    case SpanKind::kRep: return "rep";
    case SpanKind::kLeaf: return "leaf";
    case SpanKind::kCollapse: return "collapse";
    case SpanKind::kVerify: return "verify";
  }
  return "?";
}

}  // namespace

Tracer::Tracer(std::size_t max_spans_per_lane)
    : max_spans_(max_spans_per_lane), origin_ns_(cilkm::now_ns()),
      lanes_(kLanes) {
  for (Lane& lane : lanes_) lane.spans.reserve(max_spans_per_lane);
}

void Tracer::push(Lane& lane, SpanKind kind, std::uint64_t start_ns,
                  std::uint64_t end_ns) {
  if (lane.spans.size() < max_spans_) {
    lane.spans.push_back({start_ns, end_ns, pool_, kind});
  } else {
    ++lane.dropped;
  }
}

void Tracer::record(SpanKind kind, std::uint64_t start_ns,
                    std::uint64_t end_ns) {
  push(lanes_[0], kind, start_ns, end_ns);
}

void Tracer::record_leaf(unsigned worker, std::uint64_t start_ns,
                         std::uint64_t end_ns) {
  Lane& lane = lanes_[worker + 1 < kLanes ? worker + 1 : kLanes - 1];
  lane.leaf_ns += end_ns - start_ns;
  push(lane, SpanKind::kLeaf, start_ns, end_ns);
}

std::uint64_t Tracer::take_leaf_ns() noexcept {
  std::uint64_t sum = 0;
  for (Lane& lane : lanes_) {
    sum += lane.leaf_ns;
    lane.leaf_ns = 0;
  }
  return sum;
}

std::uint64_t Tracer::spans_dropped() const noexcept {
  std::uint64_t sum = 0;
  for (const Lane& lane : lanes_) sum += lane.dropped;
  return sum;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  // Name each (pool, lane) track once: pid = pool width, tid = lane.
  for (unsigned l = 0; l < lanes_.size(); ++l) {
    std::vector<std::uint32_t> pools;
    for (const Span& s : lanes_[l].spans) {
      bool seen = false;
      for (std::uint32_t p : pools) seen = seen || p == s.pool;
      if (!seen) pools.push_back(s.pool);
    }
    for (std::uint32_t p : pools) {
      std::fprintf(f,
                   "%s{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": %u, "
                   "\"tid\": %u, \"args\": {\"name\": \"%s%u\"}}",
                   first ? "" : ",\n", p, l, l == 0 ? "main" : "worker ",
                   l == 0 ? 0u : l - 1);
      first = false;
    }
  }
  for (unsigned l = 0; l < lanes_.size(); ++l) {
    for (const Span& s : lanes_[l].spans) {
      std::fprintf(f,
                   "%s{\"ph\": \"X\", \"name\": \"%s\", \"pid\": %u, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f}",
                   first ? "" : ",\n", span_name(s.kind), s.pool, l,
                   static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
