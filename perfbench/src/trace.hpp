// Span recorder of the traced run. Spans come only from the benchmark's own
// code, around its calls into the library: setup, each Scheduler::run (rep),
// each leaf chunk or cutoff-depth subtree (leaf, tagged with the worker that
// began it), reducer collapse, and verification. Spans stay in memory, one
// lane per thread so workers never share a buffer, and are written as
// Chrome trace-event JSON (loadable by Perfetto) when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/worker.hpp"
#include "util/cache.hpp"
#include "util/timing.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t { kSetup, kRep, kLeaf, kCollapse, kVerify };

class Tracer {
 public:
  /// Lane 0 is the driving (main) thread; worker w of the current pool
  /// records into lane w + 1.
  static constexpr unsigned kLanes = 65;

  /// Each lane stores at most `max_spans_per_lane` spans; later spans still
  /// count towards leaf_ns() but are not written to the trace file.
  explicit Tracer(std::size_t max_spans_per_lane);

  /// Pool the following spans belong to (its width becomes the trace pid).
  /// Set by the driving thread between runs only.
  void set_pool(unsigned workers) noexcept { pool_ = workers; }

  /// Record a span on the driving thread.
  void record(SpanKind kind, std::uint64_t start_ns, std::uint64_t end_ns);

  /// Record a leaf span begun on `worker` (call from that worker).
  void record_leaf(unsigned worker, std::uint64_t start_ns,
                   std::uint64_t end_ns);

  /// Sum of leaf-span time recorded since the last call, over all lanes.
  /// Call only while no pool is running.
  std::uint64_t take_leaf_ns() noexcept;

  std::uint64_t spans_dropped() const noexcept;

  /// Write every stored span as Chrome trace-event JSON. Returns false when
  /// the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint32_t pool;
    SpanKind kind;
  };
  struct alignas(cilkm::kCacheLineSize) Lane {
    std::vector<Span> spans;
    std::uint64_t leaf_ns = 0;
    std::uint64_t dropped = 0;
  };

  void push(Lane& lane, SpanKind kind, std::uint64_t start_ns,
            std::uint64_t end_ns);

  std::size_t max_spans_;
  unsigned pool_ = 0;
  std::uint64_t origin_ns_;
  std::vector<Lane> lanes_;
};

/// Times a leaf chunk when `tracer` is non-null; otherwise does nothing.
/// The benchmark instantiates its parallel code once traced and once
/// untraced, so the untraced reps never construct one of these.
class LeafSpan {
 public:
  explicit LeafSpan(Tracer* tracer) noexcept
      : tracer_(tracer),
        worker_(cilkm::rt::Worker::current()->id()),
        start_(cilkm::now_ns()) {}
  ~LeafSpan() { tracer_->record_leaf(worker_, start_, cilkm::now_ns()); }

  LeafSpan(const LeafSpan&) = delete;
  LeafSpan& operator=(const LeafSpan&) = delete;

 private:
  Tracer* tracer_;
  unsigned worker_;
  std::uint64_t start_;
};

/// Times a span of the driving thread when `tracer` is non-null.
class MainSpan {
 public:
  MainSpan(Tracer* tracer, SpanKind kind) noexcept
      : tracer_(tracer), kind_(kind),
        start_(tracer != nullptr ? cilkm::now_ns() : 0) {}
  ~MainSpan() {
    if (tracer_ != nullptr) tracer_->record(kind_, start_, cilkm::now_ns());
  }

  MainSpan(const MainSpan&) = delete;
  MainSpan& operator=(const MainSpan&) = delete;

 private:
  Tracer* tracer_;
  SpanKind kind_;
  std::uint64_t start_;
};

}  // namespace perfbench
