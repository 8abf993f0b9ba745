// Spawn pedigrees (Leiserson, Schardl & Sukha, SPAA'12 "DPRNG"): every
// strand of the fork-join computation is named by the path of spawn ranks
// from the root — a sequence fixed by the SERIAL elision of the program,
// identical under every steal schedule and worker count. fork2join
// maintains the ranks (api.hpp), promoted frames carry them through steals
// (frame.hpp / Worker::run_branch), and util/dprng.hpp hashes them so any
// random draw inside a parallel region is a pure function of (seed,
// pedigree).
//
// Representation: the rank prefix is a linked chain of stack-allocated
// nodes, one per live fork2join activation (the node lives in the spawning
// call's stack frame, exactly as deep as the spawn tree). A chain node is
// immutable once published; only the leaf rank — the current strand's own
// counter — mutates, and it lives in thread-local state that every resume
// point (steal, joining resume) re-establishes from the frame.
//
// Rank discipline, mirroring cilk_spawn/cilk_sync:
//   - fork2join(a, b) at rank r runs `a` as the spawned child with pedigree
//     prefix+[r] (child leaf rank restarts at 0), runs `b` as the
//     continuation at rank r+1, and leaves the join at rank r+2 (the sync
//     bump), so strands before, beside, and after the join never alias.
//   - A DPRNG draw consumes the current leaf rank and bumps it, so
//     consecutive draws on one strand are distinct and a draw's value
//     depends only on the serial position of the draw.
#pragma once

#include <cstdint>

namespace cilkm::rt {

/// One rank of the pedigree prefix, linked toward the root. Lives on the
/// spawning fork2join's stack; valid for exactly as long as that call is
/// live, which covers every strand (and thief) below it.
struct PedigreeNode {
  std::uint64_t rank;
  const PedigreeNode* parent;
};

/// The calling strand's pedigree: the immutable prefix chain plus the
/// mutable leaf rank. Thread-local; re-seated from the SpawnFrame at every
/// point where a strand (re)starts on an OS thread.
struct PedigreeState {
  const PedigreeNode* parent = nullptr;
  std::uint64_t rank = 0;
};

/// The current strand's pedigree state. Valid on any thread: workers are
/// re-seated at strand boundaries, and a scheduler-less thread (serial
/// elision) just advances its own thread-local copy through the identical
/// rank discipline.
///
/// Deliberately OUT OF LINE (pedigree.cpp, noinline): fibers migrate
/// between OS threads at joins, and an inlined accessor lets the compiler
/// CSE the thread-local's materialized address across the migration point —
/// the resumed strand would then write the OLD thread's slot. The opaque
/// call forces a fresh %fs-relative address computation on the thread that
/// is actually running the strand. The returned reference stays valid only
/// until the next potential migration (any fork2join / scheduler call):
/// re-fetch after those, never cache across them.
PedigreeState& current_pedigree() noexcept;

/// Number of ranks in the pedigree (prefix length + the leaf). Linear walk;
/// meant for tests and diagnostics, not hot paths.
inline unsigned pedigree_depth() noexcept {
  unsigned depth = 1;
  for (const PedigreeNode* n = current_pedigree().parent; n != nullptr;
       n = n->parent) {
    ++depth;
  }
  return depth;
}

/// Scoped reset to the root pedigree, restoring the caller's state on exit.
/// Serial reference computations wrap themselves in one of these so their
/// draws replay the root-rooted pedigrees a scheduler run produces.
class PedigreeScope {
 public:
  PedigreeScope() noexcept : saved_(current_pedigree()) {
    current_pedigree() = {};
  }
  ~PedigreeScope() { current_pedigree() = saved_; }

  PedigreeScope(const PedigreeScope&) = delete;
  PedigreeScope& operator=(const PedigreeScope&) = delete;

 private:
  PedigreeState saved_;
};

}  // namespace cilkm::rt
