// The runtime/library ABI for reducer hyperobjects, mirroring the monoid
// interface of the Cilk Plus reducer API (paper Section 3): the runtime
// invokes REDUCE, plus a collapse-into-leftmost operation used at
// quiescence. Identity views are created by the reducer itself on a lookup
// miss, so the runtime never needs an IDENTITY callback.
//
// Each reducer type has ONE static constexpr ViewOps table, and every
// reducer object starts with a ReducerBase that points at it. SPA-map slots,
// flat slots and hypermap entries therefore store only (view, reducer): the
// reducer pointer is the hypermap key, and it reaches the monoid through
// its table without a per-object copy of the callbacks.
#pragma once

namespace cilkm {

struct ReducerBase;

struct ViewOps {
  /// left = left ⊗ right; destroys the right view.
  void (*reduce)(ReducerBase* reducer, void* left_view, void* right_view);
  /// leftmost = leftmost ⊗ view; destroys the view. Called by the worker
  /// that completes the root task, and by the reducer destructor.
  void (*collapse)(ReducerBase* reducer, void* view);
};

/// The base of every reducer object: a pointer to its type's callback
/// table.
struct ReducerBase {
  const ViewOps* ops;

  void reduce(void* left_view, void* right_view) {
    ops->reduce(this, left_view, right_view);
  }
  void collapse(void* view) { ops->collapse(this, view); }
};

}  // namespace cilkm
