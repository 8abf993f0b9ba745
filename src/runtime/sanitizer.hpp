// Sanitizer fiber annotations for the hand-rolled context switches.
//
// ThreadSanitizer tracks one shadow stack + happens-before clock per OS
// thread; a raw cilkm_ctx_switch teleports execution onto a different stack
// without telling TSan, which corrupts its shadow state and yields bogus
// reports (or crashes). The fiber API (__tsan_create_fiber /
// __tsan_switch_to_fiber) gives each fiber its own TSan state and makes
// every switch visible.
//
// AddressSanitizer likewise assumes one stack per thread: unwinding a throw
// (__asan_handle_no_return) or a fake-stack lookup on an unannounced fiber
// stack reads the wrong bounds. __sanitizer_start_switch_fiber /
// __sanitizer_finish_switch_fiber tell it which stack execution moves to.
//
// Each pooled Fiber owns one TSan fiber for the life of its stack, and each
// worker records its scheduler stack's TSan state and bounds on entry, so
// the runtime's single switch site (Worker::switch_stack) can announce every
// destination. All hooks compile to nothing outside -fsanitize=thread /
// -fsanitize=address builds (-DCILKM_SANITIZE=thread or address).
#pragma once

#include <cstddef>

#if defined(__SANITIZE_THREAD__)
#define CILKM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CILKM_TSAN 1
#endif
#endif

#if defined(__SANITIZE_ADDRESS__)
#define CILKM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CILKM_ASAN 1
#endif
#endif

#ifdef CILKM_TSAN
#include <sanitizer/tsan_interface.h>
#endif

#ifdef CILKM_ASAN
#include <pthread.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace cilkm::rt {

namespace tsan {

#ifdef CILKM_TSAN

inline void* create_fiber() { return __tsan_create_fiber(0); }
inline void destroy_fiber(void* fiber) { __tsan_destroy_fiber(fiber); }
/// The calling OS thread's own TSan state (a thread is also a fiber).
inline void* current_fiber() { return __tsan_get_current_fiber(); }
/// Must be called immediately before the actual stack switch. Synchronizing
/// (flag 0): the switch edge establishes happens-before, exactly like the
/// runtime's own join protocol does via the frame's arrival counter.
inline void switch_to(void* fiber) { __tsan_switch_to_fiber(fiber, 0); }

#else

inline void* create_fiber() { return nullptr; }
inline void destroy_fiber(void*) {}
inline void* current_fiber() { return nullptr; }
inline void switch_to(void*) {}

#endif

}  // namespace tsan

namespace asan {

/// The extent of one stack: [bottom, bottom + size).
struct StackBounds {
  const void* bottom = nullptr;
  std::size_t size = 0;
};

#ifdef CILKM_ASAN

/// The calling OS thread's own stack.
inline StackBounds thread_stack() {
  StackBounds b;
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = nullptr;
    pthread_attr_getstack(&attr, &addr, &b.size);
    b.bottom = addr;
    pthread_attr_destroy(&attr);
  }
  return b;
}
/// Immediately before a switch onto `to`. `fake_stack` saves the departing
/// context's fake stack; nullptr when that context never resumes (a
/// finished fiber), which releases it.
inline void start_switch(void** fake_stack, StackBounds to) {
  __sanitizer_start_switch_fiber(fake_stack, to.bottom, to.size);
}
/// First thing after landing on a stack: `fake_stack` is what this
/// context's start_switch saved (nullptr on a fresh fiber's first entry).
inline void finish_switch(void* fake_stack) {
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
}

#else

inline StackBounds thread_stack() { return {}; }
inline void start_switch(void**, StackBounds) {}
inline void finish_switch(void*) {}

#endif

}  // namespace asan

}  // namespace cilkm::rt
