// Test-and-test-and-set spinlock. Used for the Figure 1 locking comparison
// and for the fiber-pool and allocator shard locks.
#pragma once

#include <atomic>

namespace cilkm {

/// TTAS spinlock with exponential-free polite spinning (pause on x86).
/// Satisfies Lockable, so it composes with std::lock_guard.
class SpinLock {
 public:
  void lock() noexcept {
    while (true) {
      if (!flag_.exchange(true, std::memory_order_acquire)) return;
      while (flag_.load(std::memory_order_relaxed)) cpu_relax();
    }
  }

  bool try_lock() noexcept {
    return !flag_.load(std::memory_order_relaxed) &&
           !flag_.exchange(true, std::memory_order_acquire);
  }

  void unlock() noexcept { flag_.store(false, std::memory_order_release); }

  static void cpu_relax() noexcept {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
  }

 private:
  std::atomic<bool> flag_{false};
};

}  // namespace cilkm
