// Work-stealing deque of continuation descriptors (SpawnFrame*), following
// the Chase–Lev design with the memory orderings of Lê/Pop/Cohen/Nardelli
// (PPoPP'13). The owner pushes and takes at the bottom; thieves steal from
// the top — so the oldest (shallowest) continuation is stolen first, exactly
// the Cilk THE-protocol discipline the paper's Section 3 describes.
//
// One extension beyond the textbook deque:
//
//   take_if(expected) — the owner's fork-join fast path pops the bottom
//   entry only if it is its own descriptor. If the bottom holds an *older*
//   descriptor the owner's frame was stolen, and the older entry must stay
//   in place for its own owner/thieves.
//
// A theft is one steal() of the victim's oldest frame, as in Cilk-5 and
// Cilk Plus: the top_ CAS alone arbitrates the one claimed slot against
// the owner, so there is no thief lock and no exception marker. A worker's
// deque therefore holds only its own unstolen spawn frames.
//
// An attached deque is also a wake gate: push() wakes up to
// ParkingLot::kWakeBatch of the most recently parked workers, wherever
// they run (see parking.hpp).
//
// Layout discipline (cf. the OpenCilk __cilkrts_worker hot/cold split): the
// owner-hot line holds bottom_ plus the wake-gate fields read on every
// push; the thief-hot line holds top_; the buffer starts on its own line.
// layout_static_checks() pins this with static_asserts so a refactor
// cannot silently re-merge the lines.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "runtime/parking.hpp"
#include "util/assert.hpp"
#include "util/cache.hpp"

namespace cilkm::rt {

struct SpawnFrame;

class Deque {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 16;
  static constexpr std::size_t kMask = kCapacity - 1;

  /// Wire the owning scheduler's parking lot into this deque: push() then
  /// wakes parked workers after publishing the new bottom entry.
  /// `wake_counter` / `batch_counter` are the owner's kWakes / kBatchWakes
  /// stat slots. Unattached deques (unit tests, standalone use) pay nothing
  /// beyond a null check.
  void attach_wake_gate(ParkingLot* lot, std::uint64_t* wake_counter,
                        std::uint64_t* batch_counter) noexcept {
    lot_ = lot;
    wake_counter_ = wake_counter;
    batch_counter_ = batch_counter;
  }

  /// Owner only. Returns false — deque untouched, no wake fired — when the
  /// deque is full (spawn depth beyond kCapacity); fork2join then degrades
  /// to executing the child serially in place instead of aborting, so one
  /// pathological spawn burst cannot kill the process.
  bool push(SpawnFrame* frame) noexcept {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    if (b - t >= static_cast<std::int64_t>(kCapacity)) return false;
    buffer_[static_cast<std::size_t>(b) & kMask].store(
        frame, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_release);
    if (lot_ != nullptr) {
      // Batched wake-up: one isolated push wakes at most one sleeper (the
      // 1:1 discipline), but when pushes outrun thieves — b+1-t stealable
      // entries are outstanding, a fan-out burst — wake up to
      // ParkingLot::kWakeBatch sleepers at once to cut the serial wake
      // latency chain. wake() internally fences so the bottom store above
      // is ordered before the sleeper check (see parking.hpp).
      const auto want = static_cast<unsigned>(std::clamp<std::int64_t>(
          b + 1 - t, 1, ParkingLot::kWakeBatch));
      const std::uint32_t woken = lot_->wake(want);
      *wake_counter_ += woken;
      if (woken > 1) *batch_counter_ += woken - 1;
    }
    return true;
  }

  /// Owner only: push one frame without firing the wake gate (the frame was
  /// already published once; re-announcing it would wake a sleeper for no
  /// new work). take_attempt's restore path.
  void push_quiet(SpawnFrame* frame) noexcept {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    buffer_[static_cast<std::size_t>(b) & kMask].store(
        frame, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only: pop the bottom entry unconditionally.
  SpawnFrame* take_any() noexcept { return take_attempt(nullptr); }

  /// Owner only: pop the bottom entry only if it equals `expected` (fork-join
  /// fast path). Returns nullptr when the deque is empty, when the bottom
  /// entry is not `expected` (i.e., `expected` was stolen), or when a thief
  /// wins the race for the last entry.
  SpawnFrame* take_if(SpawnFrame* expected) noexcept {
    CILKM_DCHECK(expected != nullptr, "take_if requires a frame");
    return take_attempt(expected);
  }

  /// Thieves: steal the top (oldest) entry. Returns nullptr if empty or if
  /// the CAS race is lost (caller just retries elsewhere). Lock-free; claims
  /// only index t, so the CAS alone arbitrates against the owner.
  SpawnFrame* steal() noexcept {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return nullptr;
    SpawnFrame* frame =
        buffer_[static_cast<std::size_t>(t) & kMask].load(std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;  // lost the race
    }
    return frame;
  }

  bool empty() const noexcept {
    return top_.load(std::memory_order_acquire) >=
           bottom_.load(std::memory_order_acquire);
  }

 private:
  /// The owner pop (Chase–Lev take): `expected == nullptr` pops
  /// unconditionally.
  SpawnFrame* take_attempt(SpawnFrame* expected) noexcept {
    std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t > b) {
      // Deque was empty.
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }
    SpawnFrame* frame =
        buffer_[static_cast<std::size_t>(b) & kMask].load(std::memory_order_relaxed);
    if (t == b) {
      // Single entry: race a potential thief for it via the top CAS.
      const bool won = top_.compare_exchange_strong(
          t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
      bottom_.store(b + 1, std::memory_order_relaxed);
      if (!won) return nullptr;
      if (expected != nullptr && frame != expected) {
        // We consumed an older entry that must remain available: the deque
        // is now empty (we hold its sole entry), so re-pushing preserves
        // order. Quiet push: this frame was already announced to sleepers
        // when it was first pushed — no new work appeared here.
        push_quiet(frame);
        return nullptr;
      }
      return frame;
    }
    // More than one entry: the bottom entry is ours without a race.
    if (expected != nullptr && frame != expected) {
      bottom_.store(b + 1, std::memory_order_relaxed);  // leave it in place
      return nullptr;
    }
    return frame;
  }

  /// Compile-time pins for the hot/cold split (documented in README's
  /// "Steal path" table). Never called; the static_asserts fire on any
  /// layout regression.
  static void layout_static_checks() noexcept {
    // Owner-hot line: bottom_ plus every field push() reads.
    static_assert(offsetof(Deque, lot_) / kCacheLineSize ==
                      offsetof(Deque, bottom_) / kCacheLineSize,
                  "wake-gate fields must share the owner-hot line");
    static_assert(offsetof(Deque, batch_counter_) / kCacheLineSize ==
                      offsetof(Deque, bottom_) / kCacheLineSize,
                  "wake-gate fields must share the owner-hot line");
    // The two hot lines must not be the same line, and the buffer starts
    // on its own.
    static_assert(offsetof(Deque, top_) / kCacheLineSize !=
                      offsetof(Deque, bottom_) / kCacheLineSize,
                  "owner-hot and thief-hot fields on one line");
    static_assert(offsetof(Deque, buffer_) % kCacheLineSize == 0,
                  "buffer must start on a cache-line boundary");
    static_assert(offsetof(Deque, buffer_) / kCacheLineSize !=
                      offsetof(Deque, top_) / kCacheLineSize,
                  "buffer head must not share the thief-hot line");
  }

  // --- owner-hot line: bottom_ + the wake gate push() reads every time ---
  alignas(kCacheLineSize) std::atomic<std::int64_t> bottom_{0};
  ParkingLot* lot_ = nullptr;           // owner-written at attach, then const
  std::uint64_t* wake_counter_ = nullptr;
  std::uint64_t* batch_counter_ = nullptr;

  // --- thief-hot line: top_, written by thieves, read once per owner pop ---
  alignas(kCacheLineSize) std::atomic<std::int64_t> top_{0};

  alignas(kCacheLineSize) std::atomic<SpawnFrame*> buffer_[kCapacity]{};
};

}  // namespace cilkm::rt
