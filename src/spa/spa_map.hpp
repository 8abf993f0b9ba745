// The sparse-accumulator (SPA) map of paper Section 6, bit-for-bit at the
// sizes the paper specifies: each map is one 4096-byte page holding
//   - a view array of 248 elements, each a pair of 8-byte pointers
//     (local view, owning reducer — whose ReducerBase reaches the monoid),
//   - a log array of 120 one-byte indices of valid view-array elements,
//   - the 4-byte number of valid elements, and
//   - the 4-byte number of logs.
// Empty elements are a pair of null pointers (the paper's invariant). Once
// the number of insertions exceeds the log capacity the map stops tracking
// logs (kLogsOverflowed) and sequencing walks the whole view array — the
// paper's 2:1 amortisation rule.
#pragma once

#include <cstdint>

#include "core/view_ops.hpp"
#include "util/assert.hpp"

namespace cilkm::spa {

inline constexpr std::size_t kPageBytes = 4096;
inline constexpr std::size_t kViewsPerPage = 248;
inline constexpr std::size_t kLogCapacity = 120;
inline constexpr std::uint32_t kLogsOverflowed = 0xffffffffu;

/// One element of the view array: 16 bytes, recycled as a unit.
struct ViewSlot {
  void* view;             // null when the slot is empty or unclaimed
  ReducerBase* reducer;   // null iff view is null

  bool empty() const noexcept { return view == nullptr; }
};
static_assert(sizeof(ViewSlot) == 16);

struct SpaPage {
  ViewSlot views[kViewsPerPage];
  std::uint8_t log[kLogCapacity];
  std::uint32_t num_valid;
  std::uint32_t num_logs;

  void clear() noexcept {
    for (auto& slot : views) slot = ViewSlot{nullptr, nullptr};
    num_valid = 0;
    num_logs = 0;
  }

  bool all_empty() const noexcept { return num_valid == 0; }

  /// Record that slot `idx` just transitioned empty -> valid.
  void note_insert(std::uint32_t idx) noexcept {
    ++num_valid;
    if (num_logs == kLogsOverflowed) return;
    if (num_logs >= kLogCapacity) {
      num_logs = kLogsOverflowed;  // stop tracking; sequence the whole array
      return;
    }
    log[num_logs++] = static_cast<std::uint8_t>(idx);
  }

  /// Visit every valid slot: via the log when tracked, otherwise a full
  /// walk of the view array (the amortised overflow mode). The visitor may
  /// zero slots; duplicates in the log are skipped because a zeroed slot is
  /// no longer valid.
  template <typename Visitor>
  void for_each_valid(Visitor&& visit) {
    if (num_logs != kLogsOverflowed) {
      for (std::uint32_t i = 0; i < num_logs; ++i) {
        const std::uint32_t idx = log[i];
        if (!views[idx].empty()) visit(idx, views[idx]);
      }
    } else {
      for (std::uint32_t idx = 0; idx < kViewsPerPage; ++idx) {
        if (!views[idx].empty()) visit(idx, views[idx]);
      }
    }
  }
};
static_assert(sizeof(SpaPage) == kPageBytes,
              "SPA map must occupy exactly one 4096-byte page");

/// Byte offset of slot (page, idx) in a worker region — the reducer's
/// tlmm_addr. The same offset resolves to the same logical slot in every
/// worker's private region (the paper's "same virtual address" property).
constexpr std::uint64_t slot_offset(std::uint32_t page, std::uint32_t idx) noexcept {
  return static_cast<std::uint64_t>(page) * kPageBytes +
         static_cast<std::uint64_t>(idx) * sizeof(ViewSlot);
}

constexpr std::uint32_t offset_page(std::uint64_t offset) noexcept {
  return static_cast<std::uint32_t>(offset / kPageBytes);
}
constexpr std::uint32_t offset_index(std::uint64_t offset) noexcept {
  return static_cast<std::uint32_t>((offset % kPageBytes) / sizeof(ViewSlot));
}

/// One public SPA map produced by view transferal: the page of transferred
/// view pointers plus the region page index it was copied from (which fixes
/// the global slot offsets of its entries).
struct SpaDepositEntry {
  std::uint32_t page_index;
  SpaPage* page;
};

}  // namespace cilkm::spa
