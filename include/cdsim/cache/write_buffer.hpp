#pragma once
// Store write buffer for a write-through L1.
//
// Stores retire into this buffer and drain to the L2 in FIFO order,
// coalescing consecutive stores to the same line. Several drains may be in
// flight at once (store-miss MLP); a slot is released only when its write
// reached the L2. The buffer is also the "pending write" oracle the
// turn-off mechanism must consult (paper Table I: a clean L2 line may be
// turned off only "if no pending write") — a write still counts as pending
// while its drain is in flight.

#include <cstdint>
#include <optional>
#include <vector>

#include "cdsim/common/assert.hpp"
#include "cdsim/common/types.hpp"

namespace cdsim::cache {

/// FIFO coalescing write buffer, line-granular, with multi-drain support.
class WriteBuffer {
 public:
  explicit WriteBuffer(std::uint32_t capacity) : capacity_(capacity) {
    CDSIM_ASSERT(capacity >= 1);
    // Occupancy never exceeds capacity_, so this one reservation is the
    // buffer's only allocation — the push/drain hot path stays heap-free.
    fifo_.reserve(capacity_);
  }

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(fifo_.size());
  }
  [[nodiscard]] bool full() const noexcept { return size() >= capacity_; }
  [[nodiscard]] bool empty() const noexcept { return fifo_.empty(); }

  /// True when a write to `line_addr` has not reached the L2 yet —
  /// the Table I "pending write" condition. Draining slots still count.
  [[nodiscard]] bool pending_to(Addr line_addr) const {
    for (const Slot& s : fifo_) {
      if (s.line_addr == line_addr) return true;
    }
    return false;
  }

  /// Enqueues a store to `line_addr`. Coalesces into the newest slot if it
  /// targets the same line and its drain has not started (once draining,
  /// the write has left for the L2 and later stores need a fresh slot).
  /// Returns false when the buffer is full and cannot coalesce — the
  /// caller must stall the store.
  bool push(Addr line_addr, Cycle now) {
    if (!fifo_.empty() && fifo_.back().line_addr == line_addr &&
        !fifo_.back().draining) {
      ++fifo_.back().coalesced;
      ++coalesced_total_;
      return true;
    }
    if (full()) return false;
    fifo_.push_back(Slot{line_addr, now, 0, false});
    return true;
  }

  /// Claims the oldest slot whose drain has not started, marking it
  /// draining, and returns its line. Empty when nothing is drainable.
  std::optional<Addr> drain_next() {
    for (Slot& s : fifo_) {
      if (!s.draining) {
        s.draining = true;
        return s.line_addr;
      }
    }
    return std::nullopt;
  }

  /// Releases the (oldest) draining slot for `line_addr` after its write
  /// reached the L2.
  void drain_done(Addr line_addr) {
    for (auto it = fifo_.begin(); it != fifo_.end(); ++it) {
      if (it->draining && it->line_addr == line_addr) {
        fifo_.erase(it);
        return;
      }
    }
    CDSIM_UNREACHABLE("drain_done without matching draining slot");
  }

  /// Number of drains currently claimed but not completed.
  [[nodiscard]] std::uint32_t draining() const noexcept {
    std::uint32_t n = 0;
    for (const Slot& s : fifo_) n += s.draining ? 1 : 0;
    return n;
  }

  [[nodiscard]] std::uint64_t total_coalesced() const noexcept {
    return coalesced_total_;
  }

 private:
  struct Slot {
    Addr line_addr = 0;
    Cycle enqueued_at = 0;
    std::uint32_t coalesced = 0;  ///< Extra stores folded into this slot.
    bool draining = false;            ///< Write is on its way to the L2.
  };

  std::uint32_t capacity_ = 0;
  /// FIFO by construction (erase preserves order); a vector because the
  /// occupancy is bounded by capacity_ — see the constructor reservation.
  std::vector<Slot> fifo_;
  std::uint64_t coalesced_total_ = 0;
};

}  // namespace cdsim::cache
