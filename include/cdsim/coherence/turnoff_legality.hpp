#pragma once
// Paper Table I: when may an L2 line be switched off, and at what cost?
//
// The table compares three hierarchy design points (uniprocessor with
// write-back L1, uniprocessor with write-through L1, private-L2
// multiprocessor with write-through L1) against the state of the L2 line.
// This header encodes that decision table as a function. Its users are the
// `static_assert`s in src/coherence/mesi_checks.cpp, the `bench_table1`
// harness that regenerates the table, and coherence_test, which
// cross-checks it against the Figure 2 FSM. The controllers do not call it:
// their turn-off gates are coherence::classify_turnoff and the L1
// write-buffer check in L2Cache::decay_sweep.

#include <cstdint>
#include <string_view>

#include "cdsim/coherence/mesi.hpp"

namespace cdsim::coherence {

/// The hierarchy design points of Table I.
enum class HierarchyKind : std::uint8_t {
  kUniprocessorWritebackL1,
  kUniprocessorWritethroughL1,
  kMultiprocessorWritethroughL1,  ///< The paper's (and this library's) target.
};

constexpr std::string_view to_string(HierarchyKind h) noexcept {
  switch (h) {
    case HierarchyKind::kUniprocessorWritebackL1:
      return "uniprocessor, WB L1";
    case HierarchyKind::kUniprocessorWritethroughL1:
      return "uniprocessor, WT L1";
    case HierarchyKind::kMultiprocessorWritethroughL1:
      return "multiprocessor (private L2), WT L1";
  }
  return "?";
}

/// Verdict for one Table I cell.
struct TurnOffVerdict {
  bool allowed = false;            ///< Line may be switched off now.
  bool requires_no_pending_write = false;  ///< Gate on the L1 write buffer.
  bool requires_writeback = false;         ///< Dirty data must reach memory.
  bool requires_upper_inval = false;       ///< L1 copy must be invalidated.
};

/// Evaluates Table I for a line that is `dirty` or clean under hierarchy
/// `h`, assuming `pending_write` reflects the L1 write buffer.
constexpr TurnOffVerdict table1_verdict(HierarchyKind h, bool dirty,
                                        bool pending_write) noexcept {
  TurnOffVerdict v;
  switch (h) {
    case HierarchyKind::kUniprocessorWritebackL1:
      if (!dirty) {
        v.allowed = true;  // "Turn off"
      } else {
        v.allowed = true;  // "Write back and turn off"
        v.requires_writeback = true;
      }
      break;
    case HierarchyKind::kUniprocessorWritethroughL1:
      v.requires_no_pending_write = true;
      v.allowed = !pending_write;
      if (dirty) v.requires_writeback = true;
      break;
    case HierarchyKind::kMultiprocessorWritethroughL1:
      if (!dirty) {
        v.requires_no_pending_write = true;
        v.allowed = !pending_write;
      } else {
        // "Turn off, but invalidate the upper level" — inclusion forces the
        // L1 copy out, and the only up-to-date data must reach memory.
        v.allowed = true;
        v.requires_upper_inval = true;
        v.requires_writeback = true;
      }
      break;
  }
  return v;
}

}  // namespace cdsim::coherence
