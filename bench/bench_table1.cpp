// Table I — "Summary of the various situations related to line state and
// possibility of turning off".
//
// Regenerates the paper's decision matrix from the library's
// turnoff-legality encoding, and cross-validates the multiprocessor column
// against the live Figure 2 FSM (classify_turnoff) under MESI and MOESI.

#include <iostream>
#include <string>

#include "cdsim/coherence/mesi.hpp"
#include "cdsim/coherence/turnoff_legality.hpp"
#include "cdsim/common/table.hpp"

using namespace cdsim;
using namespace cdsim::coherence;

namespace {

std::string describe(const TurnOffVerdict& v) {
  std::string s;
  if (!v.allowed && v.requires_no_pending_write) {
    return "turn off, if no pending write [blocked: pending write]";
  }
  s = "turn off";
  if (v.requires_no_pending_write) s += ", if no pending write";
  if (v.requires_writeback) s += " + write back";
  if (v.requires_upper_inval) s += " + invalidate upper level";
  return s;
}

const char* describe(TurnOffClass c) {
  switch (c) {
    case TurnOffClass::kCleanTurnOff: return "clean: invalidate L1, off";
    case TurnOffClass::kDirtyTurnOff:
      return "dirty: invalidate L1, write back, off";
    case TurnOffClass::kOwnedTurnOff:
      return "owned: recall sharers, invalidate L1, write back, off";
    case TurnOffClass::kIgnore: return "ignore";
  }
  return "?";
}

}  // namespace

int main() {
  std::cout << "Table I: turn-off legality by hierarchy and L2 line state\n"
            << "(pending-write column shows the gated case)\n\n";

  TextTable t;
  t.row().cell("hierarchy").cell("L2 line").cell("no pending write").cell(
      "pending write");
  for (const HierarchyKind h :
       {HierarchyKind::kUniprocessorWritebackL1,
        HierarchyKind::kUniprocessorWritethroughL1,
        HierarchyKind::kMultiprocessorWritethroughL1}) {
    for (const bool dirty : {false, true}) {
      const auto free_v = table1_verdict(h, dirty, /*pending=*/false);
      const auto pend_v = table1_verdict(h, dirty, /*pending=*/true);
      t.row()
          .cell(std::string(to_string(h)))
          .cell(dirty ? "Dirty" : "Clean")
          .cell(describe(free_v))
          .cell(pend_v.allowed ? describe(pend_v) : "wait");
    }
  }
  t.print(std::cout);

  // Cross-check against the FSM (multiprocessor column). MESI never enters
  // O, so only the MOESI rows include it.
  std::cout << "\nFSM cross-check (multiprocessor, WT L1):\n";
  TextTable f;
  f.row().cell("protocol").cell("state").cell("classify_turnoff").cell(
      "transient");
  for (const Protocol p : {Protocol::kMesi, Protocol::kMoesi}) {
    for (const MesiState s : {MesiState::kShared, MesiState::kExclusive,
                              MesiState::kModified, MesiState::kOwned}) {
      if (p == Protocol::kMesi && s == MesiState::kOwned) continue;
      f.row()
          .cell(std::string(to_string(p)))
          .cell(std::string(to_string(s)))
          .cell(describe(classify_turnoff(p, s)))
          .cell(std::string(to_string(turnoff_transient(s))));
    }
  }
  f.print(std::cout);
  return 0;
}
