#pragma once
// A minimal coherent cache for fabric unit tests: per-line MESI/MOESI state
// driven by the real protocol functions, installed at on_grant like the L2
// does, but with no timing, MSHRs or decay, so fabric and directory
// behaviour is isolated.

#include <map>

#include "cdsim/coherence/mesi.hpp"
#include "cdsim/noc/interconnect.hpp"

namespace cdsim::test {

class MiniCache final : public noc::Snooper {
 public:
  explicit MiniCache(coherence::Protocol p = coherence::Protocol::kMesi)
      : protocol_(p) {}

  coherence::Protocol protocol_;
  std::map<Addr, coherence::MesiState> lines;
  int snoops_seen = 0;

  noc::SnoopReply snoop(coherence::BusTxKind kind, Addr line,
                        CoreId) override {
    ++snoops_seen;
    const coherence::SnoopOutcome out =
        coherence::apply_snoop(protocol_, probe(line), kind);
    if (out.next == coherence::MesiState::kInvalid) {
      lines.erase(line);
    } else {
      lines[line] = out.next;
    }
    return {out.had_line, out.supply_data, out.memory_update};
  }

  [[nodiscard]] coherence::MesiState probe(Addr line) const override {
    const auto it = lines.find(line);
    return it == lines.end() ? coherence::MesiState::kInvalid : it->second;
  }
};

}  // namespace cdsim::test
