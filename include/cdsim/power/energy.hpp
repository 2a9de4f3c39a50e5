#pragma once
// System energy accounting: per-component ledger plus the calibrated
// per-event/per-cycle energy constants.
//
// Energies are in an arbitrary consistent unit ("eu"; think picojoules).
// Only *relative* energy matters for the paper's figures — every result is
// normalized to the always-on baseline — so the constants below are
// calibrated to reproduce the published component breakdown rather than an
// absolute wattage:
//
//   * At 4 MB total L2 the L2 leakage is ~1/3 of baseline system energy
//     (the paper's 30% system saving for Decay at ~5% occupation implies
//     exactly that), growing to ~1/2 at 8 MB and shrinking to ~1/10 at 1 MB.
//   * "System" = cores + L1s + L2s + shared bus (paper fn. 2); off-chip
//     DRAM energy is excluded, matching the paper's methodology (§V), and
//     off-chip traffic is reported separately (Fig. 4a).

#include <array>
#include <cstdint>
#include <string_view>

#include "cdsim/common/assert.hpp"
#include "cdsim/common/types.hpp"

namespace cdsim::power {

enum class Component : std::uint8_t {
  kCoreDynamic,
  kCoreLeakage,
  kL1Dynamic,
  kL1Leakage,
  kL2Dynamic,
  kL2Leakage,       ///< Powered-line leakage (incl. Gated-Vdd area overhead).
  kL2OffResidual,   ///< Residual leakage of gated (off) lines.
  kBusDynamic,
  kDecayOverhead,   ///< Decay counters: dynamic resets + counter leakage.
  kNocDynamic,      ///< Mesh-NoC link/router switching (flit-hops).
  kL3Dynamic,       ///< Shared L3 home banks (three-level hierarchy only).
  kL3Leakage,       ///< Powered L3 lines (incl. Gated-Vdd area overhead).
  kL3OffResidual,   ///< Residual leakage of gated (off) L3 lines.
  /// Residual leakage of gated (off) L1 lines (l1_decay active). Appended
  /// after the L3 block to keep component indices append-only.
  kL1OffResidual,
  /// Off-chip DRAM row activations (kDram model only; flat runs log zero,
  /// so the "system" total of every golden pin is untouched — DRAM energy
  /// is reported alongside, not folded into the paper's normalization).
  kDramActivate,
  /// Off-chip DRAM precharges (row-conflict closes; kDram only).
  kDramPrecharge,
  kCount,
};

constexpr std::size_t kNumComponents =
    static_cast<std::size_t>(Component::kCount);

constexpr std::string_view to_string(Component c) noexcept {
  switch (c) {
    case Component::kCoreDynamic: return "core_dyn";
    case Component::kCoreLeakage: return "core_leak";
    case Component::kL1Dynamic: return "l1_dyn";
    case Component::kL1Leakage: return "l1_leak";
    case Component::kL2Dynamic: return "l2_dyn";
    case Component::kL2Leakage: return "l2_leak";
    case Component::kL2OffResidual: return "l2_off_residual";
    case Component::kBusDynamic: return "bus_dyn";
    case Component::kDecayOverhead: return "decay_overhead";
    case Component::kNocDynamic: return "noc_dyn";
    case Component::kL3Dynamic: return "l3_dyn";
    case Component::kL3Leakage: return "l3_leak";
    case Component::kL3OffResidual: return "l3_off_residual";
    case Component::kL1OffResidual: return "l1_off_residual";
    case Component::kDramActivate: return "dram_activate";
    case Component::kDramPrecharge: return "dram_precharge";
    case Component::kCount: break;
  }
  return "?";
}

/// Accumulates energy per component. Totals are exact sums; no sampling.
class EnergyLedger {
 public:
  void add(Component c, double eu) {
    CDSIM_ASSERT(c != Component::kCount);
    CDSIM_ASSERT_MSG(eu >= 0.0, "negative energy contribution");
    e_[static_cast<std::size_t>(c)] += eu;
  }

  [[nodiscard]] double get(Component c) const {
    return e_[static_cast<std::size_t>(c)];
  }

  [[nodiscard]] double total() const {
    double t = 0.0;
    for (double v : e_) t += v;
    return t;
  }

  /// Sum of the L2-related components (for the optimized-fraction metric).
  [[nodiscard]] double l2_total() const {
    return get(Component::kL2Dynamic) + get(Component::kL2Leakage) +
           get(Component::kL2OffResidual) + get(Component::kDecayOverhead);
  }

 private:
  std::array<double, kNumComponents> e_{};
};

/// Calibrated energy constants (see file comment for methodology).
struct PowerConfig {
  // --- L2 (the optimized structure) --------------------------------------
  /// Leakage per powered L2 line per cycle at T0, before the Gated-Vdd
  /// area overhead. Calibrated against the non-L2 system power below.
  double l2_leak_per_line_cycle = 4.0e-5;
  /// Gated-Vdd gating transistors add ~5% area => ~5% extra leakage on
  /// powered lines in gated caches (Powell et al.; paper §V).
  double gated_vdd_overhead = 0.05;
  /// Residual leakage of a gated (off) line, fraction of on-leakage.
  double off_residual_frac = 0.03;
  /// Dynamic energy per L2 access (read or write of one line).
  double l2_dyn_per_access = 0.12;
  /// Extra dynamic energy per L2 line fill (refetch cost that erodes decay
  /// savings; includes tag + array write).
  double l2_dyn_per_fill = 0.25;

  // --- Decay hardware overhead --------------------------------------------
  /// Per-line 2-bit counter leakage, fraction of a line's leakage. Counters
  /// stay powered even when their line is off.
  double decay_counter_leak_frac = 0.01;
  /// Dynamic energy per counter reset (every L2 access touches a counter).
  double decay_counter_dyn = 0.002;

  // --- Unoptimized components (dilute the savings) ------------------------
  /// Core leakage + clock per cycle, per core.
  double core_leak_per_cycle = 0.55;
  /// Core dynamic energy per committed instruction.
  double core_dyn_per_instr = 0.40;
  /// L1 leakage per cycle, per core (L1 is always on; it is not optimized).
  double l1_leak_per_cycle = 0.06;
  /// L1 dynamic energy per access.
  double l1_dyn_per_access = 0.03;
  /// Shared-bus dynamic energy per byte transferred.
  double bus_dyn_per_byte = 0.004;
  /// Mesh-NoC dynamic energy per flit-hop (one flit crossing one
  /// router+link). Calibrated so a one-hop line transfer (4-5 flits) costs
  /// about what the same line costs on the bus, with longer routes paying
  /// proportionally more.
  double noc_dyn_per_flit_hop = 0.05;

  // --- shared L3 home banks (three-level hierarchy) -----------------------
  /// Leakage per powered L3 line per cycle at T0. Denser last-level arrays
  /// leak less per line than the L2 slices.
  double l3_leak_per_line_cycle = 2.0e-5;
  /// Dynamic energy per L3 bank access (lookup/serve/absorb).
  double l3_dyn_per_access = 0.20;
  /// Extra dynamic energy per L3 line install.
  double l3_dyn_per_fill = 0.35;

  // --- off-chip DRAM (kDram memory model; flat runs contribute zero) ------
  /// Energy per DRAM row activation (ACT: wordline + sense amplifiers).
  double dram_act_energy = 1.2;
  /// Energy per DRAM precharge (PRE closing a conflicting row).
  double dram_pre_energy = 0.6;
};

}  // namespace cdsim::power
