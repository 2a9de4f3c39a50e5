#pragma once
// The three-level golden pins, shared by GoldenMetricsTest, which runs each
// row standalone, and ParallelRunnerTest, which reproduces rows as
// accounting views of another run in their timing class. One copy of the
// values: a failing row prints its live metrics to re-capture from.

#include <cstdint>

#include "cdsim/decay/technique.hpp"
#include "cdsim/power/energy.hpp"
#include "cdsim/sim/cmp_system.hpp"

namespace cdsim {

// The three-level hierarchy, pinned the same way: an 8-core directory
// mesh with private L2 slices behind the shared home-banked L3, MOESI, and
// one leakage technique per level (L1 64K / L2 64K / L3 128K windows when
// they decay). Each row pins the energy, every ledger component and the
// three level occupations; the first row, decay at EVERY level, was
// captured when the hierarchy was introduced and also pins the machine's
// traffic and per-level counters. A failing run prints the live values;
// any drift means the three-level machine's simulated behavior changed.
struct ThreeLevelCase {
  decay::Technique l1, l2, l3;
  double energy;
  double l1_occupation, l2_occupation, l3_occupation;
  double ledger[power::kNumComponents];
};

constexpr ThreeLevelCase kThreeLevel[] = {
    {decay::Technique::kDecay, decay::Technique::kDecay,
     decay::Technique::kDecay, 0x1.4365e02f79726p+20,
     0x1.b154c3df8465ap-1, 0x1.40a200a3ba162p-3, 0x1.52bace6d02d1bp-5,
     {0x1.388p+18, 0x1.853667d9c7d99p+19, 0x1.06edae147ae15p+13,
      0x1.2dd4ceae7fe96p+16, 0x1.018051eb851eep+14, 0x1.3a3c88fec9c49p+15,
      0x1.830c9390987aep+12, 0x0p+0, 0x1.f38d69cffa017p+12,
      0x1.d7d9333333334p+13, 0x1.d612666666666p+12, 0x1.06a53f665d516p+14,
      0x1.5bcd0b935abacp+13, 0x1.9108cf2a4c66cp+8}},
    {decay::Technique::kProtocol, decay::Technique::kProtocol,
     decay::Technique::kSelectiveDecay, 0x1.3621aa8e8acfap+20,
     0x1.b5c862a890163p-1, 0x1.cd4e63723e35dp-3, 0x1.3464e9ca2babcp-5,
     {0x1.387fffffffffcp+18, 0x1.6cd8f966c0c41p+19, 0x1.06ceb851eb854p+13,
      0x1.1dd754a80660bp+16, 0x1.fa98a3d70a3d3p+13, 0x1.a7bbccb64aa44p+15,
      0x1.4d50588785f09p+12, 0x0p+0, 0x1.c85aa21c0be62p+11,
      0x1.55b199999999ap+13, 0x1.7550ccccccccdp+12, 0x1.c023c4572d884p+13,
      0x1.4733a83249beap+13, 0x1.62aeffd4c6d19p+8}},
    {decay::Technique::kSelectiveDecay, decay::Technique::kBaseline,
     decay::Technique::kProtocol, 0x1.5f429283a897p+20,
     0x1.b559163153fc4p-1, 0x1p+0, 0x1.5c0659a9124f8p-5,
     {0x1.387ffffffffffp+18, 0x1.6c7e5698f6642p+19, 0x1.06e0000000002p+13,
      0x1.1d47d3b444fccp+16, 0x1.facae147ae147p+13, 0x1.c00c14a5cdb3ep+17,
      0x0p+0, 0x0p+0, 0x1.57c943eaf0c3dp+10,
      0x1.5601999999999p+13, 0x1.74fbfffffffffp+12, 0x1.f937f58d6ceb4p+13,
      0x1.4534d1973a578p+13, 0x1.6469228c49474p+8}},
    {decay::Technique::kDecay, decay::Technique::kSelectiveDecay,
     decay::Technique::kBaseline, 0x1.9346e288ea379p+20,
     0x1.b0c22d04330ffp-1, 0x1.b1ccffe00ba2bp-3, 0x1p+0,
     {0x1.3880000000001p+18, 0x1.79368a9fbc4e3p+19, 0x1.06f651eb851ebp+13,
      0x1.2423a90544436p+16, 0x1.00d85c28f5c2ap+14, 0x1.9bfb1e9da4227p+15,
      0x1.5e93602ac1175p+12, 0x0p+0, 0x1.f1c8c3eb01976p+11,
      0x1.7308ccccccccdp+13, 0x1.84da666666665p+12, 0x1.71f57fa054fa7p+18,
      0x0p+0, 0x1.877f51a495e9dp+8}},
};

/// The machine every kThreeLevel row runs on, with techniques `l1`, `l2`
/// and `l3` (100K instructions/core of FMM through sim::run_config).
inline sim::SystemConfig three_level_pin_config(decay::Technique l1,
                                                decay::Technique l2,
                                                decay::Technique l3) {
  sim::SystemConfig cfg;
  cfg.num_cores = 8;
  cfg.topology = noc::Topology::kDirectoryMesh;
  cfg.hierarchy = sim::Hierarchy::kThreeLevel;
  cfg.total_l2_bytes = 2 * MiB;
  cfg.total_l3_bytes = 8 * MiB;
  cfg.protocol = coherence::Protocol::kMoesi;
  cfg.l1_decay = decay::DecayConfig{l1, 64 * 1024, 4};
  cfg.decay = decay::DecayConfig{l2, 64 * 1024, 4};
  cfg.l3_decay = decay::DecayConfig{l3, 128 * 1024, 4};
  cfg.instructions_per_core = 100000;
  return cfg;
}

}  // namespace cdsim
