// Figure 4(a) — memory bandwidth increase vs. the unoptimized baseline.
//
// Decay-induced refetches and turn-off write-backs all cross the external
// memory channel. Paper shape: decay largest (up to ~200% at 8 MB),
// selective decay about half of decay, protocol ~0%.

#include "figure_common.hpp"

int main() {
  return cdsim::bench::print_size_sweep_figure(
      "Figure 4(a): memory bandwidth increase vs. baseline", "bw_increase",
      [](const cdsim::sim::RelativeMetrics& r) { return r.bw_increase; });
}
