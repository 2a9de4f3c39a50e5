// Figure 5(a) — system energy reduction vs. the always-on baseline.
//
// Paper shape: savings grow with cache size (the optimized fraction is L2
// leakage); at 4 MB protocol/decay/SD save ~13%/30%/21%; decay time is only
// mildly influential; aggressive decay on small caches can go negative.

#include "figure_common.hpp"

int main() {
  return cdsim::bench::print_size_sweep_figure(
      "Figure 5(a): system energy reduction vs. baseline", "energy",
      [](const cdsim::sim::RelativeMetrics& r) { return r.energy_reduction; });
}
