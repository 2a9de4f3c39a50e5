// Figure 3(a) — L2 occupation rate.
//
// Average fraction of time an L2 line is powered on, per technique and
// total cache size (baseline == 100% by definition). Paper shape: protocol
// 87%..50% falling with size; decay <10%..<1%; selective decay in between.

#include "figure_common.hpp"

int main() {
  return cdsim::bench::print_size_sweep_figure(
      "Figure 3(a): L2 occupation rate", "occupation",
      [](const cdsim::sim::RelativeMetrics& r) { return r.occupation; });
}
