// Figure 3(b) — aggregate L2 miss rate.
//
// Paper shape: low overall; decay > selective decay > protocol == baseline;
// decay-induced misses are roughly insensitive to cache size.

#include "figure_common.hpp"

int main() {
  return cdsim::bench::print_size_sweep_figure(
      "Figure 3(b): L2 miss rate", "miss_rate",
      [](const cdsim::sim::RelativeMetrics& r) { return r.miss_rate; });
}
