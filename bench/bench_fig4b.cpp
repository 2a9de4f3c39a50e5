// Figure 4(b) — AMAT (average memory access time) increase vs. baseline.
//
// Paper shape: decay worsens AMAT by ~10% on average; selective decay
// recovers roughly half of that; protocol adds nothing.

#include "figure_common.hpp"

int main() {
  return cdsim::bench::print_size_sweep_figure(
      "Figure 4(b): AMAT increase vs. baseline", "amat_increase",
      [](const cdsim::sim::RelativeMetrics& r) { return r.amat_increase; });
}
