// Figure 5(b) — IPC loss vs. the always-on baseline.
//
// Paper shape: protocol == 0; decay worst and strongly sensitive to the
// decay time; selective decay recovers most of decay's loss.

#include "figure_common.hpp"

int main() {
  return cdsim::bench::print_size_sweep_figure(
      "Figure 5(b): IPC loss vs. baseline", "ipc_loss",
      [](const cdsim::sim::RelativeMetrics& r) { return r.ipc_loss; });
}
