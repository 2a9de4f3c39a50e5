// Ablation A1 — hierarchical-counter granularity.
//
// The decay hardware quantizes idle time: a line dies between decay_time
// and decay_time + decay_time/N for an N-tick cascaded counter. This
// ablation sweeps N to show the quantization's effect on occupation and on
// decay-induced misses — justifying the paper's (and Kaxiras et al.'s)
// choice of 2-bit per-line counters (N = 4). It runs 1.5M
// instructions/core (CDSIM_INSTR overrides) through the ExperimentRunner,
// so a rerun reads its results from the results cache.

#include <iostream>
#include <vector>

#include "cdsim/common/table.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/workload/benchmarks.hpp"
#include "figure_common.hpp"

int main() try {
  using namespace cdsim;
  const auto& bench = workload::benchmark_by_name("mpeg2dec");
  sim::ExperimentRunner runner(1500000);

  std::cout << "Ablation: hierarchical decay-counter ticks per interval\n"
            << "(mpeg2dec, 4MB total L2, decay 128K)\n\n";

  TextTable t;
  t.row()
      .cell("ticks")
      .cell("sweep period")
      .cell("occupation")
      .cell("decay-induced misses")
      .cell("IPC");
  std::vector<sim::MachineCell> cells;
  for (const std::uint32_t ticks : {1u, 2u, 4u, 8u, 16u}) {
    sim::SystemConfig cfg = sim::make_system_config(
        4 * MiB,
        decay::DecayConfig{decay::Technique::kDecay, 128 * 1024, ticks});
    cfg.instructions_per_core = runner.instructions_per_core();
    cells.push_back({cfg, &bench});
  }
  const sim::MachineResults runs = runner.run_machines(cells);
  bench::report_sweep(runs.stats);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const decay::DecayConfig& d = cells[i].config.decay;
    const sim::RunMetrics& m = runs.metrics[i];
    t.row()
        .cell(std::to_string(d.hierarchical_ticks))
        .cell(std::to_string(d.tick_period()) + " cyc")
        .pct(m.l2_occupation)
        .cell(std::to_string(m.l2_decay_induced_misses))
        .cell(m.ipc, 3);
  }
  t.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  // The runner rejects a malformed CDSIM_INSTR or an empty CDSIM_CACHE_FILE.
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
