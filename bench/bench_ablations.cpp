// bench_ablations — ablations A1 and A3 from one fill.
//
// A1, hierarchical-counter granularity. The decay hardware quantizes idle
// time: a line dies between decay_time and decay_time + decay_time/N for an
// N-tick cascaded counter. A1 sweeps N to show the quantization's effect on
// occupation and on decay-induced misses — justifying the paper's (and
// Kaxiras et al.'s) choice of 2-bit per-line counters (N = 4).
//
// A3, temperature-dependent leakage feedback. The paper stresses using "a
// detailed temperature-dependent leakage model" (Liao et al.) rather than a
// constant per-line leakage. A3 runs the 4 MB machine with the thermal
// feedback enabled vs. leakage pinned at the reference temperature, showing
// how much the reported savings move.
//
// One run_machines call fills both ablations' machines, so a rerun reads
// them from the results cache.
//
// Usage: bench_ablations   (CDSIM_INSTR=<n> overrides the 1.5M
//                           instructions/core default)

#include <cstdio>
#include <iostream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "cdsim/common/table.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/workload/benchmarks.hpp"
#include "figure_common.hpp"

int main() try {
  using namespace cdsim;
  using decay::Technique;
  sim::ExperimentRunner runner(1500000);
  const auto cell = [&](const char* bench, const decay::DecayConfig& tech) {
    sim::SystemConfig cfg = sim::make_system_config(4 * MiB, tech);
    cfg.instructions_per_core = runner.instructions_per_core();
    return sim::MachineCell{cfg, &workload::benchmark_by_name(bench)};
  };

  // A1: mpeg2dec with decay 128K, per counter tick count.
  const std::uint32_t ticks[] = {1, 2, 4, 8, 16};
  // A3: facerec, per feedback setting, the baseline, protocol and decay
  // 512K. The runner books protocol as a view of the baseline's run.
  const Technique techs[] = {Technique::kBaseline, Technique::kProtocol,
                             Technique::kDecay};
  std::vector<sim::MachineCell> cells;
  for (const std::uint32_t n : ticks) {
    cells.push_back(cell("mpeg2dec", {Technique::kDecay, 128 * 1024, n}));
  }
  for (const bool fb : {true, false}) {
    for (const Technique tech : techs) {
      cells.push_back(cell("facerec", {tech, 512 * 1024, 4}));
      cells.back().config.thermal_feedback = fb;
    }
  }
  const sim::MachineResults runs = runner.run_machines(cells);
  bench::report_sweep(runs.stats);

  std::cout << "Ablation: hierarchical decay-counter ticks per interval\n"
            << "(mpeg2dec, 4MB total L2, decay 128K)\n\n";
  TextTable a1;
  a1.row()
      .cell("ticks")
      .cell("sweep period")
      .cell("occupation")
      .cell("decay-induced misses")
      .cell("IPC");
  for (std::size_t i = 0; i < std::size(ticks); ++i) {
    const decay::DecayConfig& d = cells[i].config.decay;
    const sim::RunMetrics& m = runs.metrics[i];
    a1.row()
        .cell(std::to_string(d.hierarchical_ticks))
        .cell(std::to_string(d.tick_period()) + " cyc")
        .pct(m.l2_occupation)
        .cell(std::to_string(m.l2_decay_induced_misses))
        .cell(m.ipc, 3);
  }
  a1.print(std::cout);

  std::cout << "Ablation: thermal feedback on leakage (facerec, 4MB, "
               "decay 512K)\n\n";
  // The A3 result of techs[tech] with feedback on or off.
  const auto thermal = [&](bool fb,
                           std::size_t tech) -> const sim::RunMetrics& {
    return runs.metrics[std::size(ticks) + (fb ? 0 : std::size(techs)) + tech];
  };
  TextTable a3;
  a3.row()
      .cell("technique")
      .cell("thermal feedback")
      .cell("avg L2 temp (K)")
      .cell("energy reduction");
  for (std::size_t tech = 1; tech < std::size(techs); ++tech) {
    for (const bool fb : {true, false}) {
      const sim::RunMetrics& m = thermal(fb, tech);
      const double base = thermal(fb, 0).energy;
      a3.row()
          .cell(std::string(decay::to_string(techs[tech])))
          .cell(fb ? "on" : "off (T = T0)")
          .cell(m.avg_l2_temp_kelvin, 1)
          .pct((base - m.energy) / base);
    }
  }
  a3.print(std::cout);
  std::cout << "\nNote: with feedback on, blocks settle below the reference\n"
               "temperature T0, so absolute leakage (and thus the absolute\n"
               "saving) is slightly smaller than the pinned-T0 model reports;\n"
               "the technique ordering is unchanged. Hotter floorplans would\n"
               "move the comparison the other way, which is why the paper\n"
               "insists on temperature-dependent leakage.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  // The runner rejects a malformed CDSIM_INSTR or an empty CDSIM_CACHE_FILE.
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
