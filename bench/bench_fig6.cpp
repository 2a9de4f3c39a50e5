// Figures 6(a) and 6(b) — per-benchmark energy reduction and IPC loss at
// 4 MB total L2.
//
// Paper shape: heterogeneous. Protocol competes with decay on WATER-NS and
// mpeg2dec; selective decay matches decay except on FMM (dirty residency);
// scientific codes lose far more IPC to aggressive decay than multimedia.

#include <iostream>

#include "figure_common.hpp"

int main() try {
  using namespace cdsim;
  sim::ExperimentRunner runner;
  const std::uint64_t size = 4 * MiB;
  const auto techniques = sim::paper_technique_set();

  // This figure only needs the 4 MB column; fill it in parallel up front.
  bench::prefetch_paper_grid(runner, {size});

  std::cout << "Figure 6: per-benchmark results at 4MB total L2 ("
            << runner.instructions_per_core() << " instructions/core)\n\n";

  std::cout << "Figure 6(a): energy reduction vs. baseline\n";
  TextTable ta;
  auto& ha = ta.row().cell("technique");
  for (const auto& b : workload::benchmark_suite()) ha.cell(b.config.name);
  for (const auto& tech : techniques) {
    auto& row = ta.row().cell(tech.label());
    for (const auto& b : workload::benchmark_suite()) {
      row.pct(runner.relative(b, size, tech).energy_reduction);
    }
  }
  ta.print(std::cout);

  std::cout << "\nFigure 6(b): IPC loss vs. baseline\n";
  TextTable tb;
  auto& hb = tb.row().cell("technique");
  for (const auto& b : workload::benchmark_suite()) hb.cell(b.config.name);
  for (const auto& tech : techniques) {
    auto& row = tb.row().cell(tech.label());
    for (const auto& b : workload::benchmark_suite()) {
      row.pct(runner.relative(b, size, tech).ipc_loss);
    }
  }
  tb.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  // The runner rejects a malformed CDSIM_INSTR or an empty CDSIM_CACHE_FILE.
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
