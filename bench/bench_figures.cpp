// bench_figures — the paper's Figures 3 to 6 from one fill of its grid.
//
// Every figure is a view of one experiment: 6 benchmarks x {1,2,4,8} MB
// total L2 x the always-on baseline and the paper's 7 techniques. One
// run_grid call fills that grid in parallel (reading back whatever the
// results cache already holds), then every figure prints from it: Figs. 3-5
// as suite averages per technique and L2 size, Fig. 6 per benchmark from
// the 4 MB column.
//
// Usage: bench_figures   (CDSIM_INSTR=<n> overrides the 4M instructions/core
//                         default)

#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "cdsim/common/table.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/workload/benchmarks.hpp"
#include "figure_common.hpp"

using namespace cdsim;

namespace {

/// A size-sweep figure: rows = techniques, columns = total L2 sizes (the
/// paper's BM1/BM2/BM4/BM8 groups), cell = the suite average of `metric`.
struct SizeSweepFigure {
  const char* title;
  const char* metric_name;
  double sim::RelativeMetrics::*metric;
  int precision;
};

constexpr SizeSweepFigure kSizeSweeps[] = {
    // Average fraction of time an L2 line is powered on (baseline == 100%
    // by definition). Paper shape: protocol 87%..50% falling with size;
    // decay <10%..<1%; selective decay in between.
    {"Figure 3(a): L2 occupation rate", "occupation",
     &sim::RelativeMetrics::occupation, 1},
    // Aggregate L2 miss rate. Paper shape: low overall; decay > selective
    // decay > protocol == baseline; decay-induced misses are roughly
    // insensitive to cache size.
    {"Figure 3(b): L2 miss rate", "miss_rate",
     &sim::RelativeMetrics::miss_rate, 1},
    // Decay-induced refetches and turn-off write-backs all cross the
    // external memory channel. Paper shape: decay largest (up to ~200% at
    // 8 MB), selective decay about half of decay, protocol ~0%.
    {"Figure 4(a): memory bandwidth increase vs. baseline", "bw_increase",
     &sim::RelativeMetrics::bw_increase, 1},
    // Paper shape: decay worsens AMAT by ~10% on average; selective decay
    // recovers roughly half of that; protocol adds nothing.
    {"Figure 4(b): AMAT increase vs. baseline", "amat_increase",
     &sim::RelativeMetrics::amat_increase, 1},
    // Paper shape: savings grow with cache size (the optimized fraction is
    // L2 leakage); at 4 MB protocol/decay/SD save ~13%/30%/21%; decay time
    // is only mildly influential; aggressive decay on small caches can go
    // negative.
    {"Figure 5(a): system energy reduction vs. baseline", "energy",
     &sim::RelativeMetrics::energy_reduction, 1},
    // Paper shape: protocol == 0; decay worst and strongly sensitive to the
    // decay time; selective decay recovers most of decay's loss.
    {"Figure 5(b): IPC loss vs. baseline", "ipc_loss",
     &sim::RelativeMetrics::ipc_loss, 1},
};

void print_size_sweep(sim::ExperimentRunner& runner,
                      const SizeSweepFigure& fig) {
  std::cout << fig.title << "\n";
  std::cout << "(metric: " << fig.metric_name << "; suite average over "
            << workload::benchmark_suite().size() << " benchmarks, "
            << runner.instructions_per_core()
            << " instructions/core; columns are total L2 capacity)\n\n";
  TextTable t;
  auto& header = t.row().cell("technique");
  for (const std::uint64_t size : sim::paper_cache_sizes()) {
    header.cell(std::to_string(size / MiB) + "MB");
  }
  for (const auto& tech : sim::paper_technique_set()) {
    auto& row = t.row().cell(tech.label());
    for (const std::uint64_t size : sim::paper_cache_sizes()) {
      row.pct(runner.suite_average(size, tech).*fig.metric, fig.precision);
    }
  }
  t.print(std::cout);
}

/// Fig. 6: per-benchmark energy reduction (a) and IPC loss (b) at 4 MB.
/// Paper shape: heterogeneous. Protocol competes with decay on WATER-NS and
/// mpeg2dec; selective decay matches decay except on FMM (dirty residency);
/// scientific codes lose far more IPC to aggressive decay than multimedia.
void print_per_benchmark(sim::ExperimentRunner& runner) {
  const std::uint64_t size = 4 * MiB;
  const std::pair<const char*, double sim::RelativeMetrics::*> panels[] = {
      {"Figure 6(a): energy reduction vs. baseline",
       &sim::RelativeMetrics::energy_reduction},
      {"Figure 6(b): IPC loss vs. baseline", &sim::RelativeMetrics::ipc_loss},
  };
  std::cout << "Figure 6: per-benchmark results at 4MB total L2 ("
            << runner.instructions_per_core() << " instructions/core)\n";
  for (const auto& [title, metric] : panels) {
    std::cout << "\n" << title << "\n";
    TextTable t;
    auto& header = t.row().cell("technique");
    for (const auto& b : workload::benchmark_suite()) header.cell(b.config.name);
    for (const auto& tech : sim::paper_technique_set()) {
      auto& row = t.row().cell(tech.label());
      for (const auto& b : workload::benchmark_suite()) {
        row.pct(runner.relative(b, size, tech).*metric);
      }
    }
    t.print(std::cout);
  }
}

}  // namespace

int main() try {
  sim::ExperimentRunner runner;
  bench::report_sweep(runner.run_grid(workload::benchmark_suite(),
                                      sim::paper_cache_sizes(),
                                      sim::paper_technique_set()));
  for (const SizeSweepFigure& fig : kSizeSweeps) print_size_sweep(runner, fig);
  print_per_benchmark(runner);
  return 0;
} catch (const std::invalid_argument& e) {
  // The runner rejects a malformed CDSIM_INSTR or an empty CDSIM_CACHE_FILE.
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
