#pragma once
// Shared scaffolding for the bench binaries.
//
// Every figure bench sweeps (a subset of) the paper's grid — 6 benchmarks x
// {1,2,4,8} MB x 7 techniques + baseline — through one ExperimentRunner,
// which persists results to cdsim_results.cache so the whole bench suite
// pays for each configuration exactly once. The JSON-writing benches share
// the output check below.

#include <cstdio>
#include <functional>
#include <iostream>
#include <string>

#include "cdsim/common/table.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/sim/parallel.hpp"
#include "cdsim/workload/benchmarks.hpp"

namespace cdsim::bench {

/// Closes a bench's output file and reports whether every write reached
/// it (a full disk fails only at the final flush). On failure prints a
/// message naming `path`, so the caller can exit 1 instead of leaving a
/// truncated datapoint behind a success status.
inline bool close_output(std::FILE* f, const char* tool, const char* path) {
  const bool written = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "%s: failed writing %s\n", tool, path);
    return false;
  }
  return true;
}

/// Fills the paper grid (suite x sizes x techniques + baselines) in
/// parallel and reports what actually had to be simulated. After this,
/// every runner.relative()/suite_average() on those cells is a memo hit.
/// Figures that only need one column pass their own size list.
inline sim::SweepStats prefetch_paper_grid(
    sim::ExperimentRunner& runner,
    const std::vector<std::uint64_t>& sizes = sim::paper_cache_sizes()) {
  const sim::SweepStats sweep = runner.run_grid(
      workload::benchmark_suite(), sizes, sim::paper_technique_set());
  // Progress goes to stderr: stdout carries only figure data, so cached
  // and uncached runs of a bench produce identical redirectable output.
  if (sweep.simulated > 0) {
    std::cerr << "[simulated " << sweep.simulated << " configurations on "
              << sweep.workers << " workers; " << sweep.reused
              << " already cached]\n";
  }
  return sweep;
}

/// Prints one paper figure: rows = techniques, columns = total cache sizes
/// (the paper's BM1/BM2/BM4/BM8 groups), cell = suite-average metric.
inline void print_size_sweep_figure(
    const std::string& title, const std::string& metric_name,
    const std::function<double(const sim::RelativeMetrics&)>& metric,
    int precision = 1) {
  sim::ExperimentRunner runner;
  prefetch_paper_grid(runner);
  std::cout << title << "\n";
  std::cout << "(metric: " << metric_name << "; suite average over "
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
      const sim::RelativeMetrics r = runner.suite_average(size, tech);
      row.pct(metric(r), precision);
    }
  }
  t.print(std::cout);
}

}  // namespace cdsim::bench
