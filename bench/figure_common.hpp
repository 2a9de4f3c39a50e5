#pragma once
// Shared scaffolding for the bench binaries.
//
// Every bench fills its machines through one ExperimentRunner, which
// persists results to cdsim_results.cache so the whole bench suite pays for
// each configuration exactly once. The figure benches sweep (a subset of)
// the paper's grid — 6 benchmarks x {1,2,4,8} MB x 7 techniques +
// baseline; the datapoint benches write their results as JSON through
// write_datapoints.

#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "cdsim/common/table.hpp"
#include "cdsim/common/version.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/sim/metrics.hpp"
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

/// Reports on stderr what a fill had to simulate: the results, and the
/// timing runs they came from (baseline and protocol share one). Silent
/// when everything was cached. Progress goes to stderr: stdout carries only
/// data, so cached and uncached runs of a bench print the same.
inline void report_sweep(const sim::SweepStats& sweep) {
  if (sweep.simulated > 0) {
    std::cerr << "[simulated " << sweep.simulated << " configurations in "
              << sweep.timing_runs << " timing runs on " << sweep.workers
              << " workers; " << sweep.reused << " already cached]\n";
  }
}

/// Fills the paper grid (suite x sizes x techniques + baselines) in
/// parallel and reports it. After this, every runner.relative()/
/// suite_average() on those cells is a memo hit. Figures that only need one
/// column pass their own size list.
inline sim::SweepStats prefetch_paper_grid(
    sim::ExperimentRunner& runner,
    const std::vector<std::uint64_t>& sizes = sim::paper_cache_sizes()) {
  const sim::SweepStats sweep = runner.run_grid(
      workload::benchmark_suite(), sizes, sim::paper_technique_set());
  report_sweep(sweep);
  return sweep;
}

/// A named JSON scalar of a datapoint file: a header field or a row label.
using JsonField =
    std::pair<const char*, std::variant<std::uint64_t, std::string>>;

/// Writes a datapoint file: "bench" and "version", the `header` fields,
/// then "configs", one row per result — its labels, then every RunMetrics
/// leaf under its for_each_metric name ("l1.accesses", "ledger.core_dyn"),
/// doubles at max_digits10. On failure prints a message naming `path` and
/// returns false, so the caller can exit 1 instead of leaving a truncated
/// datapoint behind a success status (a full disk fails only at close).
inline bool write_datapoints(const char* tool, const char* path,
                             const std::vector<JsonField>& header,
                             const std::vector<std::vector<JsonField>>& labels,
                             const std::vector<sim::RunMetrics>& results) {
  std::ofstream out(path);
  out.precision(17);
  const auto value = [&out](const auto& v) {
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>, std::string>) {
      out << '"' << v << '"';
    } else {
      out << v;
    }
  };
  out << "{\n  \"bench\": \"" << tool << "\",\n  \"version\": \"" << version()
      << "\",\n";
  for (const auto& [name, v] : header) {
    out << "  \"" << name << "\": ";
    std::visit(value, v);
    out << ",\n";
  }
  out << "  \"configs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const char* sep = "    {";
    const auto field = [&](std::string_view name, const auto& v) {
      out << sep << '"' << name << "\": ";
      value(v);
      sep = ", ";
    };
    for (const auto& [name, v] : labels[i]) {
      std::visit([&](const auto& x) { field(name, x); }, v);
    }
    sim::for_each_metric(field, results[i]);
    out << (i + 1 < results.size() ? "},\n" : "}\n");
  }
  out << "  ]\n}\n";
  out.close();
  if (!out) std::fprintf(stderr, "%s: failed writing %s\n", tool, path);
  return static_cast<bool>(out);
}

/// Prints one paper figure: rows = techniques, columns = total cache sizes
/// (the paper's BM1/BM2/BM4/BM8 groups), cell = suite-average metric.
/// Returns the bench's exit status: 2, after the message, when the runner
/// rejects a malformed CDSIM_INSTR or an empty CDSIM_CACHE_FILE.
inline int print_size_sweep_figure(
    const std::string& title, const std::string& metric_name,
    const std::function<double(const sim::RelativeMetrics&)>& metric,
    int precision = 1) try {
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
  return 0;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}

}  // namespace cdsim::bench
