#pragma once
// The six-benchmark suite of the paper (§V), as synthetic models.
//
// Splash-2 WATER-NS / FMM / VOLREND and ALPbench mpeg2enc / mpeg2dec /
// facerec are modeled by SyntheticConfig parameter sets chosen to land each
// program in the qualitative regime the paper reports for it (working-set
// size vs. L2 capacity, sharing intensity, store fraction, streaming-ness,
// and reuse-interval placement relative to the 64K-512K decay window).
// DESIGN.md §6 documents the intent of each preset.

#include <string_view>
#include <vector>

#include "cdsim/workload/synthetic.hpp"

namespace cdsim::workload {

/// One benchmark of the suite.
struct Benchmark {
  SyntheticConfig config;
  /// Scientific (Splash-2) vs. multimedia (ALPbench); the paper splits its
  /// conclusions along this axis.
  bool scientific = false;
};

/// The paper's six benchmarks, in the order of Figure 6.
const std::vector<Benchmark>& benchmark_suite();

/// Lookup by name ("WATER-NS", "FMM", "VOLREND", "mpeg2enc", "mpeg2dec",
/// "facerec"). Throws std::invalid_argument naming the six for any other.
const Benchmark& benchmark_by_name(std::string_view name);

/// Creates the per-core stream for a benchmark.
StreamPtr make_stream(const Benchmark& b, CoreId core, std::uint64_t seed);

}  // namespace cdsim::workload
