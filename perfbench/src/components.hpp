#pragma once
// Component pass: per-structure host cost, measured by calling each layer's
// public functions directly with a small in-harness timer (median of a few
// fixed-size batches, std::chrono::steady_clock).

#include <string>

namespace perfbench {

struct ComponentCosts {
  double tag_lookup_ns = 0.0;   ///< cache::TagArray::find, 1 MiB 8-way.
  double mshr_ns = 0.0;         ///< cache::MshrFile allocate+merge+complete.
  double eventq_ns = 0.0;       ///< EventQueue schedule_in(1) + step.
  double mesh_hop_ns = 0.0;     ///< noc::MeshNoc packet cost per XY hop.
  double dram_read_ns = 0.0;    ///< mem::DramController read to completion.
  double trace_next_ns = 0.0;   ///< ChunkedTraceReader::next per record.
};

/// Measures every structure. `trace_path` names a .cdt v2 file to decode.
/// Throws std::runtime_error if the trace cannot be opened.
[[nodiscard]] ComponentCosts measure_components(const std::string& trace_path);

}  // namespace perfbench
