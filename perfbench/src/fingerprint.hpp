#pragma once
// Exact fingerprint of a sim::RunMetrics: FNV-1a 64 over every field, in
// declaration order, with doubles hashed by their IEEE-754 bits. Two runs
// have the same fingerprint only if every simulated output is bit-identical,
// including the l1/l2/l3 level blocks, the full energy ledger and the
// DRAM, TLB and NoC counters.

#include <cstdint>
#include <string>

#include "cdsim/sim/metrics.hpp"

namespace perfbench {

[[nodiscard]] std::uint64_t fingerprint(const cdsim::sim::RunMetrics& m);

/// Folds `value` into a running FNV-1a 64 hash (sweep fingerprints chain
/// per-configuration fingerprints this way).
[[nodiscard]] std::uint64_t fnv_fold(std::uint64_t hash, std::uint64_t value);

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Perturbs each fingerprinted field of a sample RunMetrics in turn and
/// checks that the fingerprint changes every time. Returns an empty string
/// on success, else the name of the first field the fingerprint missed.
[[nodiscard]] std::string fingerprint_self_test();

/// Hex form used in pins and reports.
[[nodiscard]] std::string hex(std::uint64_t v);

}  // namespace perfbench
