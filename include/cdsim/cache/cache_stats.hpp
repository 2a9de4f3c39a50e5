#pragma once
// Per-cache access statistics shared by L1 and L2 controllers.

#include <cstdint>

#include "cdsim/common/stats.hpp"
#include "cdsim/common/types.hpp"

namespace cdsim::cache {

/// Hit/miss, eviction, write-back and decay bookkeeping of one structure.
struct CacheStats {
  Counter read_hits;
  Counter read_misses;
  Counter write_hits;
  Counter write_misses;
  Counter evictions;          ///< Replacement-driven invalidations.
  Counter writebacks;         ///< Dirty data pushed below this level.
  Counter coherence_invals;   ///< Lines invalidated by remote activity.
  Counter backinvals;         ///< Inclusion-driven invalidations from below.
  Counter decay_turnoffs;     ///< Lines switched off by a decay engine.
  Counter decay_induced_misses;  ///< Misses to lines a decay engine killed.
  /// MOESI only: M->O downgrades (dirty owner answered a remote BusRd and
  /// kept ownership). Always 0 under MESI — tests use this to prove a run
  /// actually exercised the Owned state.
  Counter owned_downgrades;
  /// Decay-induced misses split by address-space region (bits 40+ of the
  /// line address; see workload synthetic address map). Diagnostic only.
  Counter decay_induced_by_region[8];

  [[nodiscard]] std::uint64_t accesses() const noexcept {
    return read_hits.value() + read_misses.value() + write_hits.value() +
           write_misses.value();
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return read_misses.value() + write_misses.value();
  }
};

}  // namespace cdsim::cache
