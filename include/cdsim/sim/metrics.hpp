#pragma once
// Whole-run metrics: everything the paper's figures are built from.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "cdsim/common/stats.hpp"
#include "cdsim/common/types.hpp"
#include "cdsim/power/energy.hpp"

namespace cdsim::sim {

/// Aggregate counters for one cache level (summed over all structures at
/// that level: per-core L1s, per-core L2 slices, L3 home banks). One block
/// per level is what lets the figure tooling attribute hits/misses/turn-offs
/// to the level that produced them instead of folding everything into "the
/// L2".
struct LevelMetrics {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t decay_turnoffs = 0;
  std::uint64_t decay_induced_misses = 0;
  std::uint64_t writebacks = 0;
  double occupation = 1.0;  ///< Powered-line fraction (1.0 when ungated).
};

/// Absolute measurements from one simulation run.
struct RunMetrics {
  std::string benchmark;
  std::string technique;
  std::uint64_t total_l2_bytes = 0;

  Cycle cycles = 0;                  ///< Last core's finish cycle.
  std::uint64_t instructions = 0;    ///< Committed across all cores.
  double ipc = 0.0;                  ///< Aggregate instructions / cycles.

  double l2_occupation = 0.0;        ///< Fig. 3(a): powered-line fraction.
  double l2_miss_rate = 0.0;         ///< Fig. 3(b): aggregate L2 miss rate.
  std::uint64_t l2_accesses = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t l2_decay_turnoffs = 0;
  std::uint64_t l2_decay_induced_misses = 0;
  std::uint64_t l2_coherence_invals = 0;
  std::uint64_t l2_writebacks = 0;

  double amat = 0.0;                 ///< Fig. 4(b): mean load latency, cycles.
  double mem_bandwidth = 0.0;        ///< Fig. 4(a): bytes/cycle off-chip.
  std::uint64_t mem_bytes = 0;

  double energy = 0.0;               ///< Fig. 5(a): system energy (eu).
  power::EnergyLedger ledger;

  double avg_l2_temp_kelvin = 0.0;   ///< Mean end-of-run L2 block temp.
  /// Fabric-bottleneck occupancy: the shared bus (kSnoopBus) or the
  /// busiest mesh link (kDirectoryMesh).
  double bus_utilization = 0.0;

  // --- interconnect (all zero / "bus" for snoop-bus runs) -----------------
  std::string topology = "bus";      ///< noc::to_string of the fabric.
  std::uint64_t noc_flit_hops = 0;   ///< Link traversals x flits (energy).
  double noc_avg_packet_latency = 0.0;  ///< Mean mesh packet latency.
  std::uint64_t dir_directed_snoops = 0;  ///< Snoops actually sent.
  std::uint64_t dir_recalls = 0;     ///< Directed O-turn-off recalls.
  std::uint64_t dir_deferrals = 0;   ///< Fills parked behind in-flight WBs.

  // --- per-level attribution ----------------------------------------------
  std::string hierarchy = "2L";      ///< sim::to_string(Hierarchy).
  LevelMetrics l1;                   ///< Per-core L1 front ends, summed.
  LevelMetrics l2;                   ///< Private L2 slices, summed.
  LevelMetrics l3;                   ///< Shared L3 home banks (3L only).
  std::uint64_t total_l3_bytes = 0;  ///< 0 for two-level runs.

  // --- memory side (all zero / "flat" under kFlat) -------------------------
  std::string mem_model = "flat";    ///< mem::to_string(MemoryConfig.model).
  std::uint64_t dram_row_hits = 0;
  std::uint64_t dram_row_misses = 0;     ///< Closed-bank activates.
  std::uint64_t dram_row_conflicts = 0;  ///< Open-row replacements.
  std::uint64_t dram_activates = 0;
  std::uint64_t dram_precharges = 0;
  std::uint64_t dram_refreshes = 0;
  std::uint64_t dram_write_forwards = 0;  ///< Reads served from queued writes.
  std::uint64_t tlb_hits = 0;        ///< Per-core TLBs, summed.
  std::uint64_t tlb_misses = 0;
};

// --- the field table ---------------------------------------------------------
// The RunMetrics schema, declared once: every walk over the fields goes
// through for_each_metric, and src/sim/metrics.cpp static_asserts that each
// table lists every member of its aggregate exactly once.

/// One named member of `Agg`, whose type is one of `Types`.
template <class Agg, class... Types>
struct MetricField {
  std::string_view name;
  std::variant<Types Agg::*...> member;
};

using LevelMetricsField = MetricField<LevelMetrics, std::uint64_t, double>;
using RunMetricsField =
    MetricField<RunMetrics, std::uint64_t, double, std::string, LevelMetrics,
                power::EnergyLedger>;

/// Shared by the l1, l2 and l3 blocks.
inline constexpr auto kLevelMetricsFields = std::to_array<LevelMetricsField>({
    {"accesses", &LevelMetrics::accesses},
    {"hits", &LevelMetrics::hits},
    {"misses", &LevelMetrics::misses},
    {"decay_turnoffs", &LevelMetrics::decay_turnoffs},
    {"decay_induced_misses", &LevelMetrics::decay_induced_misses},
    {"writebacks", &LevelMetrics::writebacks},
    {"occupation", &LevelMetrics::occupation},
});

/// In results-cache payload order, hence the ledger after bus_utilization
/// and total_l3_bytes before the level blocks. The first kRunLabelFields
/// entries label the run; the cache keeps them in its key, not its payload.
inline constexpr auto kRunMetricsFields = std::to_array<RunMetricsField>({
    {"benchmark", &RunMetrics::benchmark},
    {"technique", &RunMetrics::technique},
    {"total_l2_bytes", &RunMetrics::total_l2_bytes},
    {"cycles", &RunMetrics::cycles},
    {"instructions", &RunMetrics::instructions},
    {"ipc", &RunMetrics::ipc},
    {"l2_occupation", &RunMetrics::l2_occupation},
    {"l2_miss_rate", &RunMetrics::l2_miss_rate},
    {"l2_accesses", &RunMetrics::l2_accesses},
    {"l2_misses", &RunMetrics::l2_misses},
    {"l2_decay_turnoffs", &RunMetrics::l2_decay_turnoffs},
    {"l2_decay_induced_misses", &RunMetrics::l2_decay_induced_misses},
    {"l2_coherence_invals", &RunMetrics::l2_coherence_invals},
    {"l2_writebacks", &RunMetrics::l2_writebacks},
    {"amat", &RunMetrics::amat},
    {"mem_bandwidth", &RunMetrics::mem_bandwidth},
    {"mem_bytes", &RunMetrics::mem_bytes},
    {"energy", &RunMetrics::energy},
    {"avg_l2_temp_kelvin", &RunMetrics::avg_l2_temp_kelvin},
    {"bus_utilization", &RunMetrics::bus_utilization},
    {"ledger", &RunMetrics::ledger},
    {"topology", &RunMetrics::topology},
    {"noc_flit_hops", &RunMetrics::noc_flit_hops},
    {"noc_avg_packet_latency", &RunMetrics::noc_avg_packet_latency},
    {"dir_directed_snoops", &RunMetrics::dir_directed_snoops},
    {"dir_recalls", &RunMetrics::dir_recalls},
    {"dir_deferrals", &RunMetrics::dir_deferrals},
    {"hierarchy", &RunMetrics::hierarchy},
    {"total_l3_bytes", &RunMetrics::total_l3_bytes},
    {"l1", &RunMetrics::l1},
    {"l2", &RunMetrics::l2},
    {"l3", &RunMetrics::l3},
    {"mem_model", &RunMetrics::mem_model},
    {"dram_row_hits", &RunMetrics::dram_row_hits},
    {"dram_row_misses", &RunMetrics::dram_row_misses},
    {"dram_row_conflicts", &RunMetrics::dram_row_conflicts},
    {"dram_activates", &RunMetrics::dram_activates},
    {"dram_precharges", &RunMetrics::dram_precharges},
    {"dram_refreshes", &RunMetrics::dram_refreshes},
    {"dram_write_forwards", &RunMetrics::dram_write_forwards},
    {"tlb_hits", &RunMetrics::tlb_hits},
    {"tlb_misses", &RunMetrics::tlb_misses},
});
inline constexpr std::size_t kRunLabelFields = 3;

namespace detail {
// Counts the direct members of an aggregate by brace-initializing it from
// ever more "convert to anything" placeholders. Used only in unevaluated
// context, so the conversion operator needs no definition.
struct AnyField {
  template <class T>
  operator T() const;  // NOLINT(google-explicit-constructor)
};

template <class T, class... Fields>
consteval std::size_t member_count() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
    return member_count<T, Fields..., AnyField>();
  } else {
    return sizeof...(Fields);
  }
}

/// A field table of `Agg` names each of its members exactly once: as many
/// entries as members, and no member and no name twice.
template <class Agg, class Table>
consteval bool lists_every_member(const Table& t) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (t[i].member == t[j].member || t[i].name == t[j].name) return false;
    }
  }
  return t.size() == member_count<Agg>();
}
}  // namespace detail

/// A mutable ledger leaf: the ledger only accumulates, through add().
struct LedgerLeaf {
  power::EnergyLedger* ledger;
  power::Component component;

  /// The leaf for_each_metric passes: the value itself when read-only.
  static double of(const power::EnergyLedger& l, power::Component c) {
    return l.get(c);
  }
  static LedgerLeaf of(power::EnergyLedger& l, power::Component c) {
    return {&l, c};
  }
};

/// Calls f(name, leaf...) for each of the 75 leaves in table order ("ipc",
/// "l1.accesses", "ledger.core_dyn", ...) with the matching leaf of every
/// `ms`: a std::uint64_t, double or std::string lvalue, or LedgerLeaf::of.
template <class F, class... M>
void for_each_metric(F&& f, M&... ms) {
  using LevelMember = LevelMetrics RunMetrics::*;
  using LedgerMember = power::EnergyLedger RunMetrics::*;
  for (const RunMetricsField& field : kRunMetricsFields) {
    const std::string name(field.name);
    const std::string group = name + '.';
    std::visit(
        [&](auto member) {
          if constexpr (std::is_same_v<decltype(member), LevelMember>) {
            for (const LevelMetricsField& lf : kLevelMetricsFields) {
              std::visit(
                  [&](auto leaf) {
                    f(group + std::string(lf.name), ((ms.*member).*leaf)...);
                  },
                  lf.member);
            }
          } else if constexpr (std::is_same_v<decltype(member), LedgerMember>) {
            for (std::size_t i = 0; i < power::kNumComponents; ++i) {
              const auto c = static_cast<power::Component>(i);
              f(group + std::string(power::to_string(c)),
                LedgerLeaf::of(ms.*member, c)...);
            }
          } else {
            f(name, (ms.*member)...);
          }
        },
        field.member);
  }
}

/// The first leaf at which `a` and `b` differ (doubles compared by their
/// IEEE-754 bits), or an empty string when they are identical.
[[nodiscard]] std::string first_difference(const RunMetrics& a,
                                           const RunMetrics& b);

/// One "name value" line per leaf, doubles in hexfloat (exact).
[[nodiscard]] std::string format_metrics(const RunMetrics& m);

/// A technique run normalized against its baseline (same benchmark, same
/// cache size, baseline technique).
struct RelativeMetrics {
  double occupation = 1.0;        ///< Absolute (baseline is 1 by definition).
  double miss_rate = 0.0;         ///< Absolute.
  double bw_increase = 0.0;       ///< (bw - bw_base) / bw_base.
  double amat_increase = 0.0;     ///< (amat - amat_base) / amat_base.
  double energy_reduction = 0.0;  ///< (e_base - e) / e_base.
  double ipc_loss = 0.0;          ///< (ipc_base - ipc) / ipc_base.
};

/// Computes technique-vs-baseline relative metrics.
inline RelativeMetrics relative_to(const RunMetrics& base,
                                   const RunMetrics& tech) {
  RelativeMetrics r;
  r.occupation = tech.l2_occupation;
  r.miss_rate = tech.l2_miss_rate;
  r.bw_increase =
      safe_div(tech.mem_bandwidth - base.mem_bandwidth, base.mem_bandwidth);
  r.amat_increase = safe_div(tech.amat - base.amat, base.amat);
  r.energy_reduction = safe_div(base.energy - tech.energy, base.energy);
  r.ipc_loss = safe_div(base.ipc - tech.ipc, base.ipc);
  return r;
}

}  // namespace cdsim::sim
