#include "fingerprint.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <type_traits>

namespace perfbench {
namespace {

using cdsim::power::Component;
using cdsim::power::EnergyLedger;
using cdsim::power::kNumComponents;
using cdsim::sim::LevelMetrics;
using cdsim::sim::RunMetrics;

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

// A field added to RunMetrics or LevelMetrics must be added to
// for_each_field below; these asserts stop the build until it is.
static_assert(member_count<RunMetrics>() == 42,
              "RunMetrics changed: update perfbench for_each_field");
static_assert(member_count<LevelMetrics>() == 7,
              "LevelMetrics changed: update perfbench for_each_field");

/// One energy-ledger component, visited as a field of its own.
template <class Ledger>
struct LedgerEntry {
  Ledger* ledger;
  Component component;
};

template <class Level, class F>
void visit_level(const char* prefix, Level& l, F& f) {
  const std::string p(prefix);
  f((p + ".accesses").c_str(), l.accesses);
  f((p + ".hits").c_str(), l.hits);
  f((p + ".misses").c_str(), l.misses);
  f((p + ".decay_turnoffs").c_str(), l.decay_turnoffs);
  f((p + ".decay_induced_misses").c_str(), l.decay_induced_misses);
  f((p + ".writebacks").c_str(), l.writebacks);
  f((p + ".occupation").c_str(), l.occupation);
}

/// Calls f(name, field) for every field of `m` (const or mutable), in
/// declaration order. The ledger is expanded into one LedgerEntry per
/// component.
template <class M, class F>
void for_each_field(M& m, F&& f) {
  f("benchmark", m.benchmark);
  f("technique", m.technique);
  f("total_l2_bytes", m.total_l2_bytes);
  f("cycles", m.cycles);
  f("instructions", m.instructions);
  f("ipc", m.ipc);
  f("l2_occupation", m.l2_occupation);
  f("l2_miss_rate", m.l2_miss_rate);
  f("l2_accesses", m.l2_accesses);
  f("l2_misses", m.l2_misses);
  f("l2_decay_turnoffs", m.l2_decay_turnoffs);
  f("l2_decay_induced_misses", m.l2_decay_induced_misses);
  f("l2_coherence_invals", m.l2_coherence_invals);
  f("l2_writebacks", m.l2_writebacks);
  f("amat", m.amat);
  f("mem_bandwidth", m.mem_bandwidth);
  f("mem_bytes", m.mem_bytes);
  f("energy", m.energy);
  using Ledger = std::remove_reference_t<decltype((m.ledger))>;
  for (std::size_t i = 0; i < kNumComponents; ++i) {
    const auto c = static_cast<Component>(i);
    f(("ledger." + std::string(cdsim::power::to_string(c))).c_str(),
      LedgerEntry<Ledger>{&m.ledger, c});
  }
  f("avg_l2_temp_kelvin", m.avg_l2_temp_kelvin);
  f("bus_utilization", m.bus_utilization);
  f("topology", m.topology);
  f("noc_flit_hops", m.noc_flit_hops);
  f("noc_avg_packet_latency", m.noc_avg_packet_latency);
  f("dir_directed_snoops", m.dir_directed_snoops);
  f("dir_recalls", m.dir_recalls);
  f("dir_deferrals", m.dir_deferrals);
  f("hierarchy", m.hierarchy);
  visit_level("l1", m.l1, f);
  visit_level("l2", m.l2, f);
  visit_level("l3", m.l3, f);
  f("total_l3_bytes", m.total_l3_bytes);
  f("mem_model", m.mem_model);
  f("dram_row_hits", m.dram_row_hits);
  f("dram_row_misses", m.dram_row_misses);
  f("dram_row_conflicts", m.dram_row_conflicts);
  f("dram_activates", m.dram_activates);
  f("dram_precharges", m.dram_precharges);
  f("dram_refreshes", m.dram_refreshes);
  f("dram_write_forwards", m.dram_write_forwards);
  f("tlb_hits", m.tlb_hits);
  f("tlb_misses", m.tlb_misses);
}

struct Hasher {
  std::uint64_t h = kFnvBasis;

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  }
  void word(std::uint64_t v) { bytes(&v, sizeof v); }

  void operator()(const char*, const std::string& s) {
    word(s.size());
    bytes(s.data(), s.size());
  }
  void operator()(const char*, std::uint64_t v) { word(v); }
  void operator()(const char*, double v) {
    word(std::bit_cast<std::uint64_t>(v));
  }
  void operator()(const char*, LedgerEntry<const EnergyLedger> e) {
    word(std::bit_cast<std::uint64_t>(e.ledger->get(e.component)));
  }
};

/// Changes one field by the smallest step that alters its bits.
struct Perturber {
  std::size_t target = 0;
  std::size_t index = 0;
  std::string name;

  template <class T>
  void operator()(const char* field, T&& value) {
    if (index++ != target) return;
    name = field;
    bump(value);
  }
  static void bump(std::string& s) { s += '~'; }
  static void bump(std::uint64_t& v) { ++v; }
  static void bump(double& v) {
    v = std::nextafter(v, std::numeric_limits<double>::infinity());
  }
  static void bump(LedgerEntry<EnergyLedger> e) {
    const double v = e.ledger->get(e.component);
    e.ledger->add(e.component,
                  std::nextafter(v, std::numeric_limits<double>::infinity()) -
                      v);
  }
};

}  // namespace

std::uint64_t fingerprint(const RunMetrics& m) {
  Hasher h;
  for_each_field(m, h);
  return h.h;
}

std::uint64_t fnv_fold(std::uint64_t hash, std::uint64_t value) {
  Hasher h{hash};
  h.word(value);
  return h.h;
}

std::string fingerprint_self_test() {
  // Arbitrary non-default values, so a "bump" never lands on a value some
  // other field already shares by accident of defaults.
  RunMetrics base;
  std::size_t fields = 0;
  std::uint64_t seed = 12345;
  for_each_field(base, [&](const char*, auto&& value) {
    ++fields;
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    using T = std::remove_cvref_t<decltype(value)>;
    if constexpr (std::is_same_v<T, std::string>) {
      value = std::to_string(seed >> 40);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      value = seed >> 20;
    } else if constexpr (std::is_same_v<T, double>) {
      value = static_cast<double>(seed >> 11) * 0x1p-53;
    } else {
      value.ledger->add(value.component,
                        static_cast<double>(seed >> 11) * 0x1p-40);
    }
  });
  const std::uint64_t fp0 = fingerprint(base);
  for (std::size_t i = 0; i < fields; ++i) {
    RunMetrics m = base;
    Perturber p{i, 0, {}};
    for_each_field(m, p);
    if (fingerprint(m) == fp0) return p.name;
  }
  return {};
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
