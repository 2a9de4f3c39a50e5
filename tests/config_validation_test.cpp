// SystemConfig construction-time validation: misconfigurations must throw
// std::invalid_argument with a descriptive message, not silently simulate
// a platform nobody asked for (and not abort deep inside the kernel).

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/workload/benchmarks.hpp"

namespace cdsim::sim {
namespace {

SystemConfig base() {
  SystemConfig cfg;
  cfg.num_cores = 4;
  cfg.total_l2_bytes = 4 * MiB;
  return cfg;
}

void expect_invalid(const SystemConfig& cfg, const char* needle) {
  try {
    validate_system_config(cfg);
    FAIL() << "expected invalid_argument mentioning \"" << needle << "\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(ConfigValidation, DefaultAndScaledConfigsPass) {
  EXPECT_NO_THROW(validate_system_config(base()));
  SystemConfig big = base();
  big.topology = noc::Topology::kDirectoryMesh;
  big.num_cores = 64;
  big.total_l2_bytes = 64 * MiB;
  EXPECT_NO_THROW(validate_system_config(big));
}

TEST(ConfigValidation, ZeroCoresThrows) {
  SystemConfig cfg = base();
  cfg.num_cores = 0;
  expect_invalid(cfg, "num_cores");
}

TEST(ConfigValidation, MoreThan64CoresThrows) {
  SystemConfig cfg = base();
  cfg.num_cores = 65;
  cfg.total_l2_bytes = 65 * MiB;
  expect_invalid(cfg, "64");
}

TEST(ConfigValidation, IndivisibleL2Throws) {
  SystemConfig cfg = base();
  cfg.num_cores = 3;
  cfg.total_l2_bytes = 4 * MiB;  // 4 MiB does not split 3 ways
  expect_invalid(cfg, "divisible");
  cfg.total_l2_bytes = 0;
  expect_invalid(cfg, "divisible");
}

TEST(ConfigValidation, NonPowerOfTwoCoresOnMeshThrows) {
  SystemConfig cfg = base();
  cfg.topology = noc::Topology::kDirectoryMesh;
  cfg.num_cores = 12;
  cfg.total_l2_bytes = 12 * MiB;
  expect_invalid(cfg, "power of two");
  // The same core count is fine on the bus (no tile grid to factorize).
  cfg.topology = noc::Topology::kSnoopBus;
  EXPECT_NO_THROW(validate_system_config(cfg));
}

TEST(ConfigValidation, WrongPerCoreInstructionLengthThrows) {
  SystemConfig cfg = base();
  cfg.per_core_instructions = {1000, 1000};  // 2 entries for 4 cores
  expect_invalid(cfg, "per_core_instructions");
}

TEST(ConfigValidation, ThreeLevelRequiresDirectoryMesh) {
  SystemConfig cfg = base();
  cfg.hierarchy = Hierarchy::kThreeLevel;
  cfg.topology = noc::Topology::kSnoopBus;
  expect_invalid(cfg, "directory-mesh");
  cfg.topology = noc::Topology::kDirectoryMesh;
  EXPECT_NO_THROW(validate_system_config(cfg));
}

TEST(ConfigValidation, ThreeLevelL3MustSplitIntoBanks) {
  SystemConfig cfg = base();
  cfg.hierarchy = Hierarchy::kThreeLevel;
  cfg.topology = noc::Topology::kDirectoryMesh;
  cfg.total_l3_bytes = 0;
  expect_invalid(cfg, "total_l3_bytes");
  cfg.total_l3_bytes = MiB + 1;  // does not split 4 ways cleanly...
  expect_invalid(cfg, "total_l3_bytes");
  cfg.total_l3_bytes = 3 * MiB;  // ...per-bank 768 KiB not a power of 2
  expect_invalid(cfg, "power of two");
  cfg.total_l3_bytes = 2 * KiB;  // per-bank 512 B < one 16-way 64 B set
  expect_invalid(cfg, "smaller than one set");
}

TEST(ConfigValidation, PerLevelDecayNeedsNonzeroWindow) {
  SystemConfig cfg = base();
  cfg.l1_decay = decay::DecayConfig{decay::Technique::kDecay, 0, 4};
  expect_invalid(cfg, "L1");
  cfg = base();
  cfg.hierarchy = Hierarchy::kThreeLevel;
  cfg.topology = noc::Topology::kDirectoryMesh;
  cfg.l3_decay = decay::DecayConfig{decay::Technique::kSelectiveDecay, 0, 4};
  expect_invalid(cfg, "L3");
  // Baseline/protocol configs never sweep, so a zero window is benign.
  cfg.l3_decay = decay::DecayConfig{decay::Technique::kProtocol, 0, 4};
  EXPECT_NO_THROW(validate_system_config(cfg));
}

// Zero ticks per interval (which used to divide by zero) and a tick
// period that rounds to 0 cycles are rejected at each level by name.
TEST(ConfigValidation, L1DecayNeedsTicksAndAPeriod) {
  SystemConfig cfg = base();
  cfg.l1_decay = decay::DecayConfig{decay::Technique::kDecay, 65536, 0};
  expect_invalid(cfg, "L1 decay needs hierarchical_ticks");
  cfg.l1_decay = decay::DecayConfig{decay::Technique::kDecay, 3, 4};
  expect_invalid(cfg, "L1 decay technique needs a nonzero tick period");
}

TEST(ConfigValidation, L2DecayNeedsTicksAndAPeriod) {
  SystemConfig cfg = base();
  cfg.decay = decay::DecayConfig{decay::Technique::kSelectiveDecay, 65536, 0};
  expect_invalid(cfg, "L2 decay needs hierarchical_ticks");
  cfg.decay = decay::DecayConfig{decay::Technique::kDecay, 0, 4};
  expect_invalid(cfg, "L2 decay technique needs a nonzero tick period");
  // The constructor runs the same check before building any cache.
  EXPECT_THROW(CmpSystem(cfg, workload::benchmark_by_name("mpeg2enc")),
               std::invalid_argument);
  cfg.decay = decay::DecayConfig{decay::Technique::kProtocol, 0, 0};
  EXPECT_NO_THROW(validate_system_config(cfg));
}

// run_config simulates the L2 technique as given: a decaying L2 with a
// zero window is rejected by name, never run as a 4-cycle decay.
TEST(ConfigValidation, RunConfigRejectsZeroL2DecayTime) {
  SystemConfig cfg = make_system_config(
      1 * MiB, decay::DecayConfig{decay::Technique::kDecay, 0, 4});
  cfg.instructions_per_core = 2000;
  try {
    (void)run_config(cfg, workload::benchmark_by_name("mpeg2enc"));
    FAIL() << "a decaying L2 with decay_time 0 ran";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "L2 decay technique needs a nonzero tick period"),
              std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(ConfigValidation, L3DecayNeedsTicksAndAPeriod) {
  SystemConfig cfg = base();
  cfg.hierarchy = Hierarchy::kThreeLevel;
  cfg.topology = noc::Topology::kDirectoryMesh;
  cfg.l3_decay = decay::DecayConfig{decay::Technique::kDecay, 65536, 0};
  expect_invalid(cfg, "L3 decay needs hierarchical_ticks");
  cfg.l3_decay = decay::DecayConfig{decay::Technique::kDecay, 1, 2};
  expect_invalid(cfg, "L3 decay technique needs a nonzero tick period");
}

// The power sampler re-arms every sample_period cycles (0 never advances),
// the thermal step divides by the clock, and the leakage model by T0.
TEST(ConfigValidation, ThermalSamplePeriodMustBeNonzero) {
  SystemConfig cfg = base();
  cfg.thermal.sample_period = 0;
  expect_invalid(cfg, "thermal.sample_period");
}

TEST(ConfigValidation, ThermalClockMustBePositiveAndFinite) {
  SystemConfig cfg = base();
  for (const double hz : {0.0, -3.0e9, std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()}) {
    cfg.thermal.clock_hz = hz;
    expect_invalid(cfg, "thermal.clock_hz");
  }
}

TEST(ConfigValidation, LeakageT0MustBePositiveAndFinite) {
  SystemConfig cfg = base();
  for (const double t0 : {0.0, -343.0, std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()}) {
    cfg.leakage.t0_kelvin = t0;
    expect_invalid(cfg, "leakage.t0_kelvin");
  }
}

// The RC network starts every block at ambient and divides by the lateral
// resistance, and the leakage model needs a positive temperature.
TEST(ConfigValidation, ThermalAmbientAndLateralRMustBePositiveAndFinite) {
  for (const double v : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    SystemConfig cfg = base();
    cfg.thermal.ambient_kelvin = v;
    expect_invalid(cfg, "thermal.ambient_kelvin");
    cfg = base();
    cfg.thermal.lateral_r = v;
    expect_invalid(cfg, "thermal.lateral_r");
  }
}

TEST(ConfigValidation, ThermalWattsPerEuMustBeNonNegativeAndFinite) {
  SystemConfig cfg = base();
  cfg.thermal.watts_per_eu_cycle = 0.0;
  EXPECT_NO_THROW(validate_system_config(cfg));
  for (const double w : {-9.0, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    cfg.thermal.watts_per_eu_cycle = w;
    expect_invalid(cfg, "thermal.watts_per_eu_cycle");
  }
}

TEST(ConfigValidation, LeakageBetaMustBeFinite) {
  SystemConfig cfg = base();
  cfg.leakage.beta = -0.014;  // any finite slope is a model
  EXPECT_NO_THROW(validate_system_config(cfg));
  for (const double b : {std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    cfg.leakage.beta = b;
    expect_invalid(cfg, "leakage.beta");
  }
}

// The energy ledger asserts every contribution is non-negative: each §V
// constant is rejected by name before a run can reach it.
TEST(ConfigValidation, PowerConstantsMustBeNonNegativeAndFinite) {
  using Field = double power::PowerConfig::*;
  const std::pair<Field, const char*> fields[] = {
      {&power::PowerConfig::l2_leak_per_line_cycle,
       "power.l2_leak_per_line_cycle"},
      {&power::PowerConfig::gated_vdd_overhead, "power.gated_vdd_overhead"},
      {&power::PowerConfig::off_residual_frac, "power.off_residual_frac"},
      {&power::PowerConfig::l2_dyn_per_access, "power.l2_dyn_per_access"},
      {&power::PowerConfig::l2_dyn_per_fill, "power.l2_dyn_per_fill"},
      {&power::PowerConfig::decay_counter_leak_frac,
       "power.decay_counter_leak_frac"},
      {&power::PowerConfig::decay_counter_dyn, "power.decay_counter_dyn"},
      {&power::PowerConfig::core_leak_per_cycle, "power.core_leak_per_cycle"},
      {&power::PowerConfig::core_dyn_per_instr, "power.core_dyn_per_instr"},
      {&power::PowerConfig::l1_leak_per_cycle, "power.l1_leak_per_cycle"},
      {&power::PowerConfig::l1_dyn_per_access, "power.l1_dyn_per_access"},
      {&power::PowerConfig::bus_dyn_per_byte, "power.bus_dyn_per_byte"},
      {&power::PowerConfig::noc_dyn_per_flit_hop,
       "power.noc_dyn_per_flit_hop"},
      {&power::PowerConfig::l3_leak_per_line_cycle,
       "power.l3_leak_per_line_cycle"},
      {&power::PowerConfig::l3_dyn_per_access, "power.l3_dyn_per_access"},
      {&power::PowerConfig::l3_dyn_per_fill, "power.l3_dyn_per_fill"},
      {&power::PowerConfig::dram_act_energy, "power.dram_act_energy"},
      {&power::PowerConfig::dram_pre_energy, "power.dram_pre_energy"},
  };
  for (const auto& [field, name] : fields) {
    SCOPED_TRACE(name);
    SystemConfig cfg = base();
    cfg.power.*field = 0.0;  // zero is a legal (free) component
    EXPECT_NO_THROW(validate_system_config(cfg));
    for (const double v : {-0.1, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
      cfg.power.*field = v;
      expect_invalid(cfg, name);
    }
  }
}

// Every field a component asserts on at construction or first use is
// rejected here by name. Each row first applies the machine it needs (mesh,
// three levels, DRAM, TLBs), which must validate, then the one bad value.
TEST(ConfigValidation, FieldsComponentsAssertOnAreRejectedByName) {
  using Edit = void (*)(SystemConfig&);
  struct Row {
    const char* field;  ///< Must appear in the message.
    Edit machine;       ///< Valid context the field needs (may be null).
    Edit bad;
  };
  const Edit mesh = [](SystemConfig& c) {
    c.topology = noc::Topology::kDirectoryMesh;
  };
  const Edit three_level = [](SystemConfig& c) {
    c.topology = noc::Topology::kDirectoryMesh;
    c.hierarchy = Hierarchy::kThreeLevel;
  };
  const Edit dram = [](SystemConfig& c) {
    c.mem.model = mem::MemoryModel::kDram;
  };
  const Edit tlb = [](SystemConfig& c) { c.mem.tlb.enabled = true; };
  const Edit per_core = [](SystemConfig& c) {
    c.per_core_instructions.assign(c.num_cores, 1000);
  };
  const Row rows[] = {
      {"instructions_per_core", nullptr,
       [](SystemConfig& c) { c.instructions_per_core = 0; }},
      {"per_core_instructions", per_core,
       [](SystemConfig& c) { c.per_core_instructions.back() = 0; }},
      {"core.issue_width", nullptr,
       [](SystemConfig& c) { c.core.issue_width = 0; }},
      // The core paces issue in 1/issue_width-cycle units.
      {"core.issue_width", nullptr,
       [](SystemConfig& c) { c.core.issue_width = 3; }},
      {"core.max_outstanding_loads", nullptr,
       [](SystemConfig& c) { c.core.max_outstanding_loads = 0; }},
      {"l1.size_bytes", nullptr,
       [](SystemConfig& c) { c.l1.size_bytes = 48 * KiB; }},
      {"l1.line_bytes", nullptr,
       [](SystemConfig& c) { c.l1.line_bytes = 4; }},
      // Above 64 ways a set's valid bits no longer fit the tag array's
      // one 64-bit word per set (it used to pass and then lose lines).
      {"l1.ways", nullptr, [](SystemConfig& c) { c.l1.ways = 128; }},
      {"l1.hit_latency", nullptr,
       [](SystemConfig& c) { c.l1.hit_latency = 0; }},
      {"l1.mshr_entries", nullptr,
       [](SystemConfig& c) { c.l1.mshr_entries = 0; }},
      {"l1.write_buffer_entries", nullptr,
       [](SystemConfig& c) { c.l1.write_buffer_entries = 0; }},
      {"l1.max_drains_in_flight", nullptr,
       [](SystemConfig& c) { c.l1.max_drains_in_flight = 0; }},
      {"l2.ways", nullptr, [](SystemConfig& c) { c.l2.ways = 6; }},
      {"l2.ways", nullptr, [](SystemConfig& c) { c.l2.ways = 128; }},
      {"total_l2_bytes", nullptr,
       [](SystemConfig& c) { c.total_l2_bytes = 12 * MiB; }},
      {"l2.hit_latency", nullptr,
       [](SystemConfig& c) { c.l2.hit_latency = 0; }},
      {"l2.mshr_entries", nullptr,
       [](SystemConfig& c) { c.l2.mshr_entries = 0; }},
      // A retry at the same cycle stops simulated time; never run one.
      {"l2.retry_interval", nullptr,
       [](SystemConfig& c) { c.l2.retry_interval = 0; }},
      {"l3.ways", three_level, [](SystemConfig& c) { c.l3.ways = 12; }},
      {"l3.ways", three_level, [](SystemConfig& c) { c.l3.ways = 128; }},
      {"l3.hit_latency", three_level,
       [](SystemConfig& c) { c.l3.hit_latency = 0; }},
      {"mem.bytes_per_cycle", nullptr,
       [](SystemConfig& c) { c.mem.bytes_per_cycle = 0; }},
      // The bus divides by its data width; 0 used to crash with SIGFPE.
      {"bus.bytes_per_cycle", nullptr,
       [](SystemConfig& c) { c.bus.bytes_per_cycle = 0; }},
      {"mem.dram.channels", dram,
       [](SystemConfig& c) { c.mem.dram.channels = 0; }},
      {"mem.dram.ranks_per_channel", dram,
       [](SystemConfig& c) { c.mem.dram.ranks_per_channel = 0; }},
      {"mem.dram.banks_per_rank", dram,
       [](SystemConfig& c) { c.mem.dram.banks_per_rank = 0; }},
      {"mem.dram.interleave_bytes", dram,
       [](SystemConfig& c) { c.mem.dram.interleave_bytes = 0; }},
      {"mem.dram.queue_depth", dram,
       [](SystemConfig& c) { c.mem.dram.queue_depth = 0; }},
      {"mem.dram.row_bytes", dram,
       [](SystemConfig& c) { c.mem.dram.row_bytes = 32; }},
      {"mem.tlb.entries", tlb, [](SystemConfig& c) { c.mem.tlb.entries = 0; }},
      {"mem.tlb.page_bytes", tlb,
       [](SystemConfig& c) { c.mem.tlb.page_bytes = 0; }},
      {"dmesh.noc.link_credits", mesh,
       [](SystemConfig& c) { c.dmesh.noc.link_credits = 0; }},
      {"dmesh.noc.flit_bytes", mesh,
       [](SystemConfig& c) { c.dmesh.noc.flit_bytes = 0; }},
      {"dmesh.mem_tile", mesh, [](SystemConfig& c) { c.dmesh.mem_tile = 4; }},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.field);
    SystemConfig cfg = base();
    if (row.machine != nullptr) row.machine(cfg);
    EXPECT_NO_THROW(validate_system_config(cfg));
    row.bad(cfg);
    expect_invalid(cfg, row.field);
  }
}

// CmpSystem sets these from other fields and used to overwrite a value
// given here in silence; each is rejected naming the field it comes from.
TEST(ConfigValidation, DerivedFieldsNameTheirSource) {
  using Edit = void (*)(SystemConfig&);
  struct Row {
    const char* field;
    const char* from;
    Edit machine;  ///< Valid context the field needs (may be null).
    Edit bad;
  };
  const Edit mesh = [](SystemConfig& c) {
    c.topology = noc::Topology::kDirectoryMesh;
  };
  const Edit three_level = [](SystemConfig& c) {
    c.topology = noc::Topology::kDirectoryMesh;
    c.hierarchy = Hierarchy::kThreeLevel;
  };
  const Row rows[] = {
      {"l2.size_bytes", "total_l2_bytes", nullptr,
       [](SystemConfig& c) { c.l2.size_bytes = 64 * KiB; }},
      {"l2.protocol", "protocol", nullptr,
       [](SystemConfig& c) { c.l2.protocol = coherence::Protocol::kMoesi; }},
      {"l3.bank_bytes", "total_l3_bytes", three_level,
       [](SystemConfig& c) { c.l3.bank_bytes = 4 * MiB; }},
      {"l3.line_bytes", "l2.line_bytes", three_level,
       [](SystemConfig& c) { c.l3.line_bytes = 128; }},
      {"dmesh.home_interleave_bytes", "l2.line_bytes", mesh,
       [](SystemConfig& c) { c.dmesh.home_interleave_bytes = 128; }},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.field);
    SystemConfig cfg = base();
    if (row.machine != nullptr) row.machine(cfg);
    EXPECT_NO_THROW(validate_system_config(cfg));
    row.bad(cfg);
    expect_invalid(cfg, row.field);
    expect_invalid(cfg, (std::string("derived from ") + row.from).c_str());
  }
}

/// The base config whose components read a struct of `scope` (inside), or
/// one whose components do not (outside; kAlways has no outside).
SystemConfig machine_for(FieldScope scope, bool inside) {
  SystemConfig cfg = base();
  if (!inside) {
    if (scope == FieldScope::kSnoopBus) {
      cfg.topology = noc::Topology::kDirectoryMesh;
    }
    return cfg;
  }
  switch (scope) {
    case FieldScope::kAlways:
    case FieldScope::kSnoopBus: break;
    case FieldScope::kThreeLevel:
      cfg.hierarchy = Hierarchy::kThreeLevel;
      [[fallthrough]];
    case FieldScope::kDirectoryMesh:
      cfg.topology = noc::Topology::kDirectoryMesh;
      break;
    case FieldScope::kDram: cfg.mem.model = mem::MemoryModel::kDram; break;
    case FieldScope::kTlb: cfg.mem.tlb.enabled = true; break;
  }
  return cfg;
}

/// A value of `v`'s type that breaks `rule`; for kDerived (or kAny), one
/// that differs from `v`.
template <class T>
T breaking(FieldRule rule, const T& v) {
  if constexpr (std::is_enum_v<T>) {
    return static_cast<T>(static_cast<std::underlying_type_t<T>>(v) ^ 1);
  } else if constexpr (std::is_same_v<T, bool>) {
    return !v;
  } else if constexpr (std::is_floating_point_v<T>) {
    switch (rule) {
      case FieldRule::kPositive: return 0.0;
      case FieldRule::kNonNegative: return -1.0;
      case FieldRule::kFinite: return std::numeric_limits<T>::quiet_NaN();
      default: return v + 1.0;
    }
  } else if constexpr (std::is_integral_v<T>) {
    switch (rule) {
      case FieldRule::kNonzero: return 0;
      case FieldRule::kPow2: return 3;
      case FieldRule::kLineBytes: return 4;
      case FieldRule::kWays: return 128;
      default: return v + 1;
    }
  } else {  // per_core_instructions: one budget per core, one of them 0
    T budgets(base().num_cores, 1000);
    if (rule == FieldRule::kNonzero) budgets.back() = 0;
    return budgets;
  }
}

/// Sets the leaf named `name` of `cfg` to breaking(rule, its value).
void break_leaf(SystemConfig& cfg, std::string_view name) {
  for_each_config_field(
      [name](const ConfigLeaf& leaf, auto& v) {
        if (leaf.name() == name) v = breaking(leaf.rule, v);
      },
      cfg);
}

// Every rule in the table, as broadly as it is stated: on a machine whose
// components read the leaf's struct, one value that breaks the rule is
// rejected naming the leaf; on one whose components do not, it validates.
TEST(ConfigValidation, EveryRuleRejectsByName) {
  const SystemConfig cfg = base();
  std::size_t ruled = 0;
  for_each_config_field(
      [&ruled](const ConfigLeaf& leaf, const auto&) {
        if (leaf.rule == FieldRule::kAny) return;
        ++ruled;
        const std::string name = leaf.name();
        SCOPED_TRACE(name);
        SystemConfig cfg = machine_for(leaf.scope, true);
        EXPECT_NO_THROW(validate_system_config(cfg));
        break_leaf(cfg, name);
        expect_invalid(cfg, name.c_str());
        if (leaf.scope != FieldScope::kAlways) {
          SystemConfig outside = machine_for(leaf.scope, false);
          break_leaf(outside, name);
          EXPECT_NO_THROW(validate_system_config(outside));
        }
      },
      cfg);
  EXPECT_EQ(ruled, 58u);
}

// The results cache keys a machine by describe: any one leaf changed
// changes it, and equal configs describe equally.
TEST(Describe, EveryLeafChangesTheKey) {
  const SystemConfig cfg = base();
  const std::string key = describe(cfg);
  EXPECT_EQ(describe(base()), key);
  EXPECT_EQ(key.find_first_of("/|"), std::string::npos) << key;
  std::size_t leaves = 0;
  for_each_config_field(
      [&](const ConfigLeaf& leaf, const auto&) {
        ++leaves;
        const std::string name = leaf.name();
        SystemConfig changed = cfg;
        break_leaf(changed, name);
        EXPECT_NE(describe(changed), key) << name;
        EXPECT_EQ(describe(changed), describe(SystemConfig(changed)));
      },
      cfg);
  EXPECT_EQ(leaves, 102u);
}

// The constructor validates before it builds the leakage model, whose own
// assertion on T0 would otherwise abort first.
TEST(ConfigValidation, CmpSystemConstructorRejectsZeroT0) {
  SystemConfig cfg = base();
  cfg.leakage.t0_kelvin = 0.0;
  EXPECT_THROW(CmpSystem(cfg, workload::benchmark_by_name("mpeg2enc")),
               std::invalid_argument);
}

TEST(ConfigValidation, CmpSystemConstructorEnforcesIt) {
  SystemConfig cfg = base();
  cfg.num_cores = 0;
  EXPECT_THROW(
      CmpSystem(cfg, workload::benchmark_by_name("mpeg2enc")),
      std::invalid_argument);
}

}  // namespace
}  // namespace cdsim::sim
