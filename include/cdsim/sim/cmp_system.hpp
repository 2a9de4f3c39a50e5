#pragma once
// CmpSystem: the paper's evaluation platform in one object.
//
// 4 (configurable) out-of-order cores, each with a private write-through L1
// and a private inclusive L2; MESI snooping on a shared pipelined bus; a
// bandwidth-limited memory channel behind it; per-block RC thermal model
// sampled every 10K cycles feeding a temperature-dependent leakage model
// (§V of the paper). One leakage technique (baseline / protocol / decay /
// selective decay) drives each level's timing per run; the energy books can
// be kept under several techniques at once (AccountingView), each returned
// when the run ends before the first cycle at which the machine could act
// differently under it (always, within the run's timing class).

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "cdsim/bus/snoop_bus.hpp"
#include "cdsim/coherence/mesi.hpp"
#include "cdsim/noc/directory_mesh.hpp"
#include "cdsim/common/event_queue.hpp"
#include "cdsim/core/core_model.hpp"
#include "cdsim/decay/technique.hpp"
#include "cdsim/mem/memory.hpp"
#include "cdsim/mem/tlb.hpp"
#include "cdsim/obs/interval_sampler.hpp"
#include "cdsim/obs/trace_recorder.hpp"
#include "cdsim/power/energy.hpp"
#include "cdsim/power/leakage.hpp"
#include "cdsim/sim/l1_cache.hpp"
#include "cdsim/sim/l2_cache.hpp"
#include "cdsim/sim/l3_cache.hpp"
#include "cdsim/sim/metrics.hpp"
#include "cdsim/thermal/rc_model.hpp"
#include "cdsim/verify/observer.hpp"
#include "cdsim/workload/benchmarks.hpp"

namespace cdsim::sim {

/// Cache-hierarchy depth of the machine (SystemConfig::hierarchy).
enum class Hierarchy : std::uint8_t {
  /// The paper's machine: per-core write-through L1s in front of private
  /// coherent L2 slices on the fabric (bus or mesh).
  kTwoLevel,
  /// Scale-out machine: the same private L1+L2 front end, but the L2
  /// slices are smaller and a shared, home-banked L3 sits at the directory
  /// home tiles between the fabric and memory. Directory-mesh only.
  kThreeLevel,
};

constexpr std::string_view to_string(Hierarchy h) noexcept {
  return h == Hierarchy::kTwoLevel ? "2L" : "3L";
}

struct SystemConfig {
  std::uint32_t num_cores = 4;
  /// Coherence fabric: the paper's snoopy bus, or a sharer-bitmap
  /// directory over a 2D mesh for scaled-up CMPs (8-64 cores). The mesh
  /// requires a power-of-two num_cores (tile-grid factorization).
  noc::Topology topology = noc::Topology::kSnoopBus;
  /// Cache depth: the paper's two-level machine, or private L2s behind a
  /// shared home-banked L3 on the mesh.
  Hierarchy hierarchy = Hierarchy::kTwoLevel;
  /// Total L2 capacity across all private slices (paper sweeps 1..8 MB).
  std::uint64_t total_l2_bytes = 4 * MiB;
  /// Total shared-L3 capacity across all home banks (three-level only).
  std::uint64_t total_l3_bytes = 16 * MiB;
  /// The line size of every cache level, the coherence unit and the mesh's
  /// home interleave: an L2 line turns off and invalidates exactly one L1
  /// line (§III), and an L3 bank holds the lines the L2s write back.
  std::uint32_t line_bytes = 64;
  /// Snooping protocol of the L2 slices (paper §III: MESI; the MOESI
  /// extension realizes the §III sketch for the Owned state).
  coherence::Protocol protocol = coherence::Protocol::kMesi;

  core::CoreConfig core;
  L1Config l1;
  L2Config l2;
  L3Config l3;                     ///< Three-level only.
  bus::BusConfig bus;              ///< Used when topology == kSnoopBus.
  noc::DirectoryMeshConfig dmesh;  ///< Used when topology == kDirectoryMesh.
  mem::MemoryConfig mem;
  /// Leakage technique at the private L2 level (the paper's knob).
  decay::DecayConfig decay;
  /// Leakage technique at the L1 front ends (default: always-on baseline).
  /// Every L1 line is clean (write-through), so decay here is always a
  /// silent drop gated only by the Table-I pending-write condition.
  decay::DecayConfig l1_decay;
  /// Leakage technique at the shared L3 home banks (three-level only;
  /// default: always-on baseline). Dirty bank lines write back to memory
  /// before dying — the §III legality rule at the last level.
  decay::DecayConfig l3_decay;
  power::PowerConfig power;
  power::LeakageParams leakage;
  thermal::ThermalConfig thermal;
  /// When false, leakage is evaluated at the reference temperature
  /// (ablation A3 in DESIGN.md).
  bool thermal_feedback = true;

  std::uint64_t instructions_per_core = 4'000'000;
  /// Per-core instruction budgets for trace replay (empty = every core
  /// uses instructions_per_core; otherwise size must equal num_cores).
  std::vector<std::uint64_t> per_core_instructions;
  std::uint64_t seed = 42;
};

// --- the field table ---------------------------------------------------------
// The SystemConfig schema, declared once: validate_system_config checks each
// leaf's rule and describe prints every leaf, both through
// for_each_config_field, whose walk static_asserts that each struct's table
// lists every member exactly once.

/// What validate_system_config requires of one leaf by itself. Rules that
/// relate leaves (core counts, cache geometry, budgets, decay ticks) are
/// code in validate_system_config.
enum class FieldRule : std::uint8_t {
  kAny,
  kNonzero,      ///< At least 1 (every entry of a vector).
  kPow2,         ///< A power of two.
  kLineBytes,    ///< A power of two >= 8.
  kWays,         ///< A power of two, at most cache::kMaxWays.
  kPositive,     ///< Positive and finite.
  kNonNegative,  ///< Non-negative and finite.
  kFinite,
};

/// The machines whose components read a struct: its rules apply there.
enum class FieldScope : std::uint8_t {
  kAlways,
  kSnoopBus,
  kDirectoryMesh,
  kThreeLevel,
  kDram,
  kTlb,  ///< mem.tlb.enabled.
};

namespace detail {
/// A field's dotted name as a chain of parts up to the top level, kept on
/// the walk's stack: validate_system_config runs in every workload's set-up
/// and formats no name unless it throws.
struct FieldPath {
  const FieldPath* parent = nullptr;  ///< nullptr at the top level.
  std::string_view part;

  void append_to(std::string& out) const {
    if (parent != nullptr) {
      parent->append_to(out);
      out += '.';
    }
    out += part;
  }
};
}  // namespace detail

/// A leaf as for_each_config_field reports it. Its path lives on the walk's
/// stack: keep the leaf only for the duration of the callback.
struct ConfigLeaf {
  detail::FieldPath path;
  FieldRule rule;
  FieldScope scope;  ///< Of the innermost enclosing struct that has one.

  /// The dotted name: "mem.dram.channels".
  [[nodiscard]] std::string name() const {
    std::string s;
    path.append_to(s);
    return s;
  }
};

/// The per-struct tables, kFields<T> in member order (int for a leaf type),
/// with short names for the structs and rules they use.
namespace config_fields {
using enum FieldRule;
using enum FieldScope;
using Core = core::CoreConfig;
using Bus = bus::BusConfig;
using Noc = noc::NocConfig;
using Dmesh = noc::DirectoryMeshConfig;
using Dram = mem::DramConfig;
using Tlb = mem::TlbConfig;
using Mem = mem::MemoryConfig;
using Decay = decay::DecayConfig;
using Power = power::PowerConfig;
using Leakage = power::LeakageParams;
using Thermal = thermal::ThermalConfig;

/// One named member of `Agg`: a leaf, or a struct with its own table.
template <class Agg>
struct Field {
  std::string_view name;
  std::variant<std::uint32_t Agg::*, std::uint64_t Agg::*, double Agg::*,
               bool Agg::*, noc::Topology Agg::*, Hierarchy Agg::*,
               coherence::Protocol Agg::*, mem::MemoryModel Agg::*,
               decay::Technique Agg::*, std::vector<std::uint64_t> Agg::*,
               Core Agg::*, L1Config Agg::*, L2Config Agg::*, L3Config Agg::*,
               Bus Agg::*, Noc Agg::*, Dmesh Agg::*, Dram Agg::*, Tlb Agg::*,
               Mem Agg::*, Decay Agg::*, Power Agg::*, Leakage Agg::*,
               Thermal Agg::*>
      member;
  FieldRule rule = kAny;
  FieldScope scope = kAlways;  ///< A struct member's own scope.
};

template <class T>
inline constexpr int kFields = 0;

template <>
inline constexpr auto kFields<Core> = std::to_array<Field<Core>>({
    {"issue_width", &Core::issue_width, kPow2},
    {"max_outstanding_loads", &Core::max_outstanding_loads, kNonzero},
    {"rob_window", &Core::rob_window},
});

template <>
inline constexpr auto kFields<L1Config> = std::to_array<Field<L1Config>>({
    {"size_bytes", &L1Config::size_bytes, kPow2},
    {"ways", &L1Config::ways, kWays},
    {"hit_latency", &L1Config::hit_latency, kNonzero},
    {"mshr_entries", &L1Config::mshr_entries, kNonzero},
    {"write_buffer_entries", &L1Config::write_buffer_entries, kNonzero},
    {"drain_interval", &L1Config::drain_interval},
    {"max_drains_in_flight", &L1Config::max_drains_in_flight, kNonzero},
});

template <>
inline constexpr auto kFields<L2Config> = std::to_array<Field<L2Config>>({
    {"ways", &L2Config::ways, kWays},
    {"hit_latency", &L2Config::hit_latency, kNonzero},
    {"mshr_entries", &L2Config::mshr_entries, kNonzero},
    {"retry_interval", &L2Config::retry_interval, kNonzero},
    {"l1_inval_latency", &L2Config::l1_inval_latency},
});

template <>
inline constexpr auto kFields<L3Config> = std::to_array<Field<L3Config>>({
    {"ways", &L3Config::ways, kWays},
    {"hit_latency", &L3Config::hit_latency, kNonzero},
});

template <>
inline constexpr auto kFields<Bus> = std::to_array<Field<Bus>>({
    {"arbitration_latency", &Bus::arbitration_latency},
    {"address_phase", &Bus::address_phase},
    {"bytes_per_cycle", &Bus::bytes_per_cycle, kNonzero},
    {"cache_to_cache_latency", &Bus::cache_to_cache_latency},
});

template <>
inline constexpr auto kFields<Noc> = std::to_array<Field<Noc>>({
    {"router_latency", &Noc::router_latency},
    {"link_latency", &Noc::link_latency},
    {"flit_bytes", &Noc::flit_bytes, kNonzero},
    {"header_bytes", &Noc::header_bytes},
    {"link_credits", &Noc::link_credits, kNonzero},
});

template <>
inline constexpr auto kFields<Dmesh> = std::to_array<Field<Dmesh>>({
    {"noc", &Dmesh::noc},
    {"directory_latency", &Dmesh::directory_latency},
    {"bank_occupancy", &Dmesh::bank_occupancy},
    {"ctrl_bytes", &Dmesh::ctrl_bytes},
    {"mem_tile", &Dmesh::mem_tile},
});

template <>
inline constexpr auto kFields<Dram> = std::to_array<Field<Dram>>({
    {"channels", &Dram::channels, kNonzero},
    {"ranks_per_channel", &Dram::ranks_per_channel, kNonzero},
    {"banks_per_rank", &Dram::banks_per_rank, kNonzero},
    {"row_bytes", &Dram::row_bytes},
    {"interleave_bytes", &Dram::interleave_bytes, kNonzero},
    {"queue_depth", &Dram::queue_depth, kNonzero},
    {"starvation_limit", &Dram::starvation_limit},
    {"t_rcd", &Dram::t_rcd},
    {"t_rp", &Dram::t_rp},
    {"t_cas", &Dram::t_cas},
    {"t_refi", &Dram::t_refi},
    {"t_rfc", &Dram::t_rfc},
});

template <>
inline constexpr auto kFields<Tlb> = std::to_array<Field<Tlb>>({
    {"enabled", &Tlb::enabled},
    {"entries", &Tlb::entries, kNonzero},
    {"page_bytes", &Tlb::page_bytes, kNonzero},
    {"miss_walk_latency", &Tlb::miss_walk_latency},
});

template <>
inline constexpr auto kFields<Mem> = std::to_array<Field<Mem>>({
    {"model", &Mem::model},
    {"read_latency", &Mem::read_latency},
    {"bytes_per_cycle", &Mem::bytes_per_cycle, kNonzero},
    {"posted_writes", &Mem::posted_writes},
    {.name = "dram", .member = &Mem::dram, .scope = kDram},
    {.name = "tlb", .member = &Mem::tlb, .scope = kTlb},
});

template <>
inline constexpr auto kFields<Decay> = std::to_array<Field<Decay>>({
    {"technique", &Decay::technique},
    {"decay_time", &Decay::decay_time},
    {"hierarchical_ticks", &Decay::hierarchical_ticks},
});

template <>
inline constexpr auto kFields<Power> = std::to_array<Field<Power>>({
    {"l2_leak_per_line_cycle", &Power::l2_leak_per_line_cycle, kNonNegative},
    {"gated_vdd_overhead", &Power::gated_vdd_overhead, kNonNegative},
    {"off_residual_frac", &Power::off_residual_frac, kNonNegative},
    {"l2_dyn_per_access", &Power::l2_dyn_per_access, kNonNegative},
    {"l2_dyn_per_fill", &Power::l2_dyn_per_fill, kNonNegative},
    {"decay_counter_leak_frac", &Power::decay_counter_leak_frac, kNonNegative},
    {"decay_counter_dyn", &Power::decay_counter_dyn, kNonNegative},
    {"core_leak_per_cycle", &Power::core_leak_per_cycle, kNonNegative},
    {"core_dyn_per_instr", &Power::core_dyn_per_instr, kNonNegative},
    {"l1_leak_per_cycle", &Power::l1_leak_per_cycle, kNonNegative},
    {"l1_dyn_per_access", &Power::l1_dyn_per_access, kNonNegative},
    {"bus_dyn_per_byte", &Power::bus_dyn_per_byte, kNonNegative},
    {"noc_dyn_per_flit_hop", &Power::noc_dyn_per_flit_hop, kNonNegative},
    {"l3_leak_per_line_cycle", &Power::l3_leak_per_line_cycle, kNonNegative},
    {"l3_dyn_per_access", &Power::l3_dyn_per_access, kNonNegative},
    {"l3_dyn_per_fill", &Power::l3_dyn_per_fill, kNonNegative},
    {"dram_act_energy", &Power::dram_act_energy, kNonNegative},
    {"dram_pre_energy", &Power::dram_pre_energy, kNonNegative},
});

template <>
inline constexpr auto kFields<Leakage> = std::to_array<Field<Leakage>>({
    {"t0_kelvin", &Leakage::t0_kelvin, kPositive},
    {"beta", &Leakage::beta, kFinite},
});

template <>
inline constexpr auto kFields<Thermal> = std::to_array<Field<Thermal>>({
    {"ambient_kelvin", &Thermal::ambient_kelvin, kPositive},
    {"watts_per_eu_cycle", &Thermal::watts_per_eu_cycle, kNonNegative},
    {"clock_hz", &Thermal::clock_hz, kPositive},
    {"sample_period", &Thermal::sample_period, kNonzero},
    {"lateral_r", &Thermal::lateral_r, kPositive},
});

template <>
inline constexpr auto kFields<SystemConfig> =
    std::to_array<Field<SystemConfig>>({
        {"num_cores", &SystemConfig::num_cores},
        {"topology", &SystemConfig::topology},
        {"hierarchy", &SystemConfig::hierarchy},
        {"total_l2_bytes", &SystemConfig::total_l2_bytes},
        {"total_l3_bytes", &SystemConfig::total_l3_bytes},
        {"line_bytes", &SystemConfig::line_bytes, kLineBytes},
        {"protocol", &SystemConfig::protocol},
        {"core", &SystemConfig::core},
        {"l1", &SystemConfig::l1},
        {"l2", &SystemConfig::l2},
        {.name = "l3", .member = &SystemConfig::l3, .scope = kThreeLevel},
        {.name = "bus", .member = &SystemConfig::bus, .scope = kSnoopBus},
        {.name = "dmesh", .member = &SystemConfig::dmesh,
         .scope = kDirectoryMesh},
        {"mem", &SystemConfig::mem},
        {"decay", &SystemConfig::decay},
        {"l1_decay", &SystemConfig::l1_decay},
        {"l3_decay", &SystemConfig::l3_decay},
        {"power", &SystemConfig::power},
        {"leakage", &SystemConfig::leakage},
        {"thermal", &SystemConfig::thermal},
        {"thermal_feedback", &SystemConfig::thermal_feedback},
        {"instructions_per_core", &SystemConfig::instructions_per_core},
        {"per_core_instructions", &SystemConfig::per_core_instructions,
         kNonzero},
        {"seed", &SystemConfig::seed},
    });
}  // namespace config_fields

inline constexpr const auto& kSystemConfigFields =
    config_fields::kFields<SystemConfig>;

namespace detail {
template <class Agg, class F, class C>
void walk_config(F& f, const FieldPath* path, FieldScope scope, C& c);

/// Entry I of Agg's table, resolved at compile time: validation folds each
/// leaf's rule into plain code, with no dispatch at run time.
template <class Agg, std::size_t I, class F, class C>
void walk_field(F& f, const FieldPath* path, FieldScope scope, C& c) {
  constexpr const auto& field = config_fields::kFields<Agg>[I];
  constexpr auto member = std::get<field.member.index()>(field.member);
  using T = std::remove_cvref_t<decltype(std::declval<Agg&>().*member)>;
  if constexpr (requires { config_fields::kFields<T>.size(); }) {
    const FieldPath inner{path, field.name};
    walk_config<T>(f, &inner,
                   field.scope == FieldScope::kAlways ? scope : field.scope,
                   c.*member);
  } else {
    f(ConfigLeaf{{path, field.name}, field.rule, scope}, c.*member);
  }
}

template <class Agg, class F, class C>
void walk_config(F& f, const FieldPath* path, FieldScope scope, C& c) {
  static_assert(lists_every_member<Agg>(config_fields::kFields<Agg>),
                "a config table must list each member of its struct once");
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (walk_field<Agg, I>(f, path, scope, c), ...);
  }(std::make_index_sequence<config_fields::kFields<Agg>.size()>{});
}
}  // namespace detail

/// Calls f(leaf, value) for each of the 95 SystemConfig leaves in table
/// order ("num_cores", "l1.size_bytes", "mem.dram.channels", ...), the
/// value mutable where `cfg` is.
template <class F, class C>
void for_each_config_field(F&& f, C& cfg) {
  detail::walk_config<SystemConfig>(f, nullptr, FieldScope::kAlways, cfg);
}

/// Every leaf of `cfg` as name=value, ';'-separated in table order: enums
/// by name, doubles in their shortest exact form, a vector as [a,b]. Equal
/// configs, and only they, describe equally; the text holds no '/' or '|'.
[[nodiscard]] std::string describe(const SystemConfig& cfg);

/// One set of energy books kept over a run: the technique each cache level
/// is accounted under. Until its horizon, agree_until (below) of the view
/// and the run's configs, the view changes what the books charge, never
/// what the machine does, so a run that ends before the horizon yields
/// RunMetrics equal to a standalone run under the view's configs bit for
/// bit (DESIGN.md §3b).
struct AccountingView {
  decay::DecayConfig l1;  ///< In place of SystemConfig::l1_decay.
  decay::DecayConfig l2;  ///< In place of SystemConfig::decay.
  decay::DecayConfig l3;  ///< In place of SystemConfig::l3_decay.

  /// The view a plain run of `cfg` keeps: the config's own techniques.
  static AccountingView of(const SystemConfig& cfg) {
    return {cfg.l1_decay, cfg.decay, cfg.l3_decay};
  }
};

/// The first cycle at which a machine under `a`'s techniques can act
/// differently from the same machine under `b`'s: decay::agree_until at
/// each level, the minimum of the three. decay::kNever within a timing
/// class.
constexpr Cycle agree_until(const AccountingView& a,
                            const AccountingView& b) noexcept {
  return std::min({decay::agree_until(a.l1, b.l1),
                   decay::agree_until(a.l2, b.l2),
                   decay::agree_until(a.l3, b.l3)});
}

/// Validates a SystemConfig, throwing std::invalid_argument with a message
/// that names the field on misconfiguration: each leaf's FieldRule where its
/// struct's FieldScope holds, then the rules that relate fields — core
/// counts the fabric cannot hold, cache geometry at each level, DRAM rows,
/// the mesh's memory tile, decay ticks at each level the machine builds and
/// per-core budgets. CmpSystem's constructor calls this; harnesses can
/// call it early to fail before building workloads.
void validate_system_config(const SystemConfig& cfg);

/// One fully-wired CMP simulation.
class CmpSystem {
 public:
  /// `streams` overrides the benchmark's preset workload streams when set
  /// (fuzzing, trace capture/replay); `bench` still names the run.
  CmpSystem(const SystemConfig& cfg, const workload::Benchmark& bench,
            const workload::StreamFactory& streams = {});
  ~CmpSystem();

  CmpSystem(const CmpSystem&) = delete;
  CmpSystem& operator=(const CmpSystem&) = delete;

  /// Runs all cores to completion of their instruction budgets and closes
  /// the books (final power/thermal sample). The one-view case of the
  /// overload below, keeping AccountingView::of(config()). Call once.
  RunMetrics run();

  /// Runs the machine once and keeps one set of books per view. Returns
  /// one entry per view, in order, set exactly when the run ended strictly
  /// before the view's horizon, agree_until(view, AccountingView::of(
  /// config())): always for a view in the run's timing class, never for
  /// one at horizon 0. Throws std::invalid_argument, before simulating,
  /// when `views` is empty. Call once (either overload).
  std::vector<std::optional<RunMetrics>> run(
      const std::vector<AccountingView>& views);

  /// Attaches a differential-verification observer to every component that
  /// reports data movement (L1s, L2s, bus). Must be called before run().
  void set_observer(verify::AccessObserver* obs);

  /// Attaches a timeline trace recorder to every instrumented component
  /// (cores, caches, fabric, memory side, TLBs), registering one track per
  /// component in a fixed order. Observer-only: attaching a recorder never
  /// changes simulated state (the golden pins hold either way). nullptr
  /// detaches. Must be called before run().
  void set_trace_recorder(obs::TraceRecorder* rec);

  /// Attaches a windowed time-series sampler. The run loop — not the event
  /// queue — drives it, so a sampler can never perturb the event schedule.
  /// A window closes at the first event executed at or after each multiple
  /// of the period, so its counters are read exactly when they are current.
  /// nullptr detaches. Must be called before run().
  void set_sampler(obs::IntervalSampler* s);

  // --- component access (tests, custom harnesses) -------------------------
  [[nodiscard]] EventQueue& events() noexcept { return eq_; }
  [[nodiscard]] core::CoreModel& core_model(CoreId c) { return *cores_.at(c); }
  [[nodiscard]] L1Cache& l1(CoreId c) { return *l1s_.at(c); }
  [[nodiscard]] L2Cache& l2(CoreId c) { return *l2s_.at(c); }
  /// The snoopy bus (topology kSnoopBus only; asserts otherwise).
  [[nodiscard]] bus::SnoopBus& bus() noexcept {
    CDSIM_ASSERT(bus_ != nullptr);
    return *bus_;
  }
  /// The directory mesh (topology kDirectoryMesh only; asserts otherwise).
  [[nodiscard]] noc::DirectoryMesh& mesh() noexcept {
    CDSIM_ASSERT(mesh_ != nullptr);
    return *mesh_;
  }
  /// The shared L3 (hierarchy kThreeLevel only; asserts otherwise).
  [[nodiscard]] L3Cache& l3() noexcept {
    CDSIM_ASSERT(l3_ != nullptr);
    return *l3_;
  }
  [[nodiscard]] bool has_l3() const noexcept { return l3_ != nullptr; }
  [[nodiscard]] mem::MemoryController& memory() noexcept { return *mem_; }
  [[nodiscard]] const SystemConfig& config() const noexcept { return cfg_; }

  /// Invariant checker used by property tests: at most one M/E/TD copy of
  /// any line system-wide, and every L1 line is backed by a valid L2 line.
  /// Aborts (assert) on violation; returns lines checked.
  std::uint64_t check_coherence_invariants() const;

 private:
  /// The machine's cumulative counters at one instant, every cache level
  /// read under one view's techniques. The difference of two snapshots is
  /// what a power sample charges and what a sampler row reports.
  struct MachineCounters {
    Cycle now = 0;
    std::vector<std::uint64_t> committed{};  ///< Per core.
    std::vector<cache::LevelCounters> l1{};  ///< Per core.
    std::vector<cache::LevelCounters> l2{};  ///< Per slice.
    cache::LevelCounters l3{};               ///< All banks (3L only).
    /// What the fabric's §V energy scales with: bus payload bytes, or
    /// mesh flit-hops (more hops, more switching).
    std::uint64_t fabric_traffic = 0;
    double fabric_utilization = 0.0;  ///< Cumulative over [0, now].
    mem::DramStats dram{};
  };

  /// What one accounting view keeps: its ledger, its floorplan (leakage
  /// heats the blocks, so temperatures differ between views) and its
  /// snapshot at the previous power sample.
  struct Books {
    AccountingView view;
    thermal::Floorplan floorplan;
    power::EnergyLedger ledger{};
    MachineCounters prev{};
  };

  [[nodiscard]] MachineCounters snapshot(Cycle now,
                                         const AccountingView& view) const;
  /// Fresh books for `view`, its floorplan warm-started near equilibrium.
  [[nodiscard]] Books open_books(const AccountingView& view) const;
  /// Charges [last sample, upto) to every view's books.
  void sample_power(Cycle upto);
  void sample_books(Books& b, Cycle upto);
  void arm_sampler();
  /// Emits the time-series window [previous window end, wend).
  void sample_window(Cycle wend);
  RunMetrics collect(const Books& b, Cycle end) const;

  SystemConfig cfg_;
  const workload::Benchmark& bench_;

  EventQueue eq_;
  std::unique_ptr<mem::MemoryController> mem_;
  std::unique_ptr<bus::SnoopBus> bus_;    ///< kSnoopBus (else null).
  std::unique_ptr<noc::DirectoryMesh> mesh_;  ///< kDirectoryMesh (else null).
  noc::Interconnect* ic_ = nullptr;       ///< Whichever of the two exists.
  std::vector<std::unique_ptr<workload::WorkloadStream>> streams_;
  std::vector<std::unique_ptr<L1Cache>> l1s_;
  std::vector<std::unique_ptr<L2Cache>> l2s_;
  std::unique_ptr<L3Cache> l3_;  ///< kThreeLevel only (else null).
  /// Per-core TLB interposers (mem.tlb.enabled only, else empty). Declared
  /// between the L1s they wrap and the cores that load through them so
  /// destruction order stays reference-safe.
  std::vector<std::unique_ptr<mem::TlbPort>> tlbs_;
  std::vector<std::unique_ptr<core::CoreModel>> cores_;
  power::LeakageModel leak_model_;

  /// One per accounting view, opened by run().
  std::vector<Books> books_;
  std::uint32_t cores_done_ = 0;
  bool ran_ = false;

  // Time-series sampling state (cdsim::obs). The sampler keeps its own
  // snapshot, taken under the first view at its window ends, apart from
  // the books' power-sample snapshots, so it never disturbs them.
  obs::IntervalSampler* sampler_ = nullptr;
  Cycle sampler_next_ = 0;           ///< Next window boundary.
  MachineCounters sampler_start_{};  ///< At the open window's start.
};

}  // namespace cdsim::sim
