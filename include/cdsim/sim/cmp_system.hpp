#pragma once
// CmpSystem: the paper's evaluation platform in one object.
//
// 4 (configurable) out-of-order cores, each with a private write-through L1
// and a private inclusive L2; MESI snooping on a shared pipelined bus; a
// bandwidth-limited memory channel behind it; per-block RC thermal model
// sampled every 10K cycles feeding a temperature-dependent leakage model
// (§V of the paper). One leakage technique (baseline / protocol / decay /
// selective decay) drives each level's timing per run; the energy books can
// be kept under several techniques of that timing class at once
// (AccountingView).

#include <cstdint>
#include <memory>
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
  /// Snooping protocol of the L2 slices (paper §III: MESI; the MOESI
  /// extension realizes the §III sketch for the Owned state).
  coherence::Protocol protocol = coherence::Protocol::kMesi;

  core::CoreConfig core;
  L1Config l1;
  L2Config l2;  ///< size_bytes/protocol are overridden from the above.
  L3Config l3;  ///< bank_bytes is overridden from total_l3_bytes (3L only).
  bus::BusConfig bus;      ///< Used when topology == kSnoopBus.
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

/// One set of energy books kept over a run: the technique each cache level
/// is accounted under. A view must lie in the run's timing class — every
/// level's config decay::same_timing with the SystemConfig's — so it
/// changes what the books charge, never what the machine does, and its
/// RunMetrics equal a standalone run under the view's configs bit for bit
/// (DESIGN.md §3b).
struct AccountingView {
  decay::DecayConfig l1;  ///< In place of SystemConfig::l1_decay.
  decay::DecayConfig l2;  ///< In place of SystemConfig::decay.
  decay::DecayConfig l3;  ///< In place of SystemConfig::l3_decay.

  /// The view a plain run of `cfg` keeps: the config's own techniques.
  static AccountingView of(const SystemConfig& cfg) {
    return {cfg.l1_decay, cfg.decay, cfg.l3_decay};
  }
};

/// Validates a SystemConfig, throwing std::invalid_argument with a message
/// that names the field on misconfiguration: core counts the fabric cannot
/// hold, cache geometry at any level, zero depths, widths and latencies a
/// component asserts on, DRAM/TLB/mesh parameters of the selected models,
/// decay and thermal settings, or a per-core instruction vector of the
/// wrong length. CmpSystem's constructor calls this; harnesses can call it
/// early to fail before building workloads.
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

  /// Runs the machine once and keeps one set of books per view: one
  /// RunMetrics per view, in order. Throws std::invalid_argument, before
  /// simulating, when `views` is empty or a view is outside the run's
  /// timing class. Call once (either overload).
  std::vector<RunMetrics> run(const std::vector<AccountingView>& views);

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
  /// Window boundaries are quantized to event execution times (deltas stay
  /// exact and deterministic at event granularity). nullptr detaches. Must
  /// be called before run().
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
  /// What one accounting view keeps: its ledger, its floorplan (leakage
  /// heats the blocks, so temperatures differ between views) and its
  /// counter snapshots at the previous power sample.
  struct Books {
    AccountingView view;
    thermal::Floorplan floorplan;
    power::EnergyLedger ledger{};
    std::vector<std::uint64_t> prev_committed;
    std::vector<cache::LevelCounters> prev_l1;  ///< Per core.
    std::vector<cache::LevelCounters> prev_l2;  ///< Per slice.
    cache::LevelCounters prev_l3{};             ///< All banks.
    std::uint64_t prev_bus_bytes = 0;
    std::uint64_t prev_noc_flit_hops = 0;
    std::uint64_t prev_dram_act = 0;
    std::uint64_t prev_dram_pre = 0;
  };

  /// Fresh books for `view`, its floorplan warm-started near equilibrium.
  [[nodiscard]] Books open_books(const AccountingView& view) const;
  /// Charges [last sample, upto) to every view's books.
  void sample_power(Cycle upto);
  void sample_books(Books& b, Cycle upto, double dtd);
  void arm_sampler();
  /// Emits one time-series window [wstart, wend) from counter deltas.
  void sample_window(Cycle wstart, Cycle wend);
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
  Cycle last_sample_ = 0;  ///< End of the last power sample.

  // Time-series sampling state (cdsim::obs). Kept strictly separate from
  // the power-sampling snapshots in books_: the sampler reads counters at
  // its own window boundaries, under the first view, and must never
  // disturb the power model's deltas.
  obs::IntervalSampler* sampler_ = nullptr;
  Cycle sampler_wstart_ = 0;      ///< Start of the open window.
  Cycle sampler_next_ = 0;        ///< Next window boundary.
  std::uint64_t s_prev_instr_ = 0;
  cache::LevelCounters s_prev_l2_;  ///< Summed over the slices.
  std::uint64_t s_prev_row_hits_ = 0;
  std::uint64_t s_prev_row_activity_ = 0;
  double s_prev_fabric_busy_ = 0.0;
};

}  // namespace cdsim::sim
