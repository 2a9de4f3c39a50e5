#pragma once
// Adversarial fuzz driver for the differential-verification oracle.
//
// run_fuzz() sweeps a matrix of hostile scenarios — {MESI, MOESI} x
// {baseline, protocol, decay, selective decay} x several decay times x
// {snoop bus @4 cores, directory mesh @8/16 cores} x seeds — each driving
// a contended CMP with FuzzerWorkload streams
// while DifferentialChecker shadows every data movement. Every scenario is
// captured to a Trace as it runs, so a divergence immediately yields a
// replayable repro; failures are greedily shrunk (verify/shrink.hpp) and,
// when a report directory is configured, written next to a plain-text
// failure report as .cdt files CI can upload.

#include <cstdint>
#include <string>
#include <vector>

#include "cdsim/coherence/mesi.hpp"
#include "cdsim/decay/technique.hpp"
#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/verify/oracle.hpp"
#include "cdsim/workload/fuzzer.hpp"
#include "cdsim/workload/trace_file.hpp"

namespace cdsim::verify {

struct FuzzOptions {
  /// Total scenarios; the 32-cell (protocol x technique x decay-time x
  /// topology) matrix repeats with fresh seeds until this many ran.
  std::size_t scenarios = 208;
  std::uint64_t base_seed = 0x5eedu;
  std::uint64_t instructions_per_core = 30000;
  /// When nonempty, each failure writes fuzz_<i>.cdt, fuzz_<i>.min.cdt and
  /// fuzz_<i>.report.txt into this directory (created if missing).
  std::string report_dir;
  bool shrink_failures = true;
  std::size_t max_failures = 4;  ///< Stop keeping detail after this many.
  /// TEST-ONLY: arm the L2's lost-write-back fault in every scenario, so
  /// the capture -> shrink -> report pipeline itself can be exercised.
  bool inject_writeback_loss = false;
  /// Restrict the matrix to 16-core directory-mesh cells (the CI
  /// many-core smoke gate): hot-home + all-to-all NoC stress only.
  bool dmesh_only = false;
  /// Restrict the matrix to three-level-hierarchy cells (the CI
  /// three-level smoke gate): private L2s behind the shared L3 banks,
  /// decay active at every level.
  bool three_level_only = false;
};

/// One cell of the fuzz matrix, self-contained and replayable.
struct FuzzScenario {
  std::size_t index = 0;
  coherence::Protocol protocol = coherence::Protocol::kMesi;
  noc::Topology topology = noc::Topology::kSnoopBus;
  sim::Hierarchy hierarchy = sim::Hierarchy::kTwoLevel;
  decay::DecayConfig decay;
  std::uint32_t num_cores = 4;
  std::uint64_t total_l2_bytes = 128 * KiB;
  /// Shared-L3 capacity for three-level cells (decay runs at every level
  /// there: the scenario's technique is applied at L1, L2, and L3).
  std::uint64_t total_l3_bytes = 0;
  std::uint64_t instructions_per_core = 30000;
  std::uint64_t seed = 1;
  /// Multi-program cell: 0 runs the classic homogeneous fuzzer on every
  /// core; N > 0 co-schedules N distinct fuzzer personalities (core c runs
  /// program c % N) with a rate-mode "hot tenant" budget skew — the cores
  /// running program 0 get a doubled instruction budget, so they keep
  /// issuing after their neighbours retire.
  std::uint32_t programs = 0;
  /// Memory model behind the fabric. kDram cells run the banked DRAM
  /// controller with per-core TLBs enabled — the oracle must see identical
  /// values to a flat run (only timing may differ).
  mem::MemoryModel mem_model = mem::MemoryModel::kFlat;
  workload::FuzzerConfig fuzz;
  /// Arms every L2's test-only lost-write-back fault
  /// (L2Cache::inject_lost_decay_writeback) after the machine is built: the
  /// bug the suite proves the oracle catches.
  bool inject_writeback_loss = false;

  [[nodiscard]] std::string label() const;
  [[nodiscard]] sim::SystemConfig system_config() const;
};

/// The deterministic scenario matrix for `opts`.
std::vector<FuzzScenario> fuzz_matrix(const FuzzOptions& opts);

/// Result of one checked run (fresh generation or trace replay).
struct ScenarioOutcome {
  sim::RunMetrics metrics;
  std::vector<Divergence> divergences;  ///< First few, with detail.
  std::uint64_t total_divergences = 0;
  std::uint64_t loads_checked = 0;
  std::uint64_t fills_checked = 0;
  std::uint64_t writes_serialized = 0;
  std::uint64_t owned_downgrades = 0;  ///< MOESI M->O transitions seen.
  workload::Trace trace;               ///< Captured ops (when capturing).
};

/// Runs one scenario with the oracle attached; `capture` records the ops.
ScenarioOutcome run_scenario(const FuzzScenario& sc, bool capture = true);

/// Replays `trace` under the scenario's configuration with the oracle
/// attached (used by the shrinker's predicate and by repro tooling).
ScenarioOutcome replay_scenario(const FuzzScenario& sc,
                                const workload::Trace& trace);

struct FuzzFailure {
  FuzzScenario scenario;
  std::vector<Divergence> divergences;
  workload::Trace trace;   ///< Full captured repro.
  workload::Trace shrunk;  ///< Minimized repro (empty if shrinking off).
};

struct FuzzReport {
  std::size_t scenarios_run = 0;
  std::uint64_t loads_checked = 0;
  std::uint64_t fills_checked = 0;
  std::uint64_t writes_serialized = 0;
  std::uint64_t divergences = 0;
  std::uint64_t owned_downgrades = 0;
  std::vector<FuzzFailure> failures;
};

FuzzReport run_fuzz(const FuzzOptions& opts = {});

}  // namespace cdsim::verify
