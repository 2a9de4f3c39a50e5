#pragma once
// Adversarial fuzz driver for the differential-verification oracle.
//
// run_fuzz() sweeps a matrix of hostile scenarios — {MESI, MOESI} x
// {baseline, protocol, decay, selective decay} x several decay times x
// {snoop bus @4 cores, directory mesh @8/16 cores} x {two, three levels} x
// {flat, DRAM} x seeds — each driving a contended CMP with FuzzerWorkload
// streams while DifferentialChecker shadows every data movement. A
// scenario is a machine (a whole sim::SystemConfig, run as given) plus
// the workload that attacks it, so any valid machine can be fuzzed by
// assigning it to FuzzScenario::machine. Every scenario is captured to a
// Trace as it runs, so a divergence immediately yields a replayable repro;
// failures are greedily shrunk (verify/shrink.hpp) and, when a report
// directory is configured, written next to a plain-text failure report
// (the scenario's label and describe() of its machine) as .cdt files CI
// can upload.

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

/// Which matrix fuzz_matrix builds.
enum class FuzzMatrix : std::uint8_t {
  kFull,  ///< Every block: bus and mesh, two and three levels, DRAM, mixes.
  /// 16-core directory-mesh cells only (the CI many-core smoke gate):
  /// hot-home + all-to-all NoC stress.
  kDmeshSmoke,
  /// Three-level cells only (the CI three-level smoke gate): private L2s
  /// behind the shared L3 banks, decay active at every level.
  kThreeLevelSmoke,
};

struct FuzzOptions {
  /// Total scenarios; the matrix repeats with fresh seeds until this many
  /// ran.
  std::size_t scenarios = 208;
  std::uint64_t base_seed = 0x5eedu;
  /// When nonempty, each failure writes fuzz_<i>.cdt, fuzz_<i>.min.cdt and
  /// fuzz_<i>.report.txt into this directory (created if missing).
  std::string report_dir;
  bool shrink_failures = true;
  std::size_t max_failures = 4;  ///< Stop keeping detail after this many.
  /// TEST-ONLY: arm the L2's lost-write-back fault in every scenario, so
  /// the capture -> shrink -> report pipeline itself can be exercised.
  bool inject_writeback_loss = false;
  FuzzMatrix matrix = FuzzMatrix::kFull;
};

/// A machine of the fuzz family: `cores` cores of `protocol` on `topology`
/// with `hierarchy` and `memory`, `l2_bytes_per_core` of L2 per core, and
/// `decay` at the L2. The family's fixed choices: an 8 KiB L1, so the L2
/// (where the turn-off machinery lives) stays in the line of fire; a
/// 30K-instruction budget per core; decay_time 0 when the technique does
/// not decay; on three levels an 8-way L3 at 4x the L2, with the technique
/// at L1 and L3 too, so the oracle sees turn-off edges at all three levels
/// interleaved; on kDram per-core 16-entry TLBs and a 4096-cycle refresh
/// interval (t_rfc 64), so walks, refresh stalls and row-buffer churn all
/// fire within a run.
[[nodiscard]] sim::SystemConfig fuzz_machine(
    coherence::Protocol protocol = coherence::Protocol::kMesi,
    decay::DecayConfig decay = {},
    noc::Topology topology = noc::Topology::kSnoopBus,
    std::uint32_t cores = 4,
    sim::Hierarchy hierarchy = sim::Hierarchy::kTwoLevel,
    mem::MemoryModel memory = mem::MemoryModel::kFlat,
    std::uint64_t l2_bytes_per_core = 32 * KiB);

/// One fuzz scenario, self-contained and replayable.
struct FuzzScenario {
  std::size_t index = 0;
  /// The machine under test, run as given; the fuzzer takes its core
  /// count, line size and issue width from it.
  sim::SystemConfig machine = fuzz_machine();
  /// Multi-program cell: 0 runs the classic homogeneous fuzzer on every
  /// core; N > 0 co-schedules N distinct fuzzer personalities (core c runs
  /// program c % N) with a rate-mode "hot tenant" budget skew — the cores
  /// running program 0 get a doubled instruction budget, so they keep
  /// issuing after their neighbours retire.
  std::uint32_t programs = 0;
  workload::FuzzerConfig fuzz;
  /// Arms every L2's test-only lost-write-back fault
  /// (L2Cache::inject_lost_decay_writeback) after the machine is built: the
  /// bug the suite proves the oracle catches.
  bool inject_writeback_loss = false;

  [[nodiscard]] std::string label() const;
};

/// The scenario's streams: FuzzerWorkload shaped by `sc.machine`, one
/// personality per program in a multi-program cell. The factory keeps its
/// own copies, so it may outlive `sc`.
[[nodiscard]] workload::StreamFactory fuzz_streams(const FuzzScenario& sc);

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

/// Runs `sc.machine` on fuzz_streams(sc) with the oracle attached, the
/// hot-tenant budget skew applied in a multi-program cell; `capture`
/// records the ops.
ScenarioOutcome run_scenario(const FuzzScenario& sc, bool capture = true);

/// Replays `trace` on `sc.machine` with the trace's per-core budgets and
/// the oracle attached (used by the shrinker's predicate and by repro
/// tooling).
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
