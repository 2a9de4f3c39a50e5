#pragma once
// Experiment driver shared by the figure benches, examples and tests.
//
// The paper's evaluation grid is: 6 benchmarks x {1,2,4,8} MB total L2 x
// 7 techniques (protocol, decay/sel_decay x {512K,128K,64K}) plus the
// always-on baseline every number is normalized against. This driver runs
// whole machines — that grid and any other — and caches every result so
// each bench only pays for what it prints.

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cdsim/decay/technique.hpp"
#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/sim/metrics.hpp"
#include "cdsim/workload/benchmarks.hpp"

namespace cdsim::sim {

namespace detail {
/// Strict base-10 parse of a 64-bit integer: rejects empty strings,
/// signs, whitespace, trailing garbage, and overflow. The one number
/// syntax of the CDSIM_* environment variables and the tools' flags, so a
/// typo'd value fails loudly instead of silently becoming another number.
std::optional<std::uint64_t> parse_u64(const char* s) noexcept;
/// parse_u64 that also rejects zero.
std::optional<std::uint64_t> parse_positive_u64(const char* s) noexcept;
/// The per-core instruction budget under the CDSIM_INSTR override: the
/// variable's value when set, else `fallback`. A set value that is not a
/// positive decimal count is reported on stderr, prefixed by `who`, and
/// yields nullopt; the caller decides how to exit.
std::optional<std::uint64_t> instructions_from_env(std::uint64_t fallback,
                                                   const char* who);
}  // namespace detail

/// Deterministic seed derived from a configuration description string by
/// hashing it and whitening through Xoshiro256. run_config seeds every
/// (benchmark, size, instructions) cell with this — the technique and the
/// cache version are deliberately excluded, so every technique faces the
/// identical workload stream as its baseline (paired comparison) and
/// cache-format bumps never change simulation results. A pure function of
/// its input, which is what makes the parallel sweep bit-identical to the
/// serial one.
std::uint64_t derive_config_seed(std::string_view config) noexcept;

/// The always-on baseline configuration every figure normalizes against.
decay::DecayConfig baseline_config();

/// The paper's seven techniques (Figure legends, left to right).
std::vector<decay::DecayConfig> paper_technique_set();

/// The paper's total-L2 sweep: 1, 2, 4, 8 MB.
std::vector<std::uint64_t> paper_cache_sizes();

/// Builds the default SystemConfig of the paper's platform (4 cores,
/// parameters of §V) with the given total L2 size and technique.
SystemConfig make_system_config(std::uint64_t total_l2_bytes,
                                const decay::DecayConfig& technique);

/// The exact SystemConfig run_config simulates for (cfg, bench): `cfg`
/// with the deterministic per-cell seed mixed in. Exposed so harnesses
/// that need to own the CmpSystem themselves (bench_kernel, custom
/// drivers) simulate the identical stream — if the seeding recipe ever
/// changes, it changes in exactly one place.
SystemConfig normalized_run_config(const SystemConfig& cfg,
                                   const workload::Benchmark& bench);

/// Runs one configuration to completion. Throws std::invalid_argument for
/// a config validate_system_config rejects, e.g. a decaying L2 with
/// decay_time 0. CDSIM_VERIFY=1 attaches the differential oracle and
/// aborts on a divergence; CDSIM_VERIFY_TRACE=<dir> then also captures
/// the run's op sequence as <dir>/<bench>_<L2 label>_s<seed>_<hash>.cdt,
/// <hash> being 8 hex digits of describe() of the simulated config, so
/// machines that share a benchmark, technique and seed keep one file each.
RunMetrics run_config(const SystemConfig& cfg,
                      const workload::Benchmark& bench);

/// Runs one configuration once and keeps books for each accounting view
/// (CmpSystem::run): one entry per view, in order, set when the run ended
/// before the view's horizon and then equal to run_config under the view's
/// techniques.
std::vector<std::optional<RunMetrics>> run_config(
    const SystemConfig& cfg, const workload::Benchmark& bench,
    const std::vector<AccountingView>& views);

/// One cell of an ExperimentRunner fill: a whole machine and the benchmark
/// it runs.
struct MachineCell {
  SystemConfig config;
  const workload::Benchmark* bench = nullptr;
};

/// Outcome of one ExperimentRunner::run_machines or run_grid call.
struct SweepStats {
  /// Results this call produced rather than read from the memo map or the
  /// disk cache, accounting views included.
  std::size_t simulated = 0;
  /// CmpSystem runs that produced them: a function of the cells, the
  /// worker count and the end cycles of the runs that may serve riders,
  /// never of thread timing.
  std::size_t timing_runs = 0;
  std::size_t reused = 0;       ///< Served from the memo map / disk cache.
  unsigned workers = 0;         ///< Worker count used (0 when nothing ran).
};

/// What ExperimentRunner::run_machines returns.
struct MachineResults {
  std::vector<RunMetrics> metrics;  ///< One per cell, in cell order.
  SweepStats stats;
};

/// Runs whole machines on demand, memoizing results (baselines are shared
/// by every figure series).
///
/// A result is keyed by its benchmark and every leaf of its machine:
/// "<bench>/<total_l2_bytes>/<L2 label>/<describe(config)>/<version>".
/// Results are also kept in a text cache file so the per-figure bench
/// binaries share one sweep instead of each re-simulating the grid.
/// Cache location: $CDSIM_CACHE_FILE, default "cdsim_results.cache" in the
/// working directory; delete the file (or change CDSIM_INSTR) to re-run.
/// The file is an append-only log, "<key>|<payload>|<checksum>" per line,
/// the checksum being 16 hex digits of FNV-1a over the text before its
/// bar. Each fill appends one line per result it made, in cell order, in
/// one append-mode write, and nothing else writes the file: bench binaries
/// and runners sharing it lose nothing, and a killed process loses only
/// the fill it was in. Loading keeps the first valid line of each key and
/// skips duplicates, other versions' lines and lines whose checksum fails
/// (a torn tail, an edited digit). Nothing rewrites those dead lines; they
/// stay until the file is deleted.
///
/// All public methods are thread-safe; simulations run outside the lock.
class ExperimentRunner {
 public:
  /// @param instructions_per_core 0 = keep the platform default. The
  ///        CDSIM_INSTR environment variable overrides either.
  /// @param cache_path overrides the disk-cache location when nonempty
  ///        (tests use this for isolated temporary caches); empty = use
  ///        $CDSIM_CACHE_FILE or the default.
  /// Throws std::invalid_argument, naming the variable, when CDSIM_INSTR is
  /// set but not a positive decimal count, or CDSIM_CACHE_FILE is set but
  /// empty.
  explicit ExperimentRunner(std::uint64_t instructions_per_core = 0,
                            std::string cache_path = {});

  /// Results for whole machines, one per cell in order: the memoized ones
  /// read back, the rest made with at most one simulation per timing class
  /// — cells of one machine whose techniques agree for the whole run
  /// (sim::agree_until) share a run, as accounting views, and a decaying
  /// class may be served by another class's run that ended before the two
  /// could differ — on `workers` threads (0 = one per hardware thread),
  /// round-robin over the machines. Each config runs as given, its
  /// instruction budget included. Bit-identical to run_config of each
  /// cell.
  MachineResults run_machines(const std::vector<MachineCell>& cells,
                              unsigned workers = 0);

  /// Result for (benchmark, size, technique) on the paper's platform
  /// (make_system_config at instructions_per_core()); runs it on first use,
  /// by itself on the calling thread. The serial reference run_grid is
  /// checked against.
  const RunMetrics& run(const workload::Benchmark& bench,
                        std::uint64_t total_l2_bytes,
                        const decay::DecayConfig& technique);

  /// Fills the (benchmark x size x technique) grid — plus the baseline run
  /// of every (benchmark, size) cell, which all relative metrics need —
  /// through run_machines: a (benchmark, size) cell's baseline and
  /// protocol come from one run, as two accounting views.
  SweepStats run_grid(const std::vector<workload::Benchmark>& benchmarks,
                      const std::vector<std::uint64_t>& sizes,
                      const std::vector<decay::DecayConfig>& techniques,
                      unsigned workers = 0);

  /// Technique metrics normalized against the matching baseline run.
  RelativeMetrics relative(const workload::Benchmark& bench,
                           std::uint64_t total_l2_bytes,
                           const decay::DecayConfig& technique);

  /// Average of `relative` over the whole benchmark suite — the paper's
  /// "average across the benchmarks" figures (3, 4, 5).
  RelativeMetrics suite_average(std::uint64_t total_l2_bytes,
                                const decay::DecayConfig& technique);

  [[nodiscard]] std::uint64_t instructions_per_core() const noexcept {
    return instructions_;
  }

  [[nodiscard]] const std::string& cache_path() const noexcept {
    return cache_path_;
  }

 private:
  /// The paper-grid cell of (benchmark, size, technique).
  [[nodiscard]] MachineCell grid_cell(
      const workload::Benchmark& bench, std::uint64_t total_l2_bytes,
      const decay::DecayConfig& technique) const;
  /// The one way results are made: drops the cells already memoized (or
  /// listed twice), groups the rest by machine and each machine's by timing
  /// class, runs at most one simulation per class on `workers` threads,
  /// round-robin over the machines — a decaying class may ride on its
  /// driver's run as extra views (DESIGN.md §3b) — and memoizes the
  /// results in cell order, appending each new one to the cache file. The
  /// one writer of the file.
  SweepStats fill(const std::vector<MachineCell>& cells, unsigned workers);
  void load_disk_cache();

  std::uint64_t instructions_ = 0;
  std::string cache_path_;
  std::mutex mu_;  ///< Guards cache_, persist_warned_ and the appends.
  std::map<std::string, RunMetrics> cache_;
  bool persist_warned_ = false;  ///< One-time unwritable-cache warning fired.
};

}  // namespace cdsim::sim
