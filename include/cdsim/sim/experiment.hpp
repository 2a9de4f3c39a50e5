#pragma once
// Experiment driver shared by the figure benches, examples and tests.
//
// The paper's evaluation grid is: 6 benchmarks x {1,2,4,8} MB total L2 x
// 7 techniques (protocol, decay/sel_decay x {512K,128K,64K}) plus the
// always-on baseline every number is normalized against. This driver runs
// single configurations and caches baseline results so each figure bench
// only pays for what it prints.

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
/// the run's op sequence as <dir>/<bench>_<technique>_s<seed>.cdt.
RunMetrics run_config(const SystemConfig& cfg,
                      const workload::Benchmark& bench);

/// Runs one configuration once and returns one RunMetrics per accounting
/// view (CmpSystem::run), each equal to run_config under the view's
/// techniques. Throws std::invalid_argument for a view outside the timing
/// class.
std::vector<RunMetrics> run_config(const SystemConfig& cfg,
                                   const workload::Benchmark& bench,
                                   std::vector<AccountingView> views);

/// Outcome of one ExperimentRunner::run_grid call.
struct SweepStats {
  /// Results this call produced rather than read from the memo map or the
  /// disk cache, accounting views included.
  std::size_t simulated = 0;
  std::size_t timing_runs = 0;  ///< CmpSystem runs that produced them.
  std::size_t reused = 0;       ///< Served from the memo map / disk cache.
  unsigned workers = 0;         ///< Worker count used (0 when nothing ran).
};

/// Runs configurations on demand, memoizing results (baselines are shared
/// by every figure series).
///
/// Results are also persisted to a small text cache file so the per-figure
/// bench binaries share one sweep instead of each re-simulating the grid.
/// Cache location: $CDSIM_CACHE_FILE, default "cdsim_results.cache" in the
/// working directory; delete the file (or change CDSIM_INSTR) to re-run.
/// The cache file is replaced atomically (temp file + rename) and merged
/// with concurrent writers' entries, so parallel bench binaries sharing one
/// cache can never corrupt it. The merge is best-effort, not transactional:
/// two processes persisting at the same instant can drop the other's newest
/// entries (they are simply re-simulated later). Persistence happens at the
/// end of each
/// run_grid call, on destruction, and every kPersistEvery-th new serial
/// result (not per run(): a cold serial sweep would otherwise rewrite the
/// file once per configuration).
///
/// All public methods are thread-safe; simulations run outside the lock.
class ExperimentRunner {
 public:
  /// @param instructions_per_core 0 = keep the platform default. The
  ///        CDSIM_INSTR environment variable overrides either.
  /// @param cache_path overrides the disk-cache location when nonempty
  ///        (tests use this for isolated temporary caches); empty = use
  ///        $CDSIM_CACHE_FILE or the default.
  explicit ExperimentRunner(std::uint64_t instructions_per_core = 0,
                            std::string cache_path = {});
  ~ExperimentRunner();

  /// Result for (benchmark, size, technique); runs it on first use, by
  /// itself on the calling thread. The serial reference run_grid is
  /// checked against.
  const RunMetrics& run(const workload::Benchmark& bench,
                        std::uint64_t total_l2_bytes,
                        const decay::DecayConfig& technique);

  /// Fills the (benchmark x size x technique) grid — plus the baseline run
  /// of every (benchmark, size) cell, which all relative metrics need —
  /// with one simulation per timing class of not-yet-cached cells on
  /// `workers` threads (0 = one per hardware thread): a (benchmark, size)
  /// cell's baseline and protocol come from one run, as two accounting
  /// views. The simulations go out round-robin over the (benchmark, size)
  /// cells. Results are merged into the memo map and persisted once at the
  /// end. Bit-identical to calling run() for each cell serially.
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
  /// Version-free configuration description
  /// (benchmark/bytes/label/raw-decay-params/instructions): the prefix of
  /// the memo key. Sizes are kept in bytes and decay parameters verbatim
  /// so distinct configurations never collide.
  [[nodiscard]] std::string config_desc(
      const workload::Benchmark& bench, std::uint64_t total_l2_bytes,
      const decay::DecayConfig& technique) const;
  /// Memo key: config_desc plus "/<cache version>".
  [[nodiscard]] std::string key_for(const workload::Benchmark& bench,
                                    std::uint64_t total_l2_bytes,
                                    const decay::DecayConfig& technique) const;
  /// One (benchmark, size, technique) configuration.
  struct Cell {
    const workload::Benchmark* bench = nullptr;
    std::uint64_t total_l2_bytes = 0;
    decay::DecayConfig technique;
  };
  /// The one way results are made: drops the cells already memoized (or
  /// listed twice), groups each (benchmark, size)'s missing techniques by
  /// timing class, runs one simulation per group on `workers` threads
  /// (0 = one per hardware thread), round-robin over the (benchmark, size)
  /// pairs, and memoizes the results in cell order. Persists nothing.
  SweepStats fill(const std::vector<Cell>& cells, unsigned workers);
  void load_disk_cache();
  /// Atomically rewrites the cache file (temp + rename) with the union of
  /// on-disk and in-memory entries, dropping lines from other cache
  /// versions and corrupt lines. Caller must hold mu_.
  void persist_disk_cache_locked();

  /// Serial run() persists after this many new results (run_grid persists
  /// once at the end regardless), bounding loss on an interrupted sweep.
  static constexpr std::size_t kPersistEvery = 16;

  std::uint64_t instructions_ = 0;
  std::string cache_path_;
  std::mutex mu_;  ///< Guards cache_, dirty_, unsaved_, and persistence.
  std::map<std::string, RunMetrics> cache_;
  bool dirty_ = false;        ///< In-memory results not yet persisted.
  std::size_t unsaved_ = 0;   ///< New results since the last persist.
  bool persist_warned_ = false;  ///< One-time unwritable-cache warning fired.
};

}  // namespace cdsim::sim
