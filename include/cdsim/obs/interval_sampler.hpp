#pragma once
// Windowed time-series sampler: the second half of cdsim::obs.
//
// RunMetrics is an end-of-run aggregate; the IntervalSampler exposes the
// dynamics between cycle 0 and the end. CmpSystem drives it from its own
// run loop — NOT from EventQueue events — so attaching a sampler cannot
// change the event schedule and the golden hexfloat pins hold with a
// sampler attached or detached. A row is the difference of two snapshots
// of the machine's counters (the same snapshot its power books take):
// CmpSystem takes one before the components start and one at the first
// event executed at or after each multiple of `period`, and pushes the
// difference (instructions, L2 accesses / misses, powered-line integral,
// DRAM row activity, fabric busy cycles) plus the per-tile temperatures
// at the window's end. The rows tile [0, end of run), and their counts
// sum to the run's totals.
//
// Determinism: every field derives from deterministic simulator counters,
// so the series for a pinned config is bit-stable across runs and
// platforms. The sampler folds each row into a running FNV-1a checksum
// over the *raw IEEE-754 bit patterns* of its fields (never the formatted
// text — printf float formatting has per-libc freedom), and obs_test pins
// that checksum next to the hexfloat RunMetrics pins. The CSV output is
// for humans and plotting; the checksum is the contract.

#include <cstdint>
#include <cstdio>
#include <string>

#include "cdsim/common/types.hpp"

namespace cdsim::obs {

/// One window of the time-series. All deltas cover [window_start,
/// window_end), both event execution times (0 and the run's last cycle at
/// the ends); rates are computed over that window only. Fields that a
/// configuration lacks (row-hit rate under the flat memory model,
/// temperatures without a floorplan) stay at their initializers.
struct SampleRow {
  Cycle window_start = 0;
  Cycle window_end = 0;
  std::uint64_t instructions = 0;   ///< Committed in this window (all cores).
  std::uint64_t l2_accesses = 0;    ///< L2 demand accesses in this window.
  std::uint64_t l2_misses = 0;
  double ipc = 0.0;                 ///< instructions / window length.
  double l2_miss_rate = 0.0;        ///< misses / accesses (0 when idle).
  double l2_powered_frac = 0.0;     ///< Avg powered fraction of L2 lines.
  double dram_row_hit_rate = 0.0;   ///< Row hits / row activity (kDram only).
  double fabric_occupancy = 0.0;    ///< Busy fraction of the scarcest link.
  double avg_l2_temp_kelvin = 0.0;  ///< Mean L2 tile temperature at window end.
  double max_l2_temp_kelvin = 0.0;
};

class IntervalSampler {
 public:
  /// `period` = window length in cycles (must be >= 1).
  explicit IntervalSampler(Cycle period);
  ~IntervalSampler();

  IntervalSampler(const IntervalSampler&) = delete;
  IntervalSampler& operator=(const IntervalSampler&) = delete;

  /// Streams rows as CSV (with header) to `path`. Optional — a sampler
  /// without a sink still accumulates the checksum, which is how the
  /// golden-series test runs without touching the filesystem.
  bool open_csv(const std::string& path, std::string* err = nullptr);

  [[nodiscard]] Cycle period() const noexcept { return period_; }

  /// Folds the row into the checksum and appends it to the CSV sink (if
  /// open). Called by CmpSystem; tests may call it directly.
  void push(const SampleRow& row);

  /// Flushes and closes the CSV sink. Returns false if any write failed.
  /// Zero-row runs still produce a valid file (header only). Safe to call
  /// twice; the destructor calls it.
  bool finish();

  [[nodiscard]] std::uint64_t rows() const noexcept { return rows_; }
  /// FNV-1a64 over every pushed row's raw field bit patterns.
  [[nodiscard]] std::uint64_t checksum() const noexcept { return hash_; }

 private:
  void fold(std::uint64_t bits) noexcept;

  Cycle period_ = 1;
  std::FILE* out_ = nullptr;
  std::uint64_t rows_ = 0;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;  ///< FNV-1a64 offset basis.
  bool write_error_ = false;
};

}  // namespace cdsim::obs
