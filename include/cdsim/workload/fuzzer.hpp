#pragma once
// Adversarial workload generator for differential verification.
//
// The six benchmark presets are calibrated to be *representative*; the
// fuzzer is calibrated to be *hostile*. Each draw continues one of five
// seeded attack patterns chosen to hit the coherence/turn-off machinery
// where wrong-data bugs would hide:
//
//  * false sharing    — all cores hammer byte offsets of the same small
//                       line pool with mixed loads/stores, so ownership
//                       ping-pongs through BusRdX/BusUpgr invalidations;
//  * ping-pong        — store/load alternation on a tiny shared pool:
//                       S->M upgrades racing remote invalidations, and
//                       (under MOESI) M->O downgrades with O-supplied
//                       fills;
//  * decay straddle   — touch a shared line (often dirtying it), sleep
//                       just under / just past the decay window via one
//                       large-gap filler op, then re-access: reuse lands
//                       exactly on the turn-off edge, covering loads that
//                       hit lines that were switched off and refetched;
//  * dependent chains — pointer-chase bursts over per-core pools
//                       (dependent=true) so load completion order feeds
//                       back into issue order;
//  * private churn    — sequential per-core sweep with occasional stores
//                       and ifetches: eviction pressure, clean decays, and
//                       trace-format coverage of every AccessType;
//  * hot home node    — (directory topologies) every core hammers a pool
//                       of lines that all interleave to ONE home tile:
//                       maximal directory-bank serialization plus
//                       all-to-all false sharing through a single mesh
//                       hotspot. Off by default (w_hot_home = 0), so
//                       snoop-bus streams are unchanged.
//
// A FuzzerWorkload is a pure function of (config, machine geometry, core,
// seed); the `now` argument is deliberately ignored so a captured fuzz
// trace replays the identical op sequence regardless of timing. The
// geometry (core count, line size, issue width) is the machine's, passed
// to the constructor: FuzzerConfig holds only the attack-pattern knobs.

#include <cstdint>
#include <deque>
#include <string>

#include "cdsim/common/rng.hpp"
#include "cdsim/workload/stream.hpp"

namespace cdsim::workload {

/// Attack-pattern knobs of the adversarial generator. Defaults are tuned
/// for small L2 slices (32-64 KiB) and decay windows of 1K-4K cycles.
struct FuzzerConfig {
  std::string name = "fuzzer";

  // Pool sizes (lines).
  std::uint64_t false_share_lines = 16;
  std::uint64_t pingpong_lines = 8;
  std::uint64_t straddle_lines = 32;
  std::uint64_t chain_lines = 64;    ///< Per-core pointer-chase pool.
  std::uint64_t churn_lines = 192;   ///< Per-core eviction-pressure pool.
  std::uint64_t hot_home_lines = 12; ///< Hot-home contention pool.

  /// Decay window the straddle sleeps target (cycles). Straddle fillers
  /// sleep between 0.5x and 1.3x this window so reuse lands on both sides
  /// of the turn-off edge. A knob of its own, not the machine's decay
  /// time: a machine that does not decay has none to straddle.
  Cycle decay_window = 2048;
  /// Lines parked per straddle episode (amortizes one sleep over several
  /// decay-edge reuses).
  std::uint32_t straddle_park = 3;

  double store_fraction = 0.5;   ///< Stores among contended accesses.
  double ifetch_fraction = 0.05; ///< IFetches among churn accesses.
  std::uint32_t max_gap = 3;     ///< Ordinary inter-op gap (0..max_gap).

  // Cumulative mode weights; remainder goes to private churn. The straddle
  // weight is low because each episode burns a decay window's worth of the
  // instruction budget in one sleep gap; idle-past-the-window coverage
  // also arises naturally from every other pool going cold.
  double w_false_share = 0.26;
  double w_pingpong = 0.26;
  double w_straddle = 0.10;
  double w_chain = 0.16;
  /// Hot-home weight; 0 (the default) disables the pattern and leaves
  /// every legacy stream bit-identical.
  double w_hot_home = 0.0;
};

/// Deterministic hostile stream for one core of a `num_cores`-core machine
/// with `line_bytes` lines whose cores retire `issue_width` non-memory
/// instructions per cycle. Hot-home lines are `num_cores` lines apart, the
/// mesh's tile count, so under line-interleaved homes they all map to one
/// directory bank.
class FuzzerWorkload final : public WorkloadStream {
 public:
  FuzzerWorkload(const FuzzerConfig& cfg, std::uint32_t num_cores,
                 std::uint32_t line_bytes, std::uint32_t issue_width,
                 CoreId core, std::uint64_t seed);

  MemOp next(Cycle now) override;
  [[nodiscard]] std::string_view name() const override { return cfg_.name; }

 private:
  void refill();
  void push(AccessType type, Addr addr, std::uint32_t gap, bool dependent,
            std::uint8_t chain);
  [[nodiscard]] std::uint32_t small_gap();

  void burst_false_share();
  void burst_pingpong();
  void burst_straddle();
  void burst_chain();
  void burst_churn();
  void burst_hot_home();

  FuzzerConfig cfg_;
  Addr line_bytes_ = 0;
  Addr hot_home_stride_ = 0;  ///< num_cores lines: one home tile.
  std::uint32_t issue_width_ = 0;
  CoreId core_ = 0;
  Xoshiro256 rng_;
  std::deque<MemOp> queue_;
  std::uint64_t pingpong_step_ = 0;
  std::uint64_t churn_pos_ = 0;
  std::uint8_t next_chain_ = 0;
};

}  // namespace cdsim::workload
