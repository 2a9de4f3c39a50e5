#pragma once
// Lumped-RC chip thermal model (HotSpot-style, block granularity).
//
// Each floorplan block is one thermal node with a resistance to ambient and
// a heat capacity; optional lateral resistances couple adjacent blocks
// (each core to its private L2 slice). The simulator samples per-block
// power every `sample_period` cycles — the same 10K-cycle granularity the
// paper's HotSpot traces use — and advances the network one explicit Euler
// step per sample.
//
// Note on time constants: the paper simulates whole benchmarks (seconds of
// real time), so silicon-realistic RC constants reach steady state. Our
// synthetic runs cover a few milliseconds, so the default heat capacities
// are scaled down to keep the thermal feedback loop observable within a
// run; the steady-state temperatures (set by R and power alone) are
// unaffected by this scaling.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "cdsim/common/assert.hpp"
#include "cdsim/common/types.hpp"

namespace cdsim::thermal {

struct BlockParams {
  std::string name;
  double r_to_ambient = 0.0;  ///< K/W vertical resistance (spreader+sink).
  double heat_capacity = 0.0; ///< J/K lumped capacitance.
};

struct ThermalConfig {
  double ambient_kelvin = 318.0;  ///< 45 °C case-inside ambient.
  /// Converts the simulator's energy unit per cycle into watts.
  double watts_per_eu_cycle = 9.0;
  /// Core clock, for cycles -> seconds.
  double clock_hz = 3.0e9;
  /// Power sampling period in cycles (paper: every 10000 cycles).
  Cycle sample_period = 10000;
  /// Lateral resistance between coupled blocks, K/W.
  double lateral_r = 4.0;
};

/// Block-level RC thermal network.
class RcThermalModel {
 public:
  /// @param couplings pairs of block indices joined by a lateral resistance
  RcThermalModel(const ThermalConfig& cfg, std::vector<BlockParams> blocks,
                 std::vector<std::pair<std::size_t, std::size_t>> couplings)
      : cfg_(cfg),
        blocks_(std::move(blocks)),
        couplings_(std::move(couplings)),
        temp_(blocks_.size(), cfg.ambient_kelvin) {
    for (const auto& b : blocks_) {
      CDSIM_ASSERT(b.r_to_ambient > 0.0 && b.heat_capacity > 0.0);
    }
    for (const auto& [a, b] : couplings_) {
      CDSIM_ASSERT(a < blocks_.size() && b < blocks_.size() && a != b);
    }
  }

  [[nodiscard]] std::size_t num_blocks() const noexcept {
    return blocks_.size();
  }
  [[nodiscard]] const std::string& block_name(std::size_t i) const {
    return blocks_.at(i).name;
  }
  [[nodiscard]] double temperature(std::size_t i) const {
    return temp_.at(i);
  }

  /// Sets block `i` to its steady-state temperature under power `watts`
  /// (ignoring lateral flow). Used to start runs near thermal equilibrium.
  void warm_start(std::size_t i, double watts) {
    temp_.at(i) = cfg_.ambient_kelvin + watts * blocks_.at(i).r_to_ambient;
  }

  /// Advances the network by `dt_sec` with per-block dissipation `watts`
  /// (size must equal num_blocks). Explicit Euler; caller keeps dt well
  /// under min(RC) — the default sample period does.
  void step(double dt_sec, const std::vector<double>& watts) {
    CDSIM_ASSERT(watts.size() == blocks_.size());
    std::vector<double> heat(blocks_.size());
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      heat[i] = watts[i] - (temp_[i] - cfg_.ambient_kelvin) /
                               blocks_[i].r_to_ambient;
    }
    for (const auto& [a, b] : couplings_) {
      const double flow = (temp_[a] - temp_[b]) / cfg_.lateral_r;
      heat[a] -= flow;
      heat[b] += flow;
    }
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      temp_[i] += dt_sec * heat[i] / blocks_[i].heat_capacity;
      // Physical floor: a passive block cannot cool below ambient.
      if (temp_[i] < cfg_.ambient_kelvin) temp_[i] = cfg_.ambient_kelvin;
    }
  }

  [[nodiscard]] const ThermalConfig& config() const noexcept { return cfg_; }

 private:
  ThermalConfig cfg_;
  std::vector<BlockParams> blocks_;
  std::vector<std::pair<std::size_t, std::size_t>> couplings_;
  std::vector<double> temp_;
};

/// Builds the paper's floorplan: N cores, N private L2 slices, one bus
/// block; each core laterally coupled to its L2 slice.
struct Floorplan {
  RcThermalModel model;
  std::size_t core_block(CoreId c) const { return c; }
  std::size_t l2_block(CoreId c) const { return num_cores + c; }
  std::size_t bus_block() const { return 2 * num_cores; }
  std::size_t num_cores = 0;
};

Floorplan make_cmp_floorplan(const ThermalConfig& cfg, std::size_t num_cores,
                             double l2_slice_mb);

}  // namespace cdsim::thermal
