#pragma once
// Lightweight statistics primitives used across the simulator.
//
// Counters are plain 64-bit accumulators; TimeWeightedValue integrates a
// piecewise-constant signal over simulated time exactly (no sampling error) —
// this is what makes the paper's "occupation rate" metric exact; SampleMean
// keeps the exact count and sum behind AMAT.

#include <cstdint>

#include "cdsim/common/assert.hpp"
#include "cdsim/common/types.hpp"

namespace cdsim {

/// Monotonic event counter.
class Counter {
 public:
  void inc(std::uint64_t by = 1) noexcept { value_ += by; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Exact integral of a piecewise-constant signal over simulated time.
///
/// Call set(now, v) whenever the signal changes; integral(now) returns
/// ∫ signal dt from construction to `now`. Used for
/// "number of powered-on lines" whose time integral, divided by
/// lines × elapsed cycles, is the paper's L2 occupation rate.
class TimeWeightedValue {
 public:
  explicit TimeWeightedValue(double initial = 0.0) : value_(initial) {}

  /// Updates the signal to `v` effective at time `now`.
  void set(Cycle now, double v) {
    CDSIM_ASSERT_MSG(now >= last_change_, "time went backwards");
    integral_ += value_ * static_cast<double>(now - last_change_);
    last_change_ = now;
    value_ = v;
  }

  /// Adds `delta` to the current value at time `now`.
  void add(Cycle now, double delta) { set(now, value_ + delta); }

  [[nodiscard]] double value() const noexcept { return value_; }

  /// Integral of the signal from t=start to `now`.
  [[nodiscard]] double integral(Cycle now) const {
    CDSIM_ASSERT(now >= last_change_);
    return integral_ + value_ * static_cast<double>(now - last_change_);
  }

 private:
  double value_ = 0.0;
  double integral_ = 0.0;
  Cycle last_change_ = 0;
};

/// Exact mean of integer samples: the count and the sum, no buckets.
class SampleMean {
 public:
  void add(std::uint64_t x) noexcept {
    ++n_;
    sum_ += x;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept {
    return n_ ? static_cast<double>(sum_) / static_cast<double>(n_) : 0.0;
  }

 private:
  std::uint64_t n_ = 0;
  std::uint64_t sum_ = 0;
};

/// Ratio helper: returns a/b, or `if_zero` when b == 0.
inline double safe_div(double a, double b, double if_zero = 0.0) {
  return b == 0.0 ? if_zero : a / b;
}

}  // namespace cdsim
