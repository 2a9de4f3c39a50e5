#pragma once
// Cache geometry arithmetic: size/line/ways -> sets, and address slicing.
//
// Every cache in the hierarchy (L1, L2) shares this geometry model. All
// dimensions must be powers of two so tag/index extraction is shift/mask.

#include <cstdint>

#include "cdsim/common/assert.hpp"
#include "cdsim/common/types.hpp"

namespace cdsim::cache {

/// Immutable description of a set-associative cache's shape.
class Geometry {
 public:
  /// @param size_bytes  total capacity (power of two)
  /// @param line_bytes  line size (power of two, >= 8)
  /// @param ways        associativity (power of two, >= 1)
  Geometry(std::uint64_t size_bytes, std::uint32_t line_bytes,
           std::uint32_t ways)
      : line_(line_bytes), ways_(ways) {
    CDSIM_ASSERT_MSG(is_pow2(size_bytes), "cache size must be a power of two");
    CDSIM_ASSERT_MSG(is_pow2(line_bytes) && line_bytes >= 8,
                     "line size must be a power of two >= 8");
    CDSIM_ASSERT_MSG(is_pow2(ways) && ways >= 1,
                     "associativity must be a power of two >= 1");
    CDSIM_ASSERT_MSG(size_bytes >= static_cast<std::uint64_t>(line_bytes) * ways,
                     "cache smaller than one set");
    line_shift_ = log2_pow2(line_bytes);
    sets_ = size_bytes / (static_cast<std::uint64_t>(line_) * ways_);
    set_mask_ = sets_ - 1;
  }

  [[nodiscard]] std::uint32_t line_bytes() const noexcept { return line_; }
  [[nodiscard]] std::uint32_t ways() const noexcept { return ways_; }
  [[nodiscard]] std::uint64_t num_sets() const noexcept { return sets_; }
  [[nodiscard]] std::uint64_t num_lines() const noexcept {
    return sets_ * ways_;
  }

  /// Line-aligned address (the unit of coherence and decay).
  [[nodiscard]] Addr line_addr(Addr a) const noexcept {
    return a & ~(static_cast<Addr>(line_) - 1);
  }

  /// Set index for an address.
  [[nodiscard]] std::uint64_t set_index(Addr a) const noexcept {
    return (a >> line_shift_) & set_mask_;
  }

  /// Tag (the line address bits above the index). We store full line
  /// addresses as tags — simpler and unambiguous across geometries.
  [[nodiscard]] Addr tag(Addr a) const noexcept { return line_addr(a); }

 private:
  std::uint32_t line_ = 0;
  std::uint32_t ways_ = 0;
  unsigned line_shift_ = 0;
  std::uint64_t sets_ = 0;
  std::uint64_t set_mask_ = 0;
};

}  // namespace cdsim::cache
