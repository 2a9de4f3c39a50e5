#pragma once
// FNV-1a, 64-bit (Fowler–Noll–Vo): the one byte-wise hash of the library.
// It seeds every experiment cell (derive_config_seed), checksums the .cdt
// v2 chunks and footer and every results-cache line, and folds the
// interval sampler's series. Each caller's bytes are fully specified, so
// every value it yields is the same on every platform.

#include <cstdint>
#include <string_view>

namespace cdsim {

inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// FNV-1a over `bytes`.
constexpr std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = kFnvBasis;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a continued from `h` over the 8 bytes of `word`, least significant
/// first.
constexpr std::uint64_t fnv1a_u64(std::uint64_t h,
                                  std::uint64_t word) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffU;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace cdsim
