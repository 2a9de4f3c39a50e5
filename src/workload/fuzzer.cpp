#include "cdsim/workload/fuzzer.hpp"

#include <algorithm>

#include "cdsim/common/assert.hpp"

namespace cdsim::workload {

namespace {

// Address map (region id in bits 40+, per-core partition in bits 32+,
// matching the synthetic generator's layout so diagnostics like
// decay_induced_by_region keep working).
constexpr Addr kPrivateBase = 0x1ull << 40;   // churn + chains (per core)
constexpr Addr kSharedBase = 0x2ull << 40;    // false share / pingpong / straddle

constexpr Addr kFalseShareOffset = 0x000000;
constexpr Addr kPingpongOffset = 0x100000;
constexpr Addr kStraddleOffset = 0x200000;
constexpr Addr kChainOffset = 0x400000;
constexpr Addr kHotHomeOffset = 0x800000;

}  // namespace

FuzzerWorkload::FuzzerWorkload(const FuzzerConfig& cfg,
                               std::uint32_t num_cores,
                               std::uint32_t line_bytes,
                               std::uint32_t issue_width, CoreId core,
                               std::uint64_t seed)
    : cfg_(cfg),
      line_bytes_(line_bytes),
      hot_home_stride_(static_cast<Addr>(num_cores) * line_bytes),
      issue_width_(issue_width),
      core_(core),
      // Mix the core id into the seed the same way the synthetic generator
      // family does: per-core streams must be decorrelated.
      rng_(SplitMix64(seed ^ (0x9e3779b97f4a7c15ULL *
                              (static_cast<std::uint64_t>(core) + 1)))
               .next()) {
  CDSIM_ASSERT(line_bytes >= 8);
  CDSIM_ASSERT(num_cores >= 1);
  CDSIM_ASSERT(issue_width >= 1);
  CDSIM_ASSERT(cfg_.false_share_lines >= 1);
  CDSIM_ASSERT(cfg_.pingpong_lines >= 1);
  CDSIM_ASSERT(cfg_.straddle_lines >= 1);
  CDSIM_ASSERT(cfg_.chain_lines >= 1);
  CDSIM_ASSERT(cfg_.churn_lines >= 1);
}

MemOp FuzzerWorkload::next(Cycle /*now*/) {
  while (queue_.empty()) refill();
  const MemOp op = queue_.front();
  queue_.pop_front();
  return op;
}

void FuzzerWorkload::push(AccessType type, Addr addr, std::uint32_t gap,
                          bool dependent, std::uint8_t chain) {
  queue_.push_back(MemOp{type, addr, gap, dependent, chain});
}

std::uint32_t FuzzerWorkload::small_gap() {
  return static_cast<std::uint32_t>(
      rng_.below(static_cast<std::uint64_t>(cfg_.max_gap) + 1));
}

void FuzzerWorkload::refill() {
  const double pick = rng_.uniform();
  if (pick < cfg_.w_false_share) {
    burst_false_share();
  } else if (pick < cfg_.w_false_share + cfg_.w_pingpong) {
    burst_pingpong();
  } else if (pick < cfg_.w_false_share + cfg_.w_pingpong + cfg_.w_straddle) {
    burst_straddle();
  } else if (pick < cfg_.w_false_share + cfg_.w_pingpong + cfg_.w_straddle +
                        cfg_.w_chain) {
    burst_chain();
  } else if (pick < cfg_.w_false_share + cfg_.w_pingpong + cfg_.w_straddle +
                        cfg_.w_chain + cfg_.w_hot_home) {
    burst_hot_home();  // unreachable at the default w_hot_home = 0
  } else {
    burst_churn();
  }
}

void FuzzerWorkload::burst_hot_home() {
  // Directory stressor: a pool of lines spaced one tile count apart —
  // under line-interleaved homes every one of them serializes through the
  // SAME directory bank, while all cores read/write them concurrently
  // (all-to-all sharing through one mesh hotspot). The offset keeps the
  // pool disjoint from every other shared pool.
  const Addr line = kSharedBase + kHotHomeOffset +
                    rng_.below(cfg_.hot_home_lines) * hot_home_stride_;
  const std::uint64_t n = 2 + rng_.below(4);
  for (std::uint64_t i = 0; i < n; ++i) {
    const bool store = rng_.chance(cfg_.store_fraction);
    // Alternate a same-line and a neighbouring-pool-line touch so the one
    // bank also sees back-to-back transactions for *different* lines.
    const Addr a = (i & 1) == 0
                       ? line
                       : kSharedBase + kHotHomeOffset +
                             rng_.below(cfg_.hot_home_lines) *
                                 hot_home_stride_;
    push(store ? AccessType::kStore : AccessType::kLoad, a, small_gap(),
         false, 0);
  }
}

void FuzzerWorkload::burst_false_share() {
  // Every core picks offsets inside the same line: ownership must ping-pong
  // while each core believes it touches "its own" bytes.
  const Addr line = kSharedBase + kFalseShareOffset +
                    rng_.below(cfg_.false_share_lines) * line_bytes_;
  const Addr mine =
      line + (static_cast<Addr>(core_) * 8) % line_bytes_;
  const std::uint64_t n = 1 + rng_.below(3);
  for (std::uint64_t i = 0; i < n; ++i) {
    const bool store = rng_.chance(cfg_.store_fraction);
    push(store ? AccessType::kStore : AccessType::kLoad, mine, small_gap(),
         false, 0);
  }
}

void FuzzerWorkload::burst_pingpong() {
  // Store-then-load alternation over a tiny pool all cores fight for:
  // S->M upgrades racing invalidations, and under MOESI a steady source of
  // M->O downgrades (a remote load snooping our fresh store).
  const Addr line = kSharedBase + kPingpongOffset +
                    rng_.below(cfg_.pingpong_lines) * line_bytes_;
  const std::uint64_t n = 2 + rng_.below(4);
  for (std::uint64_t i = 0; i < n; ++i) {
    const bool store = ((pingpong_step_++ + core_) & 1) == 0;
    push(store ? AccessType::kStore : AccessType::kLoad, line, small_gap(),
         false, 0);
  }
}

void FuzzerWorkload::burst_straddle() {
  // Touch a handful of lines, sleep one large-gap filler, re-touch them:
  // the reuse intervals land just under or just past the decay window, so
  // the re-accesses hit either still-armed lines or lines that were turned
  // off (and, if dirty, written back) — the exact edge §III must keep
  // coherent. Several lines share one sleep so the episode's instruction
  // cost is amortized.
  const std::uint32_t k = std::max<std::uint32_t>(cfg_.straddle_park, 1);
  Addr lines[16];
  const std::uint32_t n = k > 16 ? 16 : k;
  for (std::uint32_t i = 0; i < n; ++i) {
    lines[i] = kSharedBase + kStraddleOffset +
               rng_.below(cfg_.straddle_lines) * line_bytes_;
    const bool dirty = rng_.chance(cfg_.store_fraction);
    push(dirty ? AccessType::kStore : AccessType::kLoad, lines[i],
         small_gap(), false, 0);
  }

  // Sleep between 0.5x and 1.3x the decay window (in cycles), expressed as
  // a gap in instructions on an otherwise-idle filler access to the
  // private churn region.
  const double frac = 0.5 + 0.8 * rng_.uniform();
  const auto sleep_gap = static_cast<std::uint32_t>(
      frac * static_cast<double>(cfg_.decay_window) *
      static_cast<double>(issue_width_));
  const Addr filler = kPrivateBase | (static_cast<Addr>(core_) << 32) |
                      ((churn_pos_++ % cfg_.churn_lines) * line_bytes_);
  push(AccessType::kLoad, filler, sleep_gap, false, 0);

  for (std::uint32_t i = 0; i < n; ++i) {
    const bool re_store = rng_.chance(cfg_.store_fraction);
    push(re_store ? AccessType::kStore : AccessType::kLoad, lines[i],
         small_gap(), false, 0);
  }
}

void FuzzerWorkload::burst_chain() {
  // Pointer chase: each load depends on the previous load of its chain.
  const std::uint8_t chain = next_chain_;
  next_chain_ = static_cast<std::uint8_t>((next_chain_ + 1) % kMaxChains);
  const Addr base = (kPrivateBase | (static_cast<Addr>(core_) << 32)) +
                    kChainOffset;
  const std::uint64_t n = 3 + rng_.below(4);
  for (std::uint64_t i = 0; i < n; ++i) {
    const Addr addr = base + rng_.below(cfg_.chain_lines) * line_bytes_;
    push(AccessType::kLoad, addr, small_gap(), /*dependent=*/i > 0, chain);
  }
}

void FuzzerWorkload::burst_churn() {
  // Sequential private sweep: fills sets, forces evictions, feeds clean
  // decays, and sprinkles stores/ifetches for access-type coverage.
  const Addr base = kPrivateBase | (static_cast<Addr>(core_) << 32);
  const std::uint64_t n = 2 + rng_.below(6);
  for (std::uint64_t i = 0; i < n; ++i) {
    const Addr addr =
        base + (churn_pos_++ % cfg_.churn_lines) * line_bytes_;
    AccessType type = AccessType::kLoad;
    if (rng_.chance(cfg_.ifetch_fraction)) {
      type = AccessType::kIFetch;
    } else if (rng_.chance(cfg_.store_fraction * 0.5)) {
      type = AccessType::kStore;
    }
    push(type, addr, small_gap(), false, 0);
  }
}

}  // namespace cdsim::workload
