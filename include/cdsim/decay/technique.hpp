#pragma once
// The leakage-saving techniques evaluated by the paper (§IV), plus the
// always-on baseline they are normalized against.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "cdsim/coherence/mesi.hpp"
#include "cdsim/common/types.hpp"

namespace cdsim::decay {

enum class Technique : std::uint8_t {
  /// No optimization: every line powered at all times (occupation == 100%).
  kBaseline,
  /// "Turn off on Protocol Invalidation": the valid bit gates Vdd, so a
  /// line is off exactly when it is invalid (cold or protocol-invalidated).
  /// Timing is identical to baseline — no extra misses, ever.
  kProtocol,
  /// Fixed-interval cache decay (Kaxiras et al.) on top of the coherence-
  /// safe turn-off primitive: every valid line decays after `decay_time`
  /// idle cycles, including Modified lines (which must back-invalidate the
  /// L1 and write back through the TD transient state).
  kDecay,
  /// Selective Decay: decay is armed only on transitions *into* Shared or
  /// Exclusive; lines entering Modified are disarmed, avoiding the costly
  /// dirty turn-offs (paper §IV).
  kSelectiveDecay,
};

constexpr std::string_view to_string(Technique t) noexcept {
  switch (t) {
    case Technique::kBaseline: return "baseline";
    case Technique::kProtocol: return "protocol";
    case Technique::kDecay: return "decay";
    case Technique::kSelectiveDecay: return "sel_decay";
  }
  return "?";
}

/// Inverse of to_string: the technique named `name`, or nullopt when the
/// name is none of "baseline", "protocol", "decay", "sel_decay".
constexpr std::optional<Technique> parse_technique(
    std::string_view name) noexcept {
  for (const Technique t : {Technique::kBaseline, Technique::kProtocol,
                            Technique::kDecay, Technique::kSelectiveDecay}) {
    if (to_string(t) == name) return t;
  }
  return std::nullopt;
}

/// True when the technique power-gates invalid lines (everything except the
/// ungated baseline).
constexpr bool gates_invalid_lines(Technique t) noexcept {
  return t != Technique::kBaseline;
}

/// True when the technique generates decay turn-off signals.
constexpr bool uses_decay(Technique t) noexcept {
  return t == Technique::kDecay || t == Technique::kSelectiveDecay;
}

/// Whether a line becomes armed for decay when it enters `to`.
/// - kDecay arms on every valid state (all lines decay);
/// - kSelectiveDecay arms only on transitions into S or E and *disarms*
///   on transitions into M.
constexpr bool arms_on_entry(Technique t, coherence::MesiState to) noexcept {
  using coherence::MesiState;
  if (t == Technique::kDecay) return coherence::holds_data(to);
  if (t == Technique::kSelectiveDecay) {
    return to == MesiState::kShared || to == MesiState::kExclusive;
  }
  return false;
}

/// Per-line decay bookkeeping embedded in the L2 line payload.
struct LineDecayState {
  Cycle last_touch = 0;  ///< Cycle of the most recent access / fill.
  /// Expiry-wheel registration ticket (0 = not registered). Matches the
  /// entry the wheel holds for this slot; a stale wheel entry (slot reused
  /// or re-registered since) carries a different ticket and is discarded
  /// when its bucket is visited.
  std::uint64_t wheel_ticket = 0;
  bool armed = false;    ///< Decay countdown active for this line.
};

/// Decay configuration for one experiment.
struct DecayConfig {
  Technique technique = Technique::kBaseline;
  /// Idle interval after which an armed line is switched off, in cycles.
  /// The paper sweeps 512K / 128K / 64K.
  Cycle decay_time = 512 * 1024;
  /// Hierarchical counter resolution: the global tick advances per-line
  /// 2-bit counters `hierarchical_ticks` times per decay interval, so a
  /// line actually dies between decay_time and decay_time + tick period
  /// after its last touch (Kaxiras et al. §3).
  std::uint32_t hierarchical_ticks = 4;

  /// Cycles between counter ticks; 0 when hierarchical_ticks is 0, a
  /// config validate_system_config rejects for decaying techniques.
  [[nodiscard]] constexpr Cycle tick_period() const noexcept {
    return hierarchical_ticks == 0 ? 0 : decay_time / hierarchical_ticks;
  }

  /// Decayed test as the hierarchical counters would observe it: evaluated
  /// only at sweep boundaries.
  [[nodiscard]] constexpr bool expired(const LineDecayState& s,
                                       Cycle now) const {
    return s.armed && now >= s.last_touch && now - s.last_touch >= decay_time;
  }

  /// First sweep tick (absolute cycle, a multiple of tick_period()) at
  /// which a line last touched at `last_touch` satisfies expired():
  /// the smallest k*tick_period >= last_touch + decay_time. This is the
  /// bucket an expiry wheel registers the line under — by construction the
  /// wheel and a full per-tick sweep switch every line off at the exact
  /// same tick.
  [[nodiscard]] constexpr Cycle first_expiry_tick(
      Cycle last_touch) const noexcept {
    const Cycle t = tick_period();
    const Cycle deadline = last_touch + decay_time;
    return ((deadline + t - 1) / t) * t;
  }

  /// Label used in figure legends, e.g. "decay512K" / "sel_decay64K".
  [[nodiscard]] std::string label() const {
    std::string base{to_string(technique)};
    if (!uses_decay(technique)) return base;
    return base + std::to_string(decay_time / 1024) + "K";
  }
};

}  // namespace cdsim::decay
