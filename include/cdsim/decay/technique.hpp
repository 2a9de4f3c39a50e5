#pragma once
// The leakage-saving techniques evaluated by the paper (§IV), plus the
// always-on baseline they are normalized against.

#include <algorithm>
#include <cstdint>
#include <limits>
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
  /// Timing is identical to baseline — no extra misses, ever — so the two
  /// agree for the whole run (agree_until) and a Protocol result is booked
  /// as an accounting view of the baseline's run (sim::AccountingView).
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

  friend constexpr bool operator==(const DecayConfig&,
                                   const DecayConfig&) noexcept = default;
};

/// The cycle no run reaches: agree_until of two configs that never differ.
inline constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

/// The first sweep tick at which a level under `d` can switch a line off:
/// first_expiry_tick(0), since a line touched at or after cycle 0 expires
/// no sooner. kNever when `d` does not decay, and 0 when it has no tick
/// period (a config validate_system_config rejects), so a horizon is
/// never computed by dividing by zero.
constexpr Cycle first_turnoff(const DecayConfig& d) noexcept {
  if (!uses_decay(d.technique)) return kNever;
  return d.tick_period() == 0 ? 0 : d.first_expiry_tick(0);
}

/// The first cycle at which a level under `a` can act differently from one
/// under `b`; a machine's is the minimum over its L1, L2 and L3.
/// - kNever when neither decays or the configs are equal: baseline and
///   protocol differ only in which lines the energy books count as
///   powered, never in what the level does, so they form one timing class.
/// - 0 when exactly one decays: its +1-cycle Gated-Vdd access penalty
///   (CacheLevel::access_latency) differs from the first access.
/// - Otherwise the earlier first_turnoff. Until a sweep finds a line
///   expired, two decaying levels pay the same penalty, and their arming
///   bits, expiry-wheel registrations and empty sweeps change nothing the
///   machine does: each is the same penalty machine that never turns a
///   line off.
constexpr Cycle agree_until(const DecayConfig& a,
                            const DecayConfig& b) noexcept {
  const bool a_decays = uses_decay(a.technique);
  if (a_decays != uses_decay(b.technique)) return 0;
  if (!a_decays || a == b) return kNever;
  return std::min(first_turnoff(a), first_turnoff(b));
}

}  // namespace cdsim::decay
