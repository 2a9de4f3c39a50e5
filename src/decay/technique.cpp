// Compile-time checks for the decay-arming rules of §IV.
#include "cdsim/decay/sweeper.hpp"
#include "cdsim/decay/technique.hpp"

namespace cdsim::decay {
namespace {

using coherence::MesiState;

// Full Decay arms everywhere a line holds data.
static_assert(arms_on_entry(Technique::kDecay, MesiState::kModified));
static_assert(arms_on_entry(Technique::kDecay, MesiState::kShared));
static_assert(arms_on_entry(Technique::kDecay, MesiState::kExclusive));
static_assert(!arms_on_entry(Technique::kDecay, MesiState::kInvalid));

// Selective Decay arms only on transitions into S/E, never into a dirty
// state (M, or MOESI's O — an Owned turn-off costs an invalidation
// broadcast on top of the write-back).
static_assert(arms_on_entry(Technique::kSelectiveDecay, MesiState::kShared));
static_assert(arms_on_entry(Technique::kSelectiveDecay, MesiState::kExclusive));
static_assert(!arms_on_entry(Technique::kSelectiveDecay, MesiState::kModified));
static_assert(!arms_on_entry(Technique::kSelectiveDecay, MesiState::kOwned));
static_assert(arms_on_entry(Technique::kDecay, MesiState::kOwned));

// Names round-trip; anything else is no technique.
static_assert(parse_technique("sel_decay") == Technique::kSelectiveDecay);
static_assert(parse_technique(to_string(Technique::kProtocol)) ==
              Technique::kProtocol);
static_assert(!parse_technique("decya").has_value());
static_assert(!parse_technique("").has_value());

// Protocol / baseline never decay.
static_assert(!arms_on_entry(Technique::kProtocol, MesiState::kShared));
static_assert(!arms_on_entry(Technique::kBaseline, MesiState::kModified));
static_assert(!uses_decay(Technique::kProtocol));
static_assert(gates_invalid_lines(Technique::kProtocol));
static_assert(!gates_invalid_lines(Technique::kBaseline));

// Expiry-wheel registration math: first_expiry_tick is the smallest tick
// multiple at which expired() holds — the wheel and a full per-tick sweep
// therefore switch a line off at the identical tick.
namespace {
constexpr DecayConfig kD{Technique::kDecay, 1000, 4};  // tick period 250
constexpr bool expired_at(Cycle touch, Cycle now) {
  LineDecayState s;
  s.last_touch = touch;
  s.armed = true;
  return kD.expired(s, now);
}
}  // namespace
static_assert(kD.tick_period() == 250);
static_assert(DecayConfig{Technique::kDecay, 1000, 0}.tick_period() == 0);
// Touch at 0: deadline 1000, already a tick multiple.
static_assert(kD.first_expiry_tick(0) == 1000);
static_assert(expired_at(0, kD.first_expiry_tick(0)));
static_assert(!expired_at(0, kD.first_expiry_tick(0) - kD.tick_period()));
// Touch at 1: deadline 1001 rounds up to tick 1250.
static_assert(kD.first_expiry_tick(1) == 1250);
static_assert(expired_at(1, kD.first_expiry_tick(1)));
static_assert(!expired_at(1, kD.first_expiry_tick(1) - kD.tick_period()));
// Touch exactly on a tick: deadline lands on a tick again.
static_assert(kD.first_expiry_tick(250) == 1250);

}  // namespace
}  // namespace cdsim::decay
