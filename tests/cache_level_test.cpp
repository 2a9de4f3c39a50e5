// The cache engine's line lifecycle, driven on a bare cache::CacheLevel
// with its own payload: fill arms decay by the §IV rule, the expiry wheel
// yields a filled line at exactly its first expiry tick, the powered-line
// integral spans fill to drop, and a turn-off attributes the next miss
// unless a fill intervenes. The controllers are checked through whole
// runs elsewhere; this pins the engine contract they all share.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "cdsim/cache/level.hpp"

namespace cdsim::cache {
namespace {

using coherence::MesiState;
using decay::Technique;

struct Payload {
  decay::LineDecayState decay;
};
using Level = CacheLevel<Payload>;
using LineT = Level::LineT;

/// 4 KiB, 64 B lines, 4 ways: 64 lines in 16 sets.
const Geometry kGeo(4 * KiB, 64, 4);
constexpr Addr kA = 0x1000;
constexpr Addr kB = 0x2040;

/// A level (decay time 1000, sweep ticks every 250 cycles) whose sweep
/// records every line the wheel yields, with the cycle it was yielded at.
struct Harness {
  explicit Harness(Technique t)
      : dcfg{t, 1000, 4},
        level(eq, kGeo, /*hit_latency=*/2, dcfg, [this](Cycle now) {
          level.for_each_expired(now, [&](LineT ln, std::size_t) {
            yielded.emplace_back(ln.tag(), now);
          });
        }) {}

  LineT fill(Addr line, MesiState as) {
    return level.fill(level.tags().pick_victim(line), line, Payload{}, as);
  }

  EventQueue eq;
  decay::DecayConfig dcfg;
  std::vector<std::pair<Addr, Cycle>> yielded;
  Level level;
};

constexpr Technique kTechniques[] = {Technique::kBaseline,
                                     Technique::kProtocol, Technique::kDecay,
                                     Technique::kSelectiveDecay};

TEST(CacheLevel, FillArmsExactlyAsArmsOnEntrySays) {
  for (const Technique t : kTechniques) {
    for (const MesiState s : {MesiState::kShared, MesiState::kExclusive,
                              MesiState::kModified, MesiState::kOwned}) {
      SCOPED_TRACE(std::string(decay::to_string(t)) + " into " +
                   std::string(coherence::to_string(s)));
      Harness h(t);
      h.eq.run_until(123);
      const LineT ln = h.fill(kA, s);
      ASSERT_TRUE(ln.valid());
      EXPECT_EQ(ln.tag(), kA);
      EXPECT_EQ(ln.payload().decay.armed, decay::arms_on_entry(t, s));
      EXPECT_EQ(ln.payload().decay.last_touch, 123u);
      // Re-arming a resident line follows the same rule.
      h.level.arm_on_entry(ln.payload().decay, MesiState::kModified);
      EXPECT_EQ(ln.payload().decay.armed,
                decay::arms_on_entry(t, MesiState::kModified));
    }
  }
}

TEST(CacheLevel, SweepYieldsAFilledLineAtItsFirstExpiryTick) {
  Harness h(Technique::kDecay);
  h.level.start();
  h.eq.run_until(1);
  h.fill(kA, MesiState::kShared);
  const Cycle due = h.dcfg.first_expiry_tick(1);
  ASSERT_EQ(due, 1250u);

  h.eq.run_until(due - 1);  // the tick before (1000) has run
  EXPECT_TRUE(h.yielded.empty());
  h.eq.run_until(due);
  ASSERT_EQ(h.yielded.size(), 1u);
  EXPECT_EQ(h.yielded[0], std::make_pair(kA, due));
  h.level.stop();
}

TEST(CacheLevel, PoweredLineCyclesIntegrateFillToDrop) {
  Harness h(Technique::kProtocol);  // gates invalid lines
  h.eq.run_until(100);
  const LineT a = h.fill(kA, MesiState::kExclusive);
  h.eq.run_until(300);
  const LineT b = h.fill(kB, MesiState::kShared);
  EXPECT_EQ(h.level.lines_on(), 2u);
  h.eq.run_until(500);
  h.level.drop(a);
  EXPECT_FALSE(a.valid());
  h.eq.run_until(700);
  h.level.drop(b);
  EXPECT_EQ(h.level.lines_on(), 0u);
  const LevelCounters c = h.level.counters(1000);
  EXPECT_EQ(c.powered_line_cycles, (500.0 - 100.0) + (700.0 - 300.0));
  EXPECT_EQ(c.capacity_lines, kGeo.num_lines());

  // The baseline powers every line all the time, filled or not.
  Harness base(Technique::kBaseline);
  base.eq.run_until(100);
  base.fill(kA, MesiState::kShared);
  EXPECT_EQ(base.level.counters(1000).powered_line_cycles,
            static_cast<double>(kGeo.num_lines()) * 1000.0);
  EXPECT_EQ(base.level.counters(1000).occupation(1000), 1.0);
}

TEST(CacheLevel, TurnOffAttributesTheNextMissUnlessRefilled) {
  Harness h(Technique::kDecay);
  h.eq.run_until(10);
  h.level.note_turnoff(kA);
  EXPECT_EQ(h.level.stats().decay_turnoffs.value(), 1u);
  EXPECT_EQ(h.level.decay_attribution_entries(), 1u);
  h.level.note_miss(kA, /*is_write=*/false);
  EXPECT_EQ(h.level.stats().decay_induced_misses.value(), 1u);
  EXPECT_EQ(h.level.stats().read_misses.value(), 1u);
  EXPECT_EQ(h.level.decay_attribution_entries(), 0u);

  // A fill between the turn-off and the miss consumes the attribution.
  h.level.note_turnoff(kB);
  h.level.drop(h.fill(kB, MesiState::kShared));
  h.level.note_miss(kB, /*is_write=*/true);
  const LevelCounters c = h.level.counters(h.eq.now());
  EXPECT_EQ(c.decay_turnoffs, 2u);
  EXPECT_EQ(c.decay_induced_misses, 1u);
  EXPECT_EQ(c.misses, 2u);
}

}  // namespace
}  // namespace cdsim::cache
