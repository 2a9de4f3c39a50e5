// Unit tests for the decay policy helpers, the sweeper, the leakage /
// energy models and the RC thermal network.

#include <gtest/gtest.h>

#include <cmath>

#include "cdsim/common/event_queue.hpp"
#include "cdsim/decay/sweeper.hpp"
#include "cdsim/decay/technique.hpp"
#include "cdsim/power/energy.hpp"
#include "cdsim/power/leakage.hpp"
#include "cdsim/thermal/rc_model.hpp"

namespace cdsim {
namespace {

using decay::DecayConfig;
using decay::LineDecayState;
using decay::Technique;

// --- decay config -----------------------------------------------------------

TEST(DecayConfig, ExpiryRequiresArmingAndIdleTime) {
  DecayConfig d{Technique::kDecay, 1000, 4};
  LineDecayState s;
  s.last_touch = 100;
  s.armed = true;
  EXPECT_FALSE(d.expired(s, 1099));
  EXPECT_TRUE(d.expired(s, 1100));
  s.armed = false;
  EXPECT_FALSE(d.expired(s, 5000));
}

TEST(DecayConfig, TickPeriodIsIntervalOverTicks) {
  DecayConfig d{Technique::kDecay, 512 * 1024, 4};
  EXPECT_EQ(d.tick_period(), 128u * 1024u);
}

TEST(DecayConfig, Labels) {
  EXPECT_EQ((DecayConfig{Technique::kDecay, 512 * 1024, 4}).label(),
            "decay512K");
  EXPECT_EQ((DecayConfig{Technique::kSelectiveDecay, 64 * 1024, 4}).label(),
            "sel_decay64K");
  EXPECT_EQ((DecayConfig{Technique::kProtocol, 0, 4}).label(), "protocol");
  EXPECT_EQ((DecayConfig{Technique::kBaseline, 0, 4}).label(), "baseline");
}

// --- sweeper -------------------------------------------------------------------

TEST(DecaySweeper, FiresPeriodically) {
  EventQueue eq;
  DecayConfig d{Technique::kDecay, 4000, 4};
  std::vector<Cycle> fired;
  decay::DecaySweeper sw(eq, d, [&](Cycle now) { fired.push_back(now); });
  sw.start();
  eq.run_until(5000);
  ASSERT_EQ(fired.size(), 5u);
  EXPECT_EQ(fired[0], 1000u);
  EXPECT_EQ(fired[4], 5000u);
  EXPECT_EQ(sw.sweeps_run(), 5u);
}

TEST(DecaySweeper, InertForNonDecayTechniques) {
  EventQueue eq;
  DecayConfig d{Technique::kProtocol, 4000, 4};
  int fired = 0;
  decay::DecaySweeper sw(eq, d, [&](Cycle) { ++fired; });
  sw.start();
  eq.run_until(100000);
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(eq.empty());
}

TEST(DecaySweeper, StopEndsRescheduling) {
  EventQueue eq;
  DecayConfig d{Technique::kDecay, 400, 4};
  int fired = 0;
  decay::DecaySweeper sw(eq, d, [&](Cycle) { ++fired; });
  sw.start();
  eq.run_until(250);
  sw.stop();
  eq.run();  // drains the already-scheduled event, which must do nothing
  EXPECT_EQ(fired, 2);
}

// --- expiry wheel -----------------------------------------------------------------

TEST(ExpiryWheel, DisabledForNonDecayTechniques) {
  decay::ExpiryWheel w;
  w.configure(DecayConfig{Technique::kProtocol, 4000, 4});
  EXPECT_FALSE(w.enabled());
  w.configure(DecayConfig{Technique::kBaseline, 0, 4});
  EXPECT_FALSE(w.enabled());
}

TEST(ExpiryWheel, CollectsAtTheRegisteredTickOnly) {
  const DecayConfig d{Technique::kDecay, 1000, 4};  // tick 250
  decay::ExpiryWheel w;
  w.configure(d);
  ASSERT_TRUE(w.enabled());

  // A line touched at cycle 120 expires at the first tick >= 1120 -> 1250.
  const std::uint64_t t = w.add(7, d.first_expiry_tick(120));
  EXPECT_NE(t, 0u);
  std::vector<decay::ExpiryWheel::Entry> due;
  for (Cycle tick = 250; tick <= 1000; tick += 250) {
    w.collect_due(tick, due);
    EXPECT_TRUE(due.empty()) << "tick " << tick;
  }
  w.collect_due(1250, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].line_index, 7u);
  EXPECT_EQ(due[0].ticket, t);
  EXPECT_EQ(w.entries(), 0u);
}

TEST(ExpiryWheel, BucketsComeBackSortedByLineIndex) {
  const DecayConfig d{Technique::kDecay, 1000, 4};
  decay::ExpiryWheel w;
  w.configure(d);
  // Register out of array order; the sweep must visit in array order to
  // reproduce the full sweep's turn-off choreography exactly.
  w.add(42, 1000);
  w.add(3, 1000);
  w.add(17, 1000);
  std::vector<decay::ExpiryWheel::Entry> due;
  w.collect_due(250, due);
  w.collect_due(500, due);
  w.collect_due(750, due);
  w.collect_due(1000, due);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].line_index, 3u);
  EXPECT_EQ(due[1].line_index, 17u);
  EXPECT_EQ(due[2].line_index, 42u);
}

TEST(ExpiryWheel, TicketsDistinguishReRegistrations) {
  const DecayConfig d{Technique::kDecay, 1000, 4};
  decay::ExpiryWheel w;
  w.configure(d);
  const std::uint64_t stale = w.add(5, 250);
  const std::uint64_t live = w.add(5, 500);
  EXPECT_NE(stale, live);
  std::vector<decay::ExpiryWheel::Entry> due;
  w.collect_due(250, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].ticket, stale);  // the consumer drops it by ticket check
  w.collect_due(500, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].ticket, live);
}

// --- leakage model ----------------------------------------------------------------

TEST(LeakageModel, UnityAtReferenceTemperature) {
  power::LeakageModel m;
  EXPECT_NEAR(m.factor(m.params().t0_kelvin), 1.0, 1e-12);
}

TEST(LeakageModel, MonotonicInTemperature) {
  power::LeakageModel m;
  double prev = 0.0;
  for (double t = 300; t <= 400; t += 5) {
    const double f = m.factor(t);
    EXPECT_GT(f, prev);
    prev = f;
  }
}

TEST(LeakageModel, RoughlyDoublesOverFiftyKelvin) {
  // The calibration target: ~2x leakage for +40..60 K (Liao et al.).
  power::LeakageModel m;
  const double t0 = m.params().t0_kelvin;
  const double ratio = m.factor(t0 + 50) / m.factor(t0);
  EXPECT_GT(ratio, 1.7);
  EXPECT_LT(ratio, 3.0);
}

// --- energy ledger ------------------------------------------------------------------

TEST(EnergyLedger, TotalsAreExactSums) {
  power::EnergyLedger l;
  l.add(power::Component::kCoreDynamic, 1.5);
  l.add(power::Component::kL2Leakage, 2.5);
  l.add(power::Component::kL2Leakage, 1.0);
  EXPECT_DOUBLE_EQ(l.get(power::Component::kL2Leakage), 3.5);
  EXPECT_DOUBLE_EQ(l.total(), 5.0);
}

// --- thermal ------------------------------------------------------------------------

TEST(Thermal, HeatsTowardSteadyState) {
  thermal::ThermalConfig cfg;
  std::vector<thermal::BlockParams> blocks = {{"b", 2.0, 1e-3}};
  thermal::RcThermalModel m(cfg, blocks, {});
  const double watts = 5.0;
  for (int i = 0; i < 100000; ++i) m.step(1e-5, {watts});
  // Steady state: ambient + P*R.
  EXPECT_NEAR(m.temperature(0), cfg.ambient_kelvin + watts * 2.0, 0.5);
}

TEST(Thermal, CoolsToAmbientWithoutPower) {
  thermal::ThermalConfig cfg;
  std::vector<thermal::BlockParams> blocks = {{"b", 2.0, 1e-3}};
  thermal::RcThermalModel m(cfg, blocks, {});
  m.warm_start(0, 10.0);
  EXPECT_GT(m.temperature(0), cfg.ambient_kelvin + 10);
  for (int i = 0; i < 100000; ++i) m.step(1e-5, {0.0});
  EXPECT_NEAR(m.temperature(0), cfg.ambient_kelvin, 0.5);
}

TEST(Thermal, LateralCouplingEqualizesNeighbours) {
  thermal::ThermalConfig cfg;
  std::vector<thermal::BlockParams> blocks = {{"hot", 2.0, 1e-3},
                                              {"cold", 2.0, 1e-3}};
  thermal::RcThermalModel coupled(cfg, blocks, {{0, 1}});
  thermal::RcThermalModel isolated(cfg, blocks, {});
  for (int i = 0; i < 50000; ++i) {
    coupled.step(1e-5, {4.0, 0.0});
    isolated.step(1e-5, {4.0, 0.0});
  }
  // Coupling moves heat from the hot block into the cold one.
  EXPECT_LT(coupled.temperature(0), isolated.temperature(0));
  EXPECT_GT(coupled.temperature(1), isolated.temperature(1));
}

TEST(Thermal, WarmStartMatchesSteadyState) {
  thermal::ThermalConfig cfg;
  std::vector<thermal::BlockParams> blocks = {{"b", 1.5, 1e-3}};
  thermal::RcThermalModel m(cfg, blocks, {});
  m.warm_start(0, 4.0);
  const double t0 = m.temperature(0);
  for (int i = 0; i < 1000; ++i) m.step(1e-5, {4.0});
  EXPECT_NEAR(m.temperature(0), t0, 0.1);  // already at equilibrium
}

TEST(Thermal, CmpFloorplanLayout) {
  thermal::ThermalConfig cfg;
  thermal::Floorplan fp = thermal::make_cmp_floorplan(cfg, 4, 1.0);
  EXPECT_EQ(fp.model.num_blocks(), 9u);  // 4 cores + 4 L2 + bus
  EXPECT_EQ(fp.model.block_name(fp.core_block(2)), "core2");
  EXPECT_EQ(fp.model.block_name(fp.l2_block(3)), "l2_3");
  EXPECT_EQ(fp.model.block_name(fp.bus_block()), "bus");
}

}  // namespace
}  // namespace cdsim
