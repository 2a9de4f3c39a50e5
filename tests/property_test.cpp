// Property-based tests: whole-system invariants under randomized stress,
// swept across techniques, decay times and cache sizes with parameterized
// gtest. These are the "coherence must hold in all situations, specially
// when a line is turned off" guarantees of the paper's §III.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/workload/benchmarks.hpp"

namespace cdsim::sim {
namespace {

using Param = std::tuple<decay::Technique, Cycle /*decay*/, std::uint64_t>;

class SystemPropertyTest : public ::testing::TestWithParam<Param> {
 protected:
  SystemConfig make_config() const {
    const auto [tech, dtime, size] = GetParam();
    decay::DecayConfig d;
    d.technique = tech;
    d.decay_time = dtime;
    SystemConfig cfg = make_system_config(size, d);
    cfg.instructions_per_core = 90000;
    return cfg;
  }
};

TEST_P(SystemPropertyTest, CoherenceAndInclusionInvariants) {
  // Use the most sharing-intensive workload: it maximizes invalidation
  // races with turn-offs.
  const auto& bench = workload::benchmark_by_name("WATER-NS");
  CmpSystem sys(make_config(), bench);
  const RunMetrics m = sys.run();
  EXPECT_GT(m.cycles, 0u);
  EXPECT_GT(sys.check_coherence_invariants(), 0u);
}

TEST_P(SystemPropertyTest, OccupationIsAFraction) {
  const auto& bench = workload::benchmark_by_name("mpeg2enc");
  CmpSystem sys(make_config(), bench);
  const RunMetrics m = sys.run();
  EXPECT_GE(m.l2_occupation, 0.0);
  EXPECT_LE(m.l2_occupation, 1.0 + 1e-9);
  const auto [tech, dtime, size] = GetParam();
  if (tech == decay::Technique::kBaseline) {
    EXPECT_DOUBLE_EQ(m.l2_occupation, 1.0);
  } else {
    EXPECT_LT(m.l2_occupation, 1.0);  // cold lines alone guarantee < 1
  }
}

TEST_P(SystemPropertyTest, EnergyLedgerConservation) {
  const auto& bench = workload::benchmark_by_name("facerec");
  CmpSystem sys(make_config(), bench);
  const RunMetrics m = sys.run();
  double sum = 0.0;
  for (std::size_t i = 0; i < power::kNumComponents; ++i) {
    const double v = m.ledger.get(static_cast<power::Component>(i));
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, m.energy, 1e-6 * std::max(1.0, m.energy));
  EXPECT_GT(m.ledger.get(power::Component::kL2Leakage), 0.0);
  EXPECT_GT(m.ledger.get(power::Component::kCoreDynamic), 0.0);
}

TEST_P(SystemPropertyTest, MetricsAreFiniteAndSane) {
  const auto& bench = workload::benchmark_by_name("mpeg2dec");
  CmpSystem sys(make_config(), bench);
  const RunMetrics m = sys.run();
  EXPECT_GT(m.ipc, 0.0);
  EXPECT_LT(m.ipc, 16.0);  // 4 cores x issue width
  EXPECT_GE(m.l2_miss_rate, 0.0);
  EXPECT_LE(m.l2_miss_rate, 1.0);
  EXPECT_GT(m.amat, 1.0);
  EXPECT_GE(m.mem_bandwidth, 0.0);
  EXPECT_GT(m.avg_l2_temp_kelvin, 300.0);
  EXPECT_LT(m.avg_l2_temp_kelvin, 420.0);
  EXPECT_GE(m.bus_utilization, 0.0);
  EXPECT_LE(m.bus_utilization, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SystemPropertyTest,
    ::testing::Values(
        Param{decay::Technique::kBaseline, 16384, 1 * MiB},
        Param{decay::Technique::kProtocol, 16384, 1 * MiB},
        Param{decay::Technique::kDecay, 16384, 1 * MiB},
        Param{decay::Technique::kDecay, 4096, 2 * MiB},
        Param{decay::Technique::kSelectiveDecay, 16384, 1 * MiB},
        Param{decay::Technique::kSelectiveDecay, 4096, 4 * MiB},
        Param{decay::Technique::kDecay, 8192, 8 * MiB}),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name{decay::to_string(std::get<0>(info.param))};
      name += '_';
      name += std::to_string(std::get<1>(info.param) / 1024) + "K_" +
              std::to_string(std::get<2>(info.param) / MiB) + "MB";
      return name;
    });

// --- cross-technique orderings the paper's figures assert ---------------------

class OrderingTest : public ::testing::Test {
 protected:
  RunMetrics run(decay::Technique tech, Cycle dtime = 16384) {
    decay::DecayConfig d;
    d.technique = tech;
    d.decay_time = dtime;
    SystemConfig cfg = make_system_config(2 * MiB, d);
    cfg.instructions_per_core = 150000;
    const auto& bench = workload::benchmark_by_name("facerec");
    return run_config(cfg, bench);
  }
};

TEST_F(OrderingTest, OccupationOrdering) {
  // Fig 3(a): baseline(1) > protocol > sel_decay > decay.
  const double base = run(decay::Technique::kBaseline).l2_occupation;
  const double prot = run(decay::Technique::kProtocol).l2_occupation;
  const double sel = run(decay::Technique::kSelectiveDecay).l2_occupation;
  const double dec = run(decay::Technique::kDecay).l2_occupation;
  EXPECT_DOUBLE_EQ(base, 1.0);
  EXPECT_LT(prot, base);
  EXPECT_LE(sel, prot + 1e-9);
  EXPECT_LE(dec, sel + 1e-9);
}

TEST_F(OrderingTest, ProtocolIsTimingNeutral) {
  // Fig 5(b): the Protocol technique never loses performance.
  const RunMetrics base = run(decay::Technique::kBaseline);
  const RunMetrics prot = run(decay::Technique::kProtocol);
  EXPECT_EQ(base.cycles, prot.cycles);
  EXPECT_EQ(base.l2_misses, prot.l2_misses);
  EXPECT_EQ(base.mem_bytes, prot.mem_bytes);
}

TEST_F(OrderingTest, DecayCausesMoreMissesThanSelective) {
  // Fig 3(b): the more aggressive the decay, the higher the miss rate.
  const RunMetrics base = run(decay::Technique::kBaseline);
  const RunMetrics sel = run(decay::Technique::kSelectiveDecay);
  const RunMetrics dec = run(decay::Technique::kDecay);
  EXPECT_GE(sel.l2_misses, base.l2_misses);
  EXPECT_GE(dec.l2_misses, sel.l2_misses);
}

TEST_F(OrderingTest, DecayNeedsMoreBandwidth) {
  // Fig 4(a): decay >> selective decay >> protocol (~0).
  const RunMetrics base = run(decay::Technique::kBaseline);
  const RunMetrics sel = run(decay::Technique::kSelectiveDecay);
  const RunMetrics dec = run(decay::Technique::kDecay);
  EXPECT_GT(dec.mem_bytes, base.mem_bytes);
  EXPECT_GE(dec.mem_bytes, sel.mem_bytes);
}

TEST_F(OrderingTest, SmallerDecayTimeLowersOccupation) {
  const double d64 = run(decay::Technique::kDecay, 4096).l2_occupation;
  const double d512 = run(decay::Technique::kDecay, 32768).l2_occupation;
  EXPECT_LT(d64, d512);
}

TEST_F(OrderingTest, GatedTechniquesSaveL2LeakagePower) {
  // Compare leakage *power* (energy per cycle): decay runs longer than the
  // baseline, so absolute leakage energies are not directly comparable.
  auto leak_rate = [](const RunMetrics& m) {
    return m.ledger.get(power::Component::kL2Leakage) /
           static_cast<double>(m.cycles);
  };
  const RunMetrics base = run(decay::Technique::kBaseline);
  const RunMetrics prot = run(decay::Technique::kProtocol);
  const RunMetrics dec = run(decay::Technique::kDecay);
  EXPECT_LT(leak_rate(prot), leak_rate(base));
  EXPECT_LT(leak_rate(dec), leak_rate(prot));
}

}  // namespace
}  // namespace cdsim::sim
