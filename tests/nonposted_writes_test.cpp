// Pins for MemoryConfig::posted_writes = false, the one path on which the
// memory side decides how long a decayed dirty L2 line stays powered: §III
// turns a TransientDirty line off only when its write-back completes, and a
// non-posted write-back completes when memory has absorbed it. Eviction
// write-backs carry no completion hook, so only `decay` runs (dirty
// turn-offs) differ from their posted twins; all four machines run decay.
//
// Each machine runs with the differential oracle attached and pins the
// executed event count, the cycle count and a digest of all 75 RunMetrics
// leaves (sim::format_metrics: exact integers, doubles in hexfloat). A
// failing run prints every live leaf. If an intentional modeling change
// moves these numbers, re-capture them in the same commit.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/verify/fuzz.hpp"
#include "cdsim/verify/oracle.hpp"

namespace cdsim {
namespace {

struct Pinned {
  std::uint64_t events;
  Cycle cycles;
  std::uint64_t metrics_digest;  ///< FNV-1a 64 of sim::format_metrics.
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A fuzz-matrix machine running decay with non-posted write-backs.
verify::FuzzScenario scenario(coherence::Protocol protocol,
                              noc::Topology topology, std::uint32_t cores,
                              mem::MemoryModel model) {
  verify::FuzzScenario sc;
  sc.machine = verify::fuzz_machine(
      protocol, decay::DecayConfig{decay::Technique::kDecay, 2048, 4},
      topology, cores, sim::Hierarchy::kTwoLevel, model);
  sc.machine.instructions_per_core = 200000;
  sc.machine.seed = 1;
  sc.machine.mem.posted_writes = false;
  sc.fuzz.decay_window = 2048;
  if (topology == noc::Topology::kDirectoryMesh) sc.fuzz.w_hot_home = 0.18;
  return sc;
}

void expect_pinned(const verify::FuzzScenario& sc, const Pinned& want) {
  const sim::SystemConfig& cfg = sc.machine;
  workload::Benchmark bench;
  bench.config.name = sc.label();
  verify::DifferentialChecker checker(cfg.num_cores);
  sim::CmpSystem sys(cfg, bench, verify::fuzz_streams(sc));
  sys.set_observer(&checker);
  const sim::RunMetrics m = sys.run();
  EXPECT_GT(sys.check_coherence_invariants(), 0u);
  EXPECT_EQ(checker.total_divergences(), 0u);
  EXPECT_GT(m.l2_decay_turnoffs, 0u);

  EXPECT_EQ(sys.events().executed(), want.events);
  EXPECT_EQ(m.cycles, want.cycles);
  EXPECT_EQ(fnv1a(sim::format_metrics(m)), want.metrics_digest);
  if (::testing::Test::HasFailure()) {
    std::printf("events %llu\nlive metrics (digest 0x%llx):\n%s",
                static_cast<unsigned long long>(sys.events().executed()),
                static_cast<unsigned long long>(
                    fnv1a(sim::format_metrics(m))),
                sim::format_metrics(m).c_str());
  }
}

// Memory (64 B/cycle) is faster than the bus data phase (16 B/cycle), so a
// turn-off write-back completes when the bus is done with it: this run is
// identical to its posted twin.
TEST(NonPostedWrites, BusMesiFlatFasterThanTheBusIsPinned) {
  verify::FuzzScenario sc =
      scenario(coherence::Protocol::kMesi, noc::Topology::kSnoopBus, 4,
               mem::MemoryModel::kFlat);
  sc.machine.mem.bytes_per_cycle = 64;
  expect_pinned(sc, {14409, 75208, 0x4257004c32632a80});
}

TEST(NonPostedWrites, BusMoesiDramAndTlbIsPinned) {
  const verify::FuzzScenario sc =
      scenario(coherence::Protocol::kMoesi, noc::Topology::kSnoopBus, 4,
               mem::MemoryModel::kDram);
  expect_pinned(sc, {22430, 144331, 0x61cd50a6583cfb4b});
}

TEST(NonPostedWrites, SixteenCoreMesiMeshFlatIsPinned) {
  const verify::FuzzScenario sc =
      scenario(coherence::Protocol::kMesi, noc::Topology::kDirectoryMesh, 16,
               mem::MemoryModel::kFlat);
  expect_pinned(sc, {194184, 87733, 0x6651d7cab2452dc8});
}

TEST(NonPostedWrites, EightCoreMoesiMeshDramAndTlbIsPinned) {
  const verify::FuzzScenario sc =
      scenario(coherence::Protocol::kMoesi, noc::Topology::kDirectoryMesh, 8,
               mem::MemoryModel::kDram);
  expect_pinned(sc, {109778, 238110, 0x9a6f4aac73839572});
}

}  // namespace
}  // namespace cdsim
