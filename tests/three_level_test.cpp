// Directed tests of the three-level hierarchy: the shared home-banked L3
// (sim::L3Cache on the generic cache::CacheLevel engine) driven standalone
// through its noc::MemorySideCache interface, plus end-to-end CmpSystem
// runs proving the L3 filters memory traffic, decay runs at every level,
// and the whole machine stays deterministic and invariant-clean.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cdsim/common/event_queue.hpp"
#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/sim/l3_cache.hpp"
#include "cdsim/workload/benchmarks.hpp"

namespace cdsim::sim {
namespace {

/// One-bank L3 with a counting memory port.
struct L3Harness {
  EventQueue eq;
  std::vector<Addr> mem_writes;
  L3Cache l3;

  explicit L3Harness(decay::Technique tech = decay::Technique::kProtocol,
                     Cycle decay_time = 4096, std::uint32_t ways = 2)
      // A 16 KiB bank, 128 sets x 2 ways: evictable in tests.
      : l3(eq, make_cfg(ways), 16 * KiB, /*line_bytes=*/64,
           decay::DecayConfig{tech, decay_time, 4}, /*num_banks=*/1) {
    l3.connect_memory_port(
        [this](std::uint32_t /*bank*/, Addr line, std::uint32_t /*bytes*/) {
          mem_writes.push_back(line);
        });
    l3.start();
  }

  ~L3Harness() { l3.stop(); }

  static L3Config make_cfg(std::uint32_t ways) {
    L3Config cfg;
    cfg.ways = ways;
    return cfg;
  }

  void run_for(Cycle cycles) { eq.run_until(eq.now() + cycles); }
};

// --- fill / absorb / invalidate paths --------------------------------------

TEST(L3Bank, MissThenInstallThenHit) {
  L3Harness h;
  EXPECT_FALSE(h.l3.lookup_for_fill(0, 0x1000));  // cold miss
  h.l3.install_from_memory(0, 0x1000);
  EXPECT_TRUE(h.l3.has_line(0, 0x1000));
  EXPECT_FALSE(h.l3.line_dirty(0, 0x1000));
  EXPECT_TRUE(h.l3.lookup_for_fill(0, 0x1000));  // now a hit
  const cache::LevelCounters c =
      h.l3.counters(h.eq.now(), decay::Technique::kProtocol);
  EXPECT_EQ(c.accesses - c.misses, 1u);  // the hit
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.fills, 1u);
}

TEST(L3Bank, AbsorbedWritebackIsDirtyAndOverwritesCleanCopy) {
  L3Harness h;
  h.l3.install_from_memory(0, 0x2000);
  EXPECT_FALSE(h.l3.line_dirty(0, 0x2000));
  h.l3.absorb_writeback(0, 0x2000);  // in-place: clean copy superseded
  EXPECT_TRUE(h.l3.line_dirty(0, 0x2000));
  h.l3.absorb_writeback(0, 0x3000);  // allocating absorb
  EXPECT_TRUE(h.l3.line_dirty(0, 0x3000));
  EXPECT_TRUE(h.mem_writes.empty());  // nothing reached memory
}

TEST(L3Bank, DirtyVictimEvictionWritesToMemory) {
  L3Harness h;
  // 16 KiB, 2-way, 64 B lines -> 128 sets; set stride = 128 * 64.
  const Addr stride = 128 * 64;
  h.l3.absorb_writeback(0, 0x0);             // dirty, will become LRU
  h.l3.install_from_memory(0, stride);       // fills the other way
  h.l3.install_from_memory(0, 2 * stride);   // evicts the dirty line
  EXPECT_FALSE(h.l3.has_line(0, 0x0));
  ASSERT_EQ(h.mem_writes.size(), 1u);
  EXPECT_EQ(h.mem_writes[0], 0x0u);
  EXPECT_EQ(h.l3.bank_stats(0).evictions.value(), 1u);
  EXPECT_EQ(h.l3.bank_stats(0).writebacks.value(), 1u);
}

TEST(L3Bank, CleanVictimEvictionIsSilent) {
  L3Harness h;
  const Addr stride = 128 * 64;
  h.l3.install_from_memory(0, 0x0);
  h.l3.install_from_memory(0, stride);
  h.l3.install_from_memory(0, 2 * stride);
  EXPECT_EQ(h.l3.bank_stats(0).evictions.value(), 1u);
  EXPECT_TRUE(h.mem_writes.empty());
}

TEST(L3Bank, InvalidateDropsEvenDirtyCopies) {
  // A memory-updating owner flush supersedes the bank's data: the copy is
  // dropped with NO memory write (the flush carries the newer version).
  L3Harness h;
  h.l3.absorb_writeback(0, 0x4000);
  h.l3.invalidate(0, 0x4000);
  EXPECT_FALSE(h.l3.has_line(0, 0x4000));
  EXPECT_TRUE(h.mem_writes.empty());
  h.l3.invalidate(0, 0x4000);  // absent line: no-op
}

// --- decay legality at the last level --------------------------------------

TEST(L3Bank, CleanLineDecaysSilently) {
  L3Harness h(decay::Technique::kDecay, 4096);
  h.l3.install_from_memory(0, 0x1000);
  h.run_for(3 * 4096);
  EXPECT_FALSE(h.l3.has_line(0, 0x1000));
  EXPECT_EQ(h.l3.bank_stats(0).decay_turnoffs.value(), 1u);
  EXPECT_TRUE(h.mem_writes.empty());  // clean: droppable for free
}

TEST(L3Bank, DirtyLineDecayWritesBackFirst) {
  L3Harness h(decay::Technique::kDecay, 4096);
  h.l3.absorb_writeback(0, 0x2000);
  h.run_for(3 * 4096);
  EXPECT_FALSE(h.l3.has_line(0, 0x2000));
  EXPECT_EQ(h.l3.bank_stats(0).decay_turnoffs.value(), 1u);
  ASSERT_EQ(h.mem_writes.size(), 1u);  // §III: dirty must reach memory
  EXPECT_EQ(h.mem_writes[0], 0x2000u);
}

TEST(L3Bank, SelectiveDecaySparesDirtyBanks) {
  L3Harness h(decay::Technique::kSelectiveDecay, 4096);
  h.l3.install_from_memory(0, 0x1000);  // clean: armed
  h.l3.absorb_writeback(0, 0x2000);     // dirty: disarmed
  h.run_for(4 * 4096);
  EXPECT_FALSE(h.l3.has_line(0, 0x1000));  // decayed
  EXPECT_TRUE(h.l3.has_line(0, 0x2000));   // spared
  EXPECT_TRUE(h.mem_writes.empty());       // never a dirty turn-off
}

TEST(L3Bank, TouchRestartsTheCountdown) {
  L3Harness h(decay::Technique::kDecay, 4096);
  h.l3.install_from_memory(0, 0x1000);
  for (int i = 0; i < 6; ++i) {
    h.run_for(2048);
    ASSERT_TRUE(h.l3.lookup_for_fill(0, 0x1000)) << "round " << i;
  }
  EXPECT_TRUE(h.l3.has_line(0, 0x1000));
  EXPECT_EQ(h.l3.bank_stats(0).decay_turnoffs.value(), 0u);
}

TEST(L3Bank, DecayInducedMissesAreAttributed) {
  L3Harness h(decay::Technique::kDecay, 4096);
  h.l3.install_from_memory(0, 0x1000);
  h.run_for(3 * 4096);
  ASSERT_FALSE(h.l3.has_line(0, 0x1000));
  EXPECT_FALSE(h.l3.lookup_for_fill(0, 0x1000));  // refetch of a killed line
  EXPECT_EQ(h.l3.bank_stats(0).decay_induced_misses.value(), 1u);
}

// --- end-to-end three-level machine ----------------------------------------

SystemConfig three_level_base() {
  SystemConfig cfg;
  cfg.num_cores = 8;
  cfg.topology = noc::Topology::kDirectoryMesh;
  cfg.hierarchy = Hierarchy::kThreeLevel;
  cfg.total_l2_bytes = 1 * MiB;
  cfg.total_l3_bytes = 4 * MiB;
  cfg.instructions_per_core = 30000;
  return cfg;
}

TEST(ThreeLevelSystem, L3FiltersMemoryTraffic) {
  SystemConfig cfg3 = three_level_base();
  SystemConfig cfg2 = cfg3;
  cfg2.hierarchy = Hierarchy::kTwoLevel;
  const auto& bench = workload::benchmark_by_name("FMM");
  const RunMetrics m3 = run_config(cfg3, bench);
  const RunMetrics m2 = run_config(cfg2, bench);

  // Same cores, same L2s, same workload stream (the seed derivation does
  // not include the hierarchy): the added L3 can only remove off-chip
  // traffic — absorbed write-backs and bank-served refetches.
  EXPECT_EQ(m3.hierarchy, "3L");
  EXPECT_EQ(m2.hierarchy, "2L");
  EXPECT_GT(m3.l3.accesses, 0u);
  EXPECT_GT(m3.l3.hits, 0u);
  EXPECT_LT(m3.mem_bytes, m2.mem_bytes);
  EXPECT_EQ(m3.total_l3_bytes, cfg3.total_l3_bytes);
  EXPECT_EQ(m2.total_l3_bytes, 0u);
}

TEST(ThreeLevelSystem, InvariantsHoldAndRunsAreDeterministic) {
  SystemConfig cfg = three_level_base();
  cfg.protocol = coherence::Protocol::kMoesi;
  cfg.decay = decay::DecayConfig{decay::Technique::kDecay, 8192, 4};
  cfg.l1_decay = cfg.decay;
  cfg.l3_decay = cfg.decay;
  const auto& bench = workload::benchmark_by_name("WATER-NS");

  const SystemConfig fixed = normalized_run_config(cfg, bench);
  CmpSystem sys(fixed, bench);
  const RunMetrics a = sys.run();
  EXPECT_GT(sys.check_coherence_invariants(), 0u);

  CmpSystem sys2(fixed, bench);
  const RunMetrics b = sys2.run();
  EXPECT_EQ(first_difference(a, b), "");

  // Decay really fired at every level of this machine.
  EXPECT_GT(a.l1.decay_turnoffs, 0u);
  EXPECT_GT(a.l2.decay_turnoffs, 0u);
  EXPECT_GT(a.l3.decay_turnoffs, 0u);
  // And the L3 ledger components are live (leakage always; dynamic when
  // the banks saw traffic).
  EXPECT_GT(a.ledger.get(power::Component::kL3Leakage), 0.0);
  EXPECT_GT(a.ledger.get(power::Component::kL3Dynamic), 0.0);
}

TEST(ThreeLevelSystem, L3HasOneBankPerCore) {
  SystemConfig cfg = three_level_base();
  cfg.instructions_per_core = 1000;
  workload::Benchmark bench = workload::benchmark_by_name("FMM");
  CmpSystem sys(cfg, bench);
  EXPECT_EQ(sys.l3().num_banks(), cfg.num_cores);
}

}  // namespace
}  // namespace cdsim::sim
