// Directed tests of the L1/L2 cache controllers wired to a real bus and
// memory: hit/miss paths, write-through behaviour, MESI state evolution,
// inclusion back-invalidation, and the coherence-safe turn-off choreography
// (TC/TD) of the paper's Figure 2 — exercised on a live two-cache system.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cdsim/bus/snoop_bus.hpp"
#include "cdsim/common/event_queue.hpp"
#include "cdsim/mem/memory.hpp"
#include "cdsim/sim/l1_cache.hpp"
#include "cdsim/sim/l2_cache.hpp"

namespace cdsim::sim {
namespace {

using coherence::MesiState;

/// Two cores' worth of L1+L2 on one bus, driven directly (no core model).
struct Harness {
  EventQueue eq;
  mem::MemoryController mem;
  bus::SnoopBus bus;
  std::vector<std::unique_ptr<L1Cache>> l1s;
  std::vector<std::unique_ptr<L2Cache>> l2s;

  explicit Harness(decay::Technique tech = decay::Technique::kProtocol,
                   Cycle decay_time = 16384, std::uint32_t cores = 2)
      : mem(eq, mem::MemoryConfig{}), bus(eq, bus::BusConfig{}, mem) {
    decay::DecayConfig d;
    d.technique = tech;
    d.decay_time = decay_time;
    for (CoreId c = 0; c < cores; ++c) {
      l1s.push_back(
          std::make_unique<L1Cache>(eq, L1Config{}, /*line_bytes=*/64, c));
      // A small 64 KiB slice: tests can exercise eviction.
      l2s.push_back(std::make_unique<L2Cache>(
          eq, L2Config{}, 64 * KiB, /*line_bytes=*/64,
          coherence::Protocol::kMesi, d, c, bus, l1s.back().get()));
      l1s.back()->connect_l2(l2s.back().get());
      bus.attach(l2s.back().get());
      l2s.back()->start();
    }
  }

  ~Harness() {
    for (auto& l2 : l2s) l2->stop();
  }

  /// Issues a load through core `c`'s L1 and runs to completion.
  void load(CoreId c, Addr a) {
    bool done = false;
    const auto out = l1s[c]->try_load(a, [&](Cycle) { done = true; });
    ASSERT_TRUE(out.accepted);
    if (!out.completed) {
      while (!done) ASSERT_TRUE(eq.step());
    }
  }

  /// Issues a store through core `c`'s L1 and drains it to the L2.
  void store(CoreId c, Addr a) {
    ASSERT_TRUE(l1s[c]->try_store(a));
    drain(c);
  }

  void drain(CoreId c) {
    while (!l1s[c]->write_buffer().empty()) ASSERT_TRUE(eq.step());
  }

  void run_for(Cycle cycles) { eq.run_until(eq.now() + cycles); }
};

// --- basic paths ---------------------------------------------------------------

TEST(Hierarchy, ColdLoadFillsBothLevelsExclusive) {
  Harness h;
  h.load(0, 0x1000);
  EXPECT_TRUE(h.l1s[0]->has_line(0x1000));
  EXPECT_EQ(h.l2s[0]->line_state(0x1000), MesiState::kExclusive);
  EXPECT_EQ(h.l1s[0]->stats().read_misses.value(), 1u);
  EXPECT_EQ(h.l2s[0]->stats().read_misses.value(), 1u);
  EXPECT_EQ(h.mem.read_count(), 1u);
}

TEST(Hierarchy, SecondLoadHitsBothLevels) {
  Harness h;
  h.load(0, 0x1000);
  h.load(0, 0x1008);  // same line
  EXPECT_EQ(h.l1s[0]->stats().read_hits.value(), 1u);
  EXPECT_EQ(h.mem.read_count(), 1u);  // no extra traffic
}

TEST(Hierarchy, RemoteReadDowngradesToShared) {
  Harness h;
  h.load(0, 0x1000);
  h.load(1, 0x1000);
  EXPECT_EQ(h.l2s[0]->line_state(0x1000), MesiState::kShared);
  EXPECT_EQ(h.l2s[1]->line_state(0x1000), MesiState::kShared);
}

TEST(Hierarchy, StoreMissInstallsModified) {
  Harness h;
  h.store(0, 0x2000);
  EXPECT_EQ(h.l2s[0]->line_state(0x2000), MesiState::kModified);
  // Write-through, no-write-allocate: the L1 does not hold the line.
  EXPECT_FALSE(h.l1s[0]->has_line(0x2000));
  EXPECT_EQ(h.l2s[0]->stats().write_misses.value(), 1u);
}

TEST(Hierarchy, StoreToExclusiveUpgradesSilently) {
  Harness h;
  h.load(0, 0x1000);
  const auto upgrades_before = h.l2s[0]->upgrades();
  h.store(0, 0x1000);
  EXPECT_EQ(h.l2s[0]->line_state(0x1000), MesiState::kModified);
  EXPECT_EQ(h.l2s[0]->upgrades(), upgrades_before);  // no bus transaction
}

TEST(Hierarchy, StoreToSharedIssuesUpgradeAndInvalidatesRemote) {
  Harness h;
  h.load(0, 0x1000);
  h.load(1, 0x1000);
  h.store(0, 0x1000);
  EXPECT_EQ(h.l2s[0]->line_state(0x1000), MesiState::kModified);
  EXPECT_EQ(h.l2s[1]->line_state(0x1000), MesiState::kInvalid);
  EXPECT_GE(h.l2s[0]->upgrades(), 1u);
  EXPECT_EQ(h.l2s[1]->stats().coherence_invals.value(), 1u);
  // Inclusion: core 1's L1 copy is gone too.
  EXPECT_FALSE(h.l1s[1]->has_line(0x1000));
}

TEST(Hierarchy, RemoteWriteInvalidatesReaderEverywhere) {
  Harness h;
  h.load(0, 0x1000);
  h.store(1, 0x1000);
  EXPECT_EQ(h.l2s[0]->line_state(0x1000), MesiState::kInvalid);
  EXPECT_FALSE(h.l1s[0]->has_line(0x1000));
  EXPECT_EQ(h.l2s[1]->line_state(0x1000), MesiState::kModified);
}

TEST(Hierarchy, DirtyRemoteLineIsFlushedToReader) {
  Harness h;
  h.store(0, 0x3000);  // M in cache 0
  const auto wr_before = h.mem.write_count();
  h.load(1, 0x3000);   // BusRd: cache 0 flushes, memory updated
  EXPECT_EQ(h.l2s[0]->line_state(0x3000), MesiState::kShared);
  EXPECT_EQ(h.l2s[1]->line_state(0x3000), MesiState::kShared);
  EXPECT_GT(h.mem.write_count(), wr_before);
}

// --- decay turn-off choreography --------------------------------------------------

TEST(Hierarchy, CleanLineDecaysWithoutBusTraffic) {
  Harness h(decay::Technique::kDecay, 4096);
  h.load(0, 0x1000);  // E, armed
  const auto mem_before = h.mem.total_bytes();
  h.run_for(3 * 4096);
  EXPECT_EQ(h.l2s[0]->line_state(0x1000), MesiState::kInvalid);
  EXPECT_FALSE(h.l1s[0]->has_line(0x1000));  // inclusion: L1 invalidated
  EXPECT_EQ(h.l2s[0]->stats().decay_turnoffs.value(), 1u);
  EXPECT_EQ(h.l2s[0]->stats().writebacks.value(), 0u);
  EXPECT_EQ(h.mem.total_bytes(), mem_before);  // "no penalty" for clean
}

TEST(Hierarchy, DirtyLineDecayWritesBack) {
  Harness h(decay::Technique::kDecay, 4096);
  h.store(0, 0x2000);  // M
  const auto wr_before = h.mem.bytes_written();
  h.run_for(3 * 4096);
  EXPECT_EQ(h.l2s[0]->line_state(0x2000), MesiState::kInvalid);
  EXPECT_EQ(h.l2s[0]->stats().decay_turnoffs.value(), 1u);
  EXPECT_GE(h.l2s[0]->stats().writebacks.value(), 1u);
  EXPECT_GT(h.mem.bytes_written(), wr_before);  // TD flush reached memory
}

TEST(Hierarchy, AccessResetsDecayCountdown) {
  Harness h(decay::Technique::kDecay, 4096);
  h.load(0, 0x1000);
  // Keep touching within the decay interval: the line must survive.
  for (int i = 0; i < 8; ++i) {
    h.run_for(2048);
    h.load(0, 0x1040);  // different line in L1, same L2? no: same line
    h.load(0, 0x1000);
  }
  EXPECT_TRUE(coherence::holds_data(h.l2s[0]->line_state(0x1000)));
  // Note: the L1 filters repeated loads; this works here because the L1
  // copy is re-fetched after each decay-window-sized gap... to make the
  // touch visible at the L2 we go through a store.
  h.store(0, 0x1000);
  h.run_for(2048);
  EXPECT_TRUE(coherence::holds_data(h.l2s[0]->line_state(0x1000)));
}

TEST(Hierarchy, SelectiveDecaySparesModifiedLines) {
  Harness h(decay::Technique::kSelectiveDecay, 4096);
  h.load(0, 0x1000);   // E -> armed
  h.store(0, 0x2000);  // M -> disarmed
  h.run_for(4 * 4096);
  EXPECT_EQ(h.l2s[0]->line_state(0x1000), MesiState::kInvalid);  // decayed
  EXPECT_EQ(h.l2s[0]->line_state(0x2000), MesiState::kModified);  // spared
  EXPECT_EQ(h.l2s[0]->stats().writebacks.value(), 0u);  // never a TD flush
}

TEST(Hierarchy, SelectiveDecayArmsOnDowngradeToShared) {
  Harness h(decay::Technique::kSelectiveDecay, 4096);
  h.store(0, 0x2000);  // M in cache 0: SD never decays it...
  h.load(1, 0x2000);   // ...until a remote read downgrades it to S
  h.run_for(4 * 4096);
  EXPECT_EQ(h.l2s[0]->line_state(0x2000), MesiState::kInvalid);
  EXPECT_EQ(h.l2s[1]->line_state(0x2000), MesiState::kInvalid);
}

TEST(Hierarchy, PendingWriteGatesTurnOff) {
  // Table I: a line with a pending write in the L1 write buffer must not
  // be switched off. We pin the write buffer by filling it beyond the
  // drain concurrency, then check the line survives a decay interval.
  Harness h(decay::Technique::kDecay, 2048);
  h.load(0, 0x1000);
  // Stores to several distinct lines occupy the drain slots; one targets
  // the decaying line. A write counts as pending until it reaches the L2,
  // including while its drain is in flight.
  for (Addr a = 0; a < 5; ++a) {
    ASSERT_TRUE(h.l1s[0]->try_store(0x8000 + a * 64));
  }
  ASSERT_TRUE(h.l1s[0]->try_store(0x1000));
  // While the write is pending, sweeps must skip the line.
  EXPECT_TRUE(h.l1s[0]->pending_write(0x1000));
  h.eq.run_until(h.eq.now() + 1);  // let nothing else happen yet
  EXPECT_TRUE(coherence::holds_data(h.l2s[0]->line_state(0x1000)));
  // After the buffer drains, the store refreshed the line (it stays on).
  h.drain(0);
  EXPECT_TRUE(coherence::holds_data(h.l2s[0]->line_state(0x1000)));
}

TEST(Hierarchy, ProtocolTechniqueTurnsOffOnlyInvalidLines) {
  Harness h(decay::Technique::kProtocol);
  h.load(0, 0x1000);
  h.run_for(200000);  // far beyond any decay interval
  // Protocol never decays: the line is still powered and valid.
  EXPECT_EQ(h.l2s[0]->line_state(0x1000), MesiState::kExclusive);
  EXPECT_EQ(h.l2s[0]->stats().decay_turnoffs.value(), 0u);
  // A remote write invalidates (and with valid-bit gating, powers off).
  h.store(1, 0x1000);
  EXPECT_EQ(h.l2s[0]->line_state(0x1000), MesiState::kInvalid);
  EXPECT_LT(h.l2s[0]->lines_on(), h.l2s[0]->capacity_lines());
}

// --- occupation accounting ---------------------------------------------------------

TEST(Hierarchy, OccupationTracksPoweredLines) {
  Harness h(decay::Technique::kProtocol);
  EXPECT_EQ(h.l2s[0]->lines_on(), 0u);
  h.load(0, 0x1000);
  h.load(0, 0x2000);
  EXPECT_EQ(h.l2s[0]->lines_on(), 2u);
  h.store(1, 0x1000);  // invalidates one
  EXPECT_EQ(h.l2s[0]->lines_on(), 1u);
  const double occ = h.l2s[0]->occupation(h.eq.now());
  EXPECT_GT(occ, 0.0);
  EXPECT_LT(occ, 1.0);
}

TEST(Hierarchy, BaselineOccupationIsAlwaysFull) {
  Harness h(decay::Technique::kBaseline);
  h.load(0, 0x1000);
  h.run_for(10000);
  EXPECT_DOUBLE_EQ(h.l2s[0]->occupation(h.eq.now()), 1.0);
}

// --- write statistics on contended upgrades ---------------------------------------

TEST(Hierarchy, CancelledUpgradeCountsAsWriteMissNotHit) {
  Harness h;
  h.load(0, 0x1000);
  h.load(1, 0x1000);  // both Shared
  const auto hits0 = h.l2s[0]->stats().write_hits.value();
  const auto hits1 = h.l2s[1]->stats().write_hits.value();

  // Both cores store to the Shared line in the same cycle: both queue a
  // BusUpgr. Core 0's wins arbitration and invalidates core 1's copy, so
  // core 1's queued upgrade is cancelled by its validator and must retire
  // as a write MISS (BusRdX), not the write hit it optimistically looked
  // like at issue time.
  ASSERT_TRUE(h.l1s[0]->try_store(0x1000));
  ASSERT_TRUE(h.l1s[1]->try_store(0x1000));
  h.drain(0);
  h.drain(1);

  EXPECT_EQ(h.bus.cancelled_transactions(), 1u);
  // Core 0: a clean upgrade hit.
  EXPECT_EQ(h.l2s[0]->stats().write_hits.value(), hits0 + 1);
  EXPECT_EQ(h.l2s[0]->stats().write_misses.value(), 0u);
  // Core 1: the cancelled upgrade became a genuine write miss. Before the
  // fix it was double-counted as a hit and the miss vanished entirely.
  EXPECT_EQ(h.l2s[1]->stats().write_hits.value(), hits1);
  EXPECT_EQ(h.l2s[1]->stats().write_misses.value(), 1u);
  // Core 1 ends up the owner (its BusRdX ran last).
  EXPECT_EQ(h.l2s[1]->line_state(0x1000), MesiState::kModified);
  EXPECT_EQ(h.l2s[0]->line_state(0x1000), MesiState::kInvalid);
}

TEST(Hierarchy, WriteMissOnDecayedLineCountsDecayInduced) {
  Harness h(decay::Technique::kDecay, 4096);
  h.load(0, 0x1000);
  h.load(1, 0x1000);             // both Shared
  h.run_for(3 * 4096);           // both copies decay away
  ASSERT_EQ(h.l2s[1]->line_state(0x1000), MesiState::kInvalid);
  const auto dim_before = h.l2s[1]->stats().decay_induced_misses.value();
  h.store(1, 0x1000);            // miss on a line decay killed
  EXPECT_EQ(h.l2s[1]->stats().decay_induced_misses.value(), dim_before + 1);
}

// --- decay-attribution aging -------------------------------------------------------

TEST(Hierarchy, DecayAttributionSetIsBoundedByAging) {
  // Small decay interval so lines decay quickly; every decayed line is a
  // distinct address that is never touched again, the worst case for the
  // attribution map. 64 KiB slice = 1024 lines per generation.
  Harness h(decay::Technique::kDecay, 2048);
  const Addr stride = 64;
  std::size_t peak = 0;
  std::uint64_t addr = 0;
  // Each round streams 1024 fresh lines through the cache, then idles so
  // they all decay. The purge threshold is 4096 entries; by round 8 the
  // map would hold 8K entries without aging.
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 1024; ++i, addr += stride) h.load(0, addr);
    h.run_for(3 * 2048);
    peak = std::max(peak, h.l2s[0]->decay_attribution_entries());
  }
  const std::uint64_t turnoffs = h.l2s[0]->stats().decay_turnoffs.value();
  EXPECT_GT(turnoffs, 6000u);  // the workload really did decay ~8K lines
  // Aging kept the map well below one-entry-per-turnoff growth.
  EXPECT_LT(peak, 6000u);
  EXPECT_LT(h.l2s[0]->decay_attribution_entries(), 6000u);
}

// --- eviction / inclusion -----------------------------------------------------------

TEST(Hierarchy, CapacityEvictionBackInvalidatesL1AndWritesBackDirty) {
  Harness h;
  // 64 KiB, 8-way, 64 B lines -> 128 sets. Fill one set beyond capacity.
  const Addr set_stride = 128 * 64;
  h.store(0, 0x0);  // dirty line that will become the LRU victim
  h.load(0, 0x0);   // bring it into L1 as well
  for (int w = 1; w <= 8; ++w) {
    h.load(0, set_stride * static_cast<Addr>(w));
  }
  EXPECT_EQ(h.l2s[0]->line_state(0x0), MesiState::kInvalid);  // evicted
  EXPECT_FALSE(h.l1s[0]->has_line(0x0));  // inclusion enforced
  EXPECT_GE(h.l2s[0]->stats().evictions.value(), 1u);
  EXPECT_GE(h.l2s[0]->stats().writebacks.value(), 1u);  // it was dirty
}

}  // namespace
}  // namespace cdsim::sim
