// Unit tests for the banked-DRAM controller and the per-core TLBs: row
// hit / closed / conflict timing, FR-FCFS reordering with its starvation
// cap, lazy refresh, write forwarding (the oracle-threading invariant),
// TLB LRU behaviour and the miss-walk port, plus an oracle-checked kDram
// system run proving flat and DRAM modes agree on every data value.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "cdsim/common/event_queue.hpp"
#include "cdsim/mem/memory.hpp"
#include "cdsim/mem/tlb.hpp"
#include "cdsim/verify/fuzz.hpp"

namespace cdsim::mem {
namespace {

/// One channel, one rank, two banks, refresh off: with 2 KiB rows and
/// 64 B interleave, lines 0 and 64 share bank 0 row 0, line 4096 is
/// bank 0 row 1, line 2048 is bank 1 row 0.
MemoryConfig dram_cfg() {
  MemoryConfig cfg;
  cfg.model = MemoryModel::kDram;
  cfg.dram.channels = 1;
  cfg.dram.ranks_per_channel = 1;
  cfg.dram.banks_per_rank = 2;
  cfg.dram.t_refi = 0;  // refresh off unless a test turns it on
  return cfg;
}

TEST(Dram, RowHitMissConflictTiming) {
  EventQueue eq;
  const MemoryConfig cfg = dram_cfg();
  MemoryController mem(eq, cfg);
  const Cycle xfer = 64 / cfg.bytes_per_cycle;  // 4
  std::vector<Cycle> done;
  const auto record = [&done](Cycle t) { done.push_back(t); };
  mem.read(0, 64, 0, record);     // closed bank: tRCD + tCAS
  mem.read(0, 64, 64, record);    // same row: tCAS
  mem.read(0, 64, 4096, record);  // other row, same bank: conflict
  eq.run();
  const DramConfig& d = cfg.dram;
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], d.t_rcd + d.t_cas + xfer);
  EXPECT_EQ(done[1], done[0] + d.t_cas + xfer);
  EXPECT_EQ(done[2], done[1] + d.t_rp + d.t_rcd + d.t_cas + xfer);
  const DramStats& st = mem.dram_stats();
  EXPECT_EQ(st.row_hits, 1u);
  EXPECT_EQ(st.row_misses, 1u);
  EXPECT_EQ(st.row_conflicts, 1u);
  EXPECT_EQ(st.activates, 2u);
  EXPECT_EQ(st.precharges, 1u);
  EXPECT_EQ(mem.read_count(), 3u);
  EXPECT_EQ(mem.bytes_read(), 192u);
}

TEST(Dram, FrFcfsServesRowHitsFirst) {
  EventQueue eq;
  MemoryController mem(eq, dram_cfg());
  std::vector<char> order;
  mem.read(0, 64, 0, [&](Cycle) { order.push_back('A'); });
  mem.read(0, 64, 4096, [&](Cycle) { order.push_back('B'); });
  mem.read(0, 64, 64, [&](Cycle) { order.push_back('C'); });
  eq.run();
  // A opens row 0; C is a row hit and bypasses the older conflicting B.
  EXPECT_EQ(std::string(order.begin(), order.end()), "ACB");
}

TEST(Dram, StarvationCapForcesTheOldestRequest) {
  EventQueue eq;
  MemoryConfig cfg = dram_cfg();
  cfg.dram.starvation_limit = 1;
  MemoryController mem(eq, cfg);
  std::vector<char> order;
  mem.read(0, 64, 0, [&](Cycle) { order.push_back('A'); });
  mem.read(0, 64, 4096, [&](Cycle) { order.push_back('B'); });
  mem.read(0, 64, 64, [&](Cycle) { order.push_back('C'); });
  mem.read(0, 64, 128, [&](Cycle) { order.push_back('D'); });
  eq.run();
  // C bypasses B once; the cap then forces B ahead of the row-hitting D.
  EXPECT_EQ(std::string(order.begin(), order.end()), "ACBD");
}

TEST(Dram, RefreshClosesRowsAndStallsTheBank) {
  EventQueue eq;
  MemoryConfig cfg = dram_cfg();
  cfg.dram.t_refi = 100;
  cfg.dram.t_rfc = 50;
  MemoryController mem(eq, cfg);
  const DramConfig& d = cfg.dram;
  const Cycle xfer = 64 / cfg.bytes_per_cycle;
  std::vector<Cycle> done;
  const auto record = [&done](Cycle t) { done.push_back(t); };
  mem.read(0, 64, 0, record);
  // Arrives after the cycle-100 refresh tick: the row it would have hit
  // is closed again and the bank is held until tick + tRFC = 150.
  mem.read(140, 64, 64, record);
  eq.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], d.t_rcd + d.t_cas + xfer);
  EXPECT_EQ(done[1], 150 + d.t_rcd + d.t_cas + xfer);
  const DramStats& st = mem.dram_stats();
  EXPECT_GE(st.refreshes, 1u);
  EXPECT_EQ(st.row_hits, 0u);
  EXPECT_EQ(st.row_misses, 2u);
}

TEST(Dram, QueuedWriteForwardsToAYoungerRead) {
  EventQueue eq;
  const MemoryConfig cfg = dram_cfg();
  MemoryController mem(eq, cfg);
  std::vector<std::pair<char, Cycle>> done;
  mem.write(0, 64, 0, [&](Cycle t) { done.push_back({'w', t}); });
  mem.write(0, 64, 4096, [&](Cycle t) { done.push_back({'W', t}); });
  // The read matches the still-queued second write: it is served from the
  // queue at tCAS + transfer and never visits (or waits for) the bank.
  mem.read(0, 64, 4096, [&](Cycle t) { done.push_back({'r', t}); });
  eq.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].first, 'r');
  EXPECT_EQ(done[0].second, cfg.dram.t_cas + 64 / cfg.bytes_per_cycle);
  EXPECT_EQ(mem.dram_stats().write_forwards, 1u);
}

TEST(Dram, CallbacksRunAtTheirCompletionCycle) {
  // DRAM reports a completion from the event that ends the service (or the
  // forwarded read): the callback's cycle is always now().
  EventQueue eq;
  MemoryController mem(eq, dram_cfg());
  std::vector<std::pair<Cycle, Cycle>> seen;  // (t, now)
  const auto record = [&seen, &eq](Cycle t) { seen.push_back({t, eq.now()}); };
  mem.read(0, 64, 0, record);
  mem.write(10, 64, 4096, record);
  mem.read(10, 64, 4096, record);  // forwarded from the queued write
  mem.read(300, 64, 2048, record);
  EXPECT_TRUE(seen.empty());  // nothing completes inside the call
  eq.run();
  ASSERT_EQ(seen.size(), 4u);
  for (const auto& [t, now] : seen) EXPECT_EQ(t, now);
  EXPECT_EQ(mem.dram_stats().write_forwards, 1u);
}

TEST(Dram, ZeroByteRequestsCompleteWithoutTraffic) {
  EventQueue eq;
  MemoryController mem(eq, dram_cfg());
  std::vector<Cycle> done;
  mem.read(5, 0, 0, [&](Cycle t) { done.push_back(t); });
  mem.write(7, 0, 64, [&](Cycle t) { done.push_back(t); });
  eq.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 5u);
  EXPECT_EQ(done[1], 7u);
  EXPECT_EQ(mem.total_bytes(), 0u);
  EXPECT_EQ(mem.read_count(), 0u);
  EXPECT_EQ(mem.write_count(), 0u);
}

// --- TLB ---------------------------------------------------------------------

TEST(Tlb, PageGranularityAndTrueLru) {
  TlbConfig cfg;
  cfg.enabled = true;
  cfg.entries = 2;
  Tlb tlb(cfg);
  EXPECT_FALSE(tlb.access(0));       // page 0: cold miss
  EXPECT_TRUE(tlb.access(64));       // same page
  EXPECT_FALSE(tlb.access(4096));    // page 1: cold miss
  EXPECT_TRUE(tlb.access(4160));     // same page
  EXPECT_FALSE(tlb.access(8192));    // page 2: evicts LRU page 0
  EXPECT_FALSE(tlb.access(0));       // page 0 is gone again
  EXPECT_EQ(tlb.hits(), 2u);
  EXPECT_EQ(tlb.misses(), 4u);
}

/// Scriptable inner port standing in for the L1.
class FakePort final : public core::LoadStorePort {
 public:
  bool accept = true;
  Cycle hit_latency = 3;
  std::uint64_t loads = 0;
  core::FreedCallback freed;

  core::LoadOutcome try_load(Addr, core::LoadCallback) override {
    if (!accept) return {};
    ++loads;
    return {.accepted = true, .completed = true, .latency = hit_latency};
  }
  bool try_store(Addr) override { return true; }
  void set_resources_freed(core::FreedCallback cb) override {
    freed = std::move(cb);
  }
};

TEST(TlbPort, MissPaysTheWalkAndHitForwardsSynchronously) {
  EventQueue eq;
  TlbConfig cfg;
  cfg.enabled = true;
  cfg.miss_walk_latency = 60;
  FakePort inner;
  TlbPort port(eq, cfg, inner);

  // Cold page: the load is accepted, walks, then completes through the
  // queue at walk + inner-hit latency.
  Cycle done = 0;
  const core::LoadOutcome miss =
      port.try_load(0x40, [&](Cycle t) { done = t; });
  EXPECT_TRUE(miss.accepted);
  EXPECT_FALSE(miss.completed);
  eq.run();
  EXPECT_EQ(done, cfg.miss_walk_latency + inner.hit_latency);

  // Warm page: the TLB hit forwards straight to the inner port, which
  // completes synchronously — no walk, no event.
  const core::LoadOutcome hit =
      port.try_load(0x80, core::LoadCallback{});
  EXPECT_TRUE(hit.completed);
  EXPECT_EQ(hit.latency, inner.hit_latency);
  EXPECT_EQ(inner.loads, 2u);
}

TEST(TlbPort, WalkedLoadParksOnAFullInnerAndRetries) {
  EventQueue eq;
  TlbConfig cfg;
  cfg.enabled = true;
  cfg.miss_walk_latency = 10;
  FakePort inner;
  inner.accept = false;  // MSHRs "full" while the walk completes
  TlbPort port(eq, cfg, inner);

  Cycle done = 0;
  EXPECT_TRUE(port.try_load(0x40, [&](Cycle t) { done = t; }).accepted);
  eq.run();
  EXPECT_EQ(done, 0u);  // parked, not lost
  inner.accept = true;
  ASSERT_TRUE(inner.freed);  // the port registered for the wake-up
  inner.freed();
  eq.run();
  EXPECT_EQ(done, eq.now());
  EXPECT_EQ(inner.loads, 1u);
}

// --- whole-system oracle check ----------------------------------------------

TEST(DramSystem, OracleSeesIdenticalValuesUnderDram) {
  // The acceptance gate for the memory-model swap: a contended 8-core
  // directory-mesh run under kDram (TLBs on, refresh hot) must produce
  // exactly the values the differential oracle predicts — the DRAM
  // scheduler may reorder *service*, never *data*.
  verify::FuzzScenario sc;
  sc.machine = verify::fuzz_machine(
      coherence::Protocol::kMesi,
      decay::DecayConfig{decay::Technique::kDecay, 2048, 4},
      noc::Topology::kDirectoryMesh, 8, sim::Hierarchy::kTwoLevel,
      MemoryModel::kDram, /*l2_bytes_per_core=*/16 * KiB);
  sc.machine.seed = 90210;
  sc.fuzz.decay_window = 2048;
  const verify::ScenarioOutcome out = verify::run_scenario(sc);
  EXPECT_EQ(out.total_divergences, 0u)
      << verify::to_string(out.divergences.front());
  EXPECT_GT(out.loads_checked, 0u);
  EXPECT_EQ(out.metrics.mem_model, "dram");
  // The run really exercised the DRAM engine and the TLBs.
  EXPECT_GT(out.metrics.dram_row_hits + out.metrics.dram_row_misses +
                out.metrics.dram_row_conflicts,
            0u);
  EXPECT_GT(out.metrics.dram_refreshes, 0u);
  EXPECT_GT(out.metrics.tlb_misses, 0u);
  // And it is deterministic.
  const verify::ScenarioOutcome again = verify::run_scenario(sc);
  EXPECT_EQ(sim::first_difference(again.metrics, out.metrics), "");
}

}  // namespace
}  // namespace cdsim::mem
