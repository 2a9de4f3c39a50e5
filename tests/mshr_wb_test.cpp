// Dedicated edge-case suites for the two structures the CacheLevel engine
// wires into every level: the MSHR file (full-file stall/replay, merge
// ordering, synchronous re-allocation from a completion waiter) and the
// coalescing write buffer (FIFO drain ordering under back-pressure,
// coalescing rules across the draining boundary, pending-write visibility
// while a drain is in flight). Until now neither had a suite of its own —
// their behavior was only pinned indirectly through whole-system runs.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cdsim/bus/snoop_bus.hpp"
#include "cdsim/cache/mshr.hpp"
#include "cdsim/cache/write_buffer.hpp"
#include "cdsim/common/event_queue.hpp"
#include "cdsim/mem/memory.hpp"
#include "cdsim/sim/l1_cache.hpp"
#include "cdsim/sim/l2_cache.hpp"

namespace cdsim::sim {
namespace {

// ---------------------------------------------------------------------------
// MshrFile unit semantics
// ---------------------------------------------------------------------------

TEST(MshrFile, FillsToCapacityThenReportsFull) {
  cache::MshrFile f(2);
  EXPECT_FALSE(f.full());
  f.allocate(0x1000, false, 1);
  f.allocate(0x2000, true, 2);
  EXPECT_TRUE(f.full());
  EXPECT_EQ(f.in_use(), 2u);
  f.complete(0x1000, 10);
  EXPECT_FALSE(f.full());
  EXPECT_EQ(f.in_use(), 1u);
}

TEST(MshrFile, WaitersRunInMergeOrderWithTheFillCycle) {
  cache::MshrFile f(4);
  cache::MshrEntry& e = f.allocate(0x1000, false, 1);
  std::vector<int> order;
  std::vector<Cycle> cycles;
  for (int i = 0; i < 3; ++i) {
    f.merge(e, false, [&order, &cycles, i](Cycle done) {
      order.push_back(i);
      cycles.push_back(done);
    });
  }
  f.complete(0x1000, 42);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(cycles, (std::vector<Cycle>{42, 42, 42}));
  EXPECT_EQ(f.total_merges(), 3u);
}

TEST(MshrFile, WriteMergePromotesEntryToOwnershipFetch) {
  cache::MshrFile f(2);
  cache::MshrEntry& e = f.allocate(0x1000, /*is_write=*/false, 1);
  EXPECT_FALSE(e.is_write);
  f.merge(e, /*is_write=*/true, [](Cycle) {});
  EXPECT_TRUE(e.is_write);  // the controller must upgrade the fetch
}

TEST(MshrFile, WaiterMayReallocateTheSameLineSynchronously) {
  // A completion waiter re-entering the cache may miss again and allocate
  // a fresh entry for the very line that just completed — the file must
  // have erased the old entry before running waiters.
  cache::MshrFile f(1);
  cache::MshrEntry& e = f.allocate(0x1000, false, 1);
  bool reallocated = false;
  f.merge(e, false, [&](Cycle) {
    ASSERT_FALSE(f.full());
    ASSERT_EQ(f.find(0x1000), nullptr);
    f.allocate(0x1000, true, 5);
    reallocated = true;
  });
  f.complete(0x1000, 9);
  EXPECT_TRUE(reallocated);
  EXPECT_TRUE(f.full());
  ASSERT_NE(f.find(0x1000), nullptr);
  EXPECT_TRUE(f.find(0x1000)->is_write);
}

// ---------------------------------------------------------------------------
// WriteBuffer unit semantics
// ---------------------------------------------------------------------------

TEST(WriteBuffer, DrainsInFifoOrderUnderBackPressure) {
  cache::WriteBuffer wb(4);
  ASSERT_TRUE(wb.push(0x100, 1));
  ASSERT_TRUE(wb.push(0x200, 2));
  ASSERT_TRUE(wb.push(0x300, 3));
  // Only one drain slot free (back-pressure): claims come oldest-first.
  EXPECT_EQ(wb.drain_next(), std::optional<Addr>(0x100));
  EXPECT_EQ(wb.draining(), 1u);
  // The next claim (a second in-flight drain) is the next-oldest slot.
  EXPECT_EQ(wb.drain_next(), std::optional<Addr>(0x200));
  // Completion out of order: each drain_done releases ITS slot; the
  // remaining drainable entry is still FIFO.
  wb.drain_done(0x200);
  EXPECT_EQ(wb.size(), 2u);
  wb.drain_done(0x100);
  EXPECT_EQ(wb.drain_next(), std::optional<Addr>(0x300));
  wb.drain_done(0x300);
  EXPECT_TRUE(wb.empty());
}

TEST(WriteBuffer, CoalescesOnlyIntoNewestNonDrainingSlot) {
  cache::WriteBuffer wb(4);
  ASSERT_TRUE(wb.push(0x100, 1));
  ASSERT_TRUE(wb.push(0x100, 2));  // coalesced
  EXPECT_EQ(wb.size(), 1u);
  EXPECT_EQ(wb.total_coalesced(), 1u);
  // Once the slot's drain started, the write has left for the L2: a later
  // store to the same line needs a FRESH slot.
  ASSERT_EQ(wb.drain_next(), std::optional<Addr>(0x100));
  ASSERT_TRUE(wb.push(0x100, 3));
  EXPECT_EQ(wb.size(), 2u);
  EXPECT_EQ(wb.total_coalesced(), 1u);
  // A store to a different line in between also blocks coalescing.
  ASSERT_TRUE(wb.push(0x200, 4));
  ASSERT_TRUE(wb.push(0x100, 5));
  EXPECT_EQ(wb.size(), 4u);
  EXPECT_TRUE(wb.full());
  EXPECT_FALSE(wb.push(0x300, 6));  // full and not coalescible: stall
}

TEST(WriteBuffer, PendingCoversDrainingSlotsUntilDone) {
  // The Table-I gate: a write counts as pending while its drain is in
  // flight, and only drain_done clears it.
  cache::WriteBuffer wb(2);
  ASSERT_TRUE(wb.push(0x100, 1));
  EXPECT_TRUE(wb.pending_to(0x100));
  ASSERT_EQ(wb.drain_next(), std::optional<Addr>(0x100));
  EXPECT_TRUE(wb.pending_to(0x100));  // in flight: still pending
  wb.drain_done(0x100);
  EXPECT_FALSE(wb.pending_to(0x100));
}

// ---------------------------------------------------------------------------
// Full-MSHR stall and replay on a live two-cache system
// ---------------------------------------------------------------------------

/// L1+L2 on one bus with configurable MSHR/write-buffer pressure.
struct PressureHarness {
  EventQueue eq;
  mem::MemoryController mem;
  bus::SnoopBus bus;
  std::unique_ptr<L1Cache> l1;
  std::unique_ptr<L2Cache> l2;

  explicit PressureHarness(const L1Config& l1cfg, const L2Config& l2cfg,
                           std::uint64_t l2_bytes = 1 * MiB)
      : mem(eq, mem::MemoryConfig{}), bus(eq, bus::BusConfig{}, mem) {
    l1 = std::make_unique<L1Cache>(eq, l1cfg, /*line_bytes=*/64, 0);
    l2 = std::make_unique<L2Cache>(eq, l2cfg, l2_bytes, /*line_bytes=*/64,
                                   coherence::Protocol::kMesi,
                                   decay::DecayConfig{}, 0, bus, l1.get());
    l1->connect_l2(l2.get());
    bus.attach(l2.get());
  }

  void drain_all() {
    while (!l1->write_buffer().empty()) ASSERT_TRUE(eq.step());
  }
};

TEST(MshrPressure, L2FullMshrStallsAndReplaysAllReads) {
  L2Config l2cfg;
  l2cfg.mshr_entries = 2;  // tiny: the 6 concurrent misses must stall
  PressureHarness h(L1Config{}, l2cfg, 64 * KiB);

  int done = 0;
  for (Addr a = 0; a < 6; ++a) {
    h.l2->read(0x10000 + a * 4096, [&done](Cycle, bool) { ++done; });
  }
  // Everything completes despite the 2-entry file (retry + replay), and
  // each read was a genuine miss exactly once.
  while (done < 6) ASSERT_TRUE(h.eq.step());
  EXPECT_EQ(h.l2->stats().read_misses.value(), 6u);
  EXPECT_EQ(h.l2->stats().read_hits.value(), 0u);
  EXPECT_EQ(h.mem.read_count(), 6u);
}

TEST(MshrPressure, L1FullMshrParksTheCoreUntilACompletion) {
  L1Config l1cfg;
  l1cfg.mshr_entries = 1;
  PressureHarness h(l1cfg, L2Config{});

  bool first_done = false;
  auto out1 = h.l1->try_load(0x1000, [&](Cycle) { first_done = true; });
  ASSERT_TRUE(out1.accepted);
  ASSERT_FALSE(out1.completed);

  // A second miss to a different line finds the file full: NOT accepted —
  // exactly the signal the core uses to park the load queue.
  auto out2 = h.l1->try_load(0x2000, [](Cycle) {});
  EXPECT_FALSE(out2.accepted);

  // A load to the SAME outstanding line merges instead of stalling.
  bool merged_done = false;
  auto out3 = h.l1->try_load(0x1008, [&](Cycle) { merged_done = true; });
  EXPECT_TRUE(out3.accepted);

  while (!first_done || !merged_done) ASSERT_TRUE(h.eq.step());
  // After the completion freed the entry, the parked line goes through.
  auto out4 = h.l1->try_load(0x2000, [](Cycle) {});
  EXPECT_TRUE(out4.accepted);
}

TEST(MshrPressure, WriteBufferBackPressureStallsStoresNotCorrectness) {
  L1Config l1cfg;
  l1cfg.write_buffer_entries = 2;
  l1cfg.max_drains_in_flight = 1;  // serialize drains: maximal pressure
  PressureHarness h(l1cfg, L2Config{});

  // Fill the buffer beyond its drain rate; some stores must stall.
  int accepted = 0, stalled = 0;
  for (Addr a = 0; a < 6; ++a) {
    if (h.l1->try_store(0x20000 + a * 64)) {
      ++accepted;
    } else {
      ++stalled;
      h.eq.step();  // give a drain a chance, then retry once
      if (h.l1->try_store(0x20000 + a * 64)) ++accepted;
    }
  }
  EXPECT_GT(stalled, 0);
  h.drain_all();
  // Every accepted store reached the L2 exactly once (write-through).
  EXPECT_EQ(h.l2->stats().accesses(),
            static_cast<std::uint64_t>(accepted));
  EXPECT_EQ(h.l1->write_buffer().draining(), 0u);
}

}  // namespace
}  // namespace cdsim::sim
