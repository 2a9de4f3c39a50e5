// Unit tests for the shared snoopy bus and the memory controller: grant
// ordering, snoop fan-out, data-source selection, cancellation, bandwidth
// accounting and channel serialization.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "cdsim/bus/snoop_bus.hpp"
#include "cdsim/common/event_queue.hpp"
#include "cdsim/mem/memory.hpp"

namespace cdsim::bus {
namespace {

using coherence::BusTxKind;

/// Scriptable snooper: reports a configurable reply and records what it saw.
class FakeSnooper final : public noc::Snooper {
 public:
  noc::SnoopReply reply;
  struct Seen {
    BusTxKind kind;
    Addr line;
    CoreId requester;
  };
  std::vector<Seen> seen;

  noc::SnoopReply snoop(BusTxKind kind, Addr line, CoreId requester) override {
    seen.push_back({kind, line, requester});
    return reply;
  }
};

struct BusFixture {
  EventQueue eq;
  mem::MemoryConfig mcfg;
  mem::MemoryController mem{eq, mcfg};
  bus::BusConfig bcfg;
  bus::SnoopBus bus{eq, bcfg, mem};
  FakeSnooper s0, s1, s2;

  BusFixture() {
    bus.attach(&s0);
    bus.attach(&s1);
    bus.attach(&s2);
  }
};

TEST(SnoopBus, RequesterDoesNotSnoopItself) {
  BusFixture f;
  f.bus.request(BusTxKind::kBusRd, 0x1000, /*requester=*/1, 64,
                bus::SnoopBus::Completion{});
  f.eq.run();
  EXPECT_EQ(f.s1.seen.size(), 0u);
  ASSERT_EQ(f.s0.seen.size(), 1u);
  ASSERT_EQ(f.s2.seen.size(), 1u);
  EXPECT_EQ(f.s0.seen[0].line, 0x1000u);
  EXPECT_EQ(f.s0.seen[0].requester, 1u);
}

TEST(SnoopBus, SharedAndSupplierFlagsAggregate) {
  BusFixture f;
  f.s0.reply = {.had_line = true, .supplied_data = false};
  f.s2.reply = {.had_line = true, .supplied_data = true};
  noc::BusResult got;
  f.bus.request(BusTxKind::kBusRd, 0x40, 1, 64,
                [&](const noc::BusResult& r) { got = r; });
  f.eq.run();
  EXPECT_TRUE(got.shared);
  EXPECT_TRUE(got.supplied_by_cache);
}

TEST(SnoopBus, MemorySuppliesWhenNoDirtyOwner) {
  BusFixture f;
  noc::BusResult got;
  f.bus.request(BusTxKind::kBusRd, 0x40, 0, 64,
                [&](const noc::BusResult& r) { got = r; });
  f.eq.run();
  EXPECT_FALSE(got.supplied_by_cache);
  // Memory path: at least the read latency beyond the grant.
  EXPECT_GE(got.done_at, got.granted_at + f.mcfg.read_latency);
  EXPECT_EQ(f.mem.read_count(), 1u);
  EXPECT_EQ(f.mem.bytes_read(), 64u);
}

TEST(SnoopBus, CacheToCacheFasterThanMemory) {
  BusFixture dirty, clean;
  // A MESI dirty owner: flushes to the requester AND memory.
  dirty.s0.reply = {.had_line = true, .supplied_data = true,
                    .memory_update = true};
  noc::BusResult rd, rc;
  dirty.bus.request(BusTxKind::kBusRd, 0x40, 1, 64,
                    [&](const noc::BusResult& r) { rd = r; });
  clean.bus.request(BusTxKind::kBusRd, 0x40, 1, 64,
                    [&](const noc::BusResult& r) { rc = r; });
  dirty.eq.run();
  clean.eq.run();
  EXPECT_LT(rd.done_at - rd.granted_at, rc.done_at - rc.granted_at);
  // The flush also updates memory (write traffic, no read).
  EXPECT_EQ(dirty.mem.write_count(), 1u);
  EXPECT_EQ(dirty.mem.read_count(), 0u);
}

TEST(SnoopBus, OwnedSupplyGeneratesNoMemoryTraffic) {
  // A MOESI Owned supplier keeps ownership: the requester gets the data
  // cache-to-cache while memory stays stale — no write, and no read.
  BusFixture f;
  f.s0.reply = {.had_line = true, .supplied_data = true,
                .memory_update = false};
  noc::BusResult got;
  f.bus.request(BusTxKind::kBusRd, 0x40, 1, 64,
                [&](const noc::BusResult& r) { got = r; });
  f.eq.run();
  EXPECT_TRUE(got.supplied_by_cache);
  EXPECT_EQ(f.mem.write_count(), 0u);
  EXPECT_EQ(f.mem.read_count(), 0u);
}

TEST(SnoopBus, UpgradeCarriesNoData) {
  BusFixture f;
  noc::BusResult got;
  f.bus.request(BusTxKind::kBusUpgr, 0x40, 0, 0,
                [&](const noc::BusResult& r) { got = r; });
  f.eq.run();
  EXPECT_EQ(got.done_at, got.granted_at + f.bcfg.address_phase);
  EXPECT_EQ(f.bus.bytes_transferred(), 0u);
  EXPECT_EQ(f.mem.total_bytes(), 0u);
}

TEST(SnoopBus, WriteBackReachesMemoryOnly) {
  BusFixture f;
  f.bus.request(BusTxKind::kWriteBack, 0x80, 2, 64,
                bus::SnoopBus::Completion{});
  f.eq.run();
  EXPECT_EQ(f.mem.bytes_written(), 64u);
  EXPECT_EQ(f.mem.bytes_read(), 0u);
  // Third parties still observe it (and ignore it).
  EXPECT_EQ(f.s0.seen.size(), 1u);
}

TEST(SnoopBus, ValidatorCancelsTransaction) {
  BusFixture f;
  bool cancelled = false;
  bool done = false;
  noc::RequestHooks hooks;
  hooks.validator = [] { return false; };
  hooks.on_cancel = [&] { cancelled = true; };
  hooks.on_done = [&](const noc::BusResult&) { done = true; };
  f.bus.request(BusTxKind::kWriteBack, 0x80, 0, 64, std::move(hooks));
  f.eq.run();
  EXPECT_TRUE(cancelled);
  EXPECT_FALSE(done);
  EXPECT_EQ(f.mem.total_bytes(), 0u);       // no traffic
  EXPECT_EQ(f.s0.seen.size(), 0u);          // no snoop
  EXPECT_EQ(f.bus.cancelled_transactions(), 1u);
}

TEST(SnoopBus, RoundRobinFairness) {
  BusFixture f;
  std::vector<CoreId> grant_order;
  for (CoreId c : {0u, 0u, 1u, 2u}) {
    noc::RequestHooks hooks;
    hooks.on_grant = [&grant_order, c](const noc::BusResult&) {
      grant_order.push_back(c);
    };
    f.bus.request(BusTxKind::kBusUpgr, 0x40 * (c + 1), c, 0,
                  std::move(hooks));
  }
  f.eq.run();
  // Round-robin: 0,1,2 each served before 0's second request.
  ASSERT_EQ(grant_order.size(), 4u);
  EXPECT_EQ(grant_order[0], 0u);
  EXPECT_EQ(grant_order[1], 1u);
  EXPECT_EQ(grant_order[2], 2u);
  EXPECT_EQ(grant_order[3], 0u);
}

TEST(SnoopBus, TransactionsSerializeOnTheBus) {
  BusFixture f;
  std::vector<Cycle> grants;
  for (int i = 0; i < 3; ++i) {
    noc::RequestHooks hooks;
    hooks.on_grant = [&grants, &f](const noc::BusResult&) {
      grants.push_back(f.eq.now());
    };
    f.bus.request(BusTxKind::kBusRd, 0x40u * (i + 1), 0, 64,
                  std::move(hooks));
  }
  f.eq.run();
  ASSERT_EQ(grants.size(), 3u);
  // Each grant is separated by at least the address+data occupancy.
  const Cycle occupancy = f.bcfg.address_phase + 64 / f.bcfg.bytes_per_cycle;
  EXPECT_GE(grants[1] - grants[0], occupancy);
  EXPECT_GE(grants[2] - grants[1], occupancy);
  EXPECT_GT(f.bus.utilization(f.eq.now()), 0.0);
}

// --- memory controller --------------------------------------------------------

// The flat channel knows a request's completion cycle when it is issued, so
// its callback has already run when read()/write() returns. These helpers
// return that cycle (and fail the test if the callback is still pending).
Cycle flat_read(mem::MemoryController& mem, Cycle start,
                std::uint32_t bytes) {
  std::optional<Cycle> done;
  mem.read(start, bytes, /*line=*/0, [&done](Cycle t) { done = t; });
  EXPECT_TRUE(done.has_value()) << "flat read did not complete in the call";
  return done.value_or(0);
}

Cycle flat_write(mem::MemoryController& mem, Cycle start,
                 std::uint32_t bytes) {
  std::optional<Cycle> done;
  mem.write(start, bytes, /*line=*/0, [&done](Cycle t) { done = t; });
  EXPECT_TRUE(done.has_value()) << "flat write did not complete in the call";
  return done.value_or(0);
}

TEST(Memory, ReadLatencyAndTraffic) {
  EventQueue eq;
  mem::MemoryConfig cfg;
  mem::MemoryController mem(eq, cfg);
  const Cycle done = flat_read(mem, 100, 64);
  EXPECT_EQ(done, 100 + cfg.read_latency + 64 / cfg.bytes_per_cycle);
  EXPECT_EQ(mem.bytes_read(), 64u);
}

TEST(Memory, FlatCallbackRunsBeforeTheCallReturns) {
  // The callback gets the cycle the channel computes at issue (a read's
  // data at channel start + latency + transfer, a write absorbed at channel
  // start + transfer) and no event is queued for it.
  EventQueue eq;
  mem::MemoryConfig cfg;
  mem::MemoryController mem(eq, cfg);
  std::vector<Cycle> done;
  mem.read(100, 64, 0, [&done](Cycle t) { done.push_back(t); });
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 100 + cfg.read_latency + 4);
  mem.write(100, 64, 64, [&done](Cycle t) { done.push_back(t); });
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[1], 104 + 4);  // queued behind the read's transfer
  EXPECT_TRUE(eq.empty());
  // An empty callback (a posted write) still moves the data.
  mem.write(100, 64, 128, {});
  EXPECT_EQ(mem.write_count(), 2u);
  EXPECT_EQ(flat_read(mem, 100, 64), 112 + cfg.read_latency + 4);
}

TEST(Memory, ChannelSerializesTransfers) {
  EventQueue eq;
  mem::MemoryConfig cfg;
  mem::MemoryController mem(eq, cfg);
  const Cycle xfer = 64 / cfg.bytes_per_cycle;
  const Cycle d1 = flat_read(mem, 0, 64);
  const Cycle d2 = flat_read(mem, 0, 64);  // same start: queues behind
  EXPECT_EQ(d2 - d1, xfer);
}

TEST(Memory, PostedWritesConsumeBandwidth) {
  EventQueue eq;
  mem::MemoryConfig cfg;
  mem::MemoryController mem(eq, cfg);
  mem.write(0, 64, 0, {});
  const Cycle done = flat_read(mem, 0, 64);
  // The read queued behind the write's channel occupancy.
  EXPECT_EQ(done, 64 / cfg.bytes_per_cycle + cfg.read_latency +
                      64 / cfg.bytes_per_cycle);
  EXPECT_EQ(mem.total_bytes(), 128u);
}

TEST(Memory, BandwidthMetric) {
  EventQueue eq;
  mem::MemoryConfig cfg;
  mem::MemoryController mem(eq, cfg);
  mem.write(0, 640, 0, {});
  EXPECT_DOUBLE_EQ(mem.bandwidth(1000), 0.64);
}

TEST(Memory, ZeroByteTransfersAreNoOps) {
  EventQueue eq;
  mem::MemoryConfig cfg;
  mem::MemoryController mem(eq, cfg);
  EXPECT_EQ(flat_read(mem, 100, 0), 100u);
  EXPECT_EQ(flat_write(mem, 50, 0), 50u);
  EXPECT_EQ(mem.read_count(), 0u);
  EXPECT_EQ(mem.write_count(), 0u);
  EXPECT_EQ(mem.total_bytes(), 0u);
  // And no channel time was claimed: a real read still starts at cycle 0.
  EXPECT_EQ(flat_read(mem, 0, 64),
            0 + cfg.read_latency + 64 / cfg.bytes_per_cycle);
}

TEST(Memory, ZeroByteRequestsCompleteAtStartOrNowOnEitherModel) {
  // Both models share one zero-byte path: no traffic, no counters, and
  // completion at max(start, now), reported before the call returns.
  for (const mem::MemoryModel model :
       {mem::MemoryModel::kFlat, mem::MemoryModel::kDram}) {
    SCOPED_TRACE(mem::to_string(model));
    EventQueue eq;
    eq.schedule_at(50, [] {});
    eq.run();  // now() == 50
    mem::MemoryConfig cfg;
    cfg.model = model;
    mem::MemoryController mem(eq, cfg);
    std::vector<Cycle> done;
    const auto record = [&done](Cycle t) { done.push_back(t); };
    mem.read(20, 0, 0, record);   // starts in the past: completes now
    mem.write(70, 0, 64, record);  // completes at its start
    mem.read(50, 0, 128, record);
    EXPECT_EQ(done, (std::vector<Cycle>{50, 70, 50}));
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(mem.read_count(), 0u);
    EXPECT_EQ(mem.write_count(), 0u);
    EXPECT_EQ(mem.total_bytes(), 0u);
    EXPECT_EQ(mem.dram_stats().row_misses, 0u);
  }
}

TEST(Memory, OddSizesRoundUpToWholeCycles) {
  EventQueue eq;
  mem::MemoryConfig cfg;
  mem::MemoryController mem(eq, cfg);
  // 17 bytes at 16 B/cycle occupies ceil(17/16) = 2 channel cycles.
  EXPECT_EQ(flat_read(mem, 0, 17), 0 + cfg.read_latency + 2);
  // A single byte still costs a full cycle, queued behind the first claim.
  EXPECT_EQ(flat_read(mem, 0, 1), 2 + cfg.read_latency + 1);
}

TEST(SnoopBus, NonPostedWriteBackWaitsForTheMemoryChannel) {
  // posted=true: the write-back completes at bus-occupancy time no matter
  // how congested the memory channel is. posted=false: the evicting cache
  // holds the transaction open until the channel absorbs the write.
  const auto write_back = [](bool posted, std::uint32_t mem_bytes_per_cycle,
                             std::uint32_t congest_bytes) {
    EventQueue eq;
    mem::MemoryConfig mcfg;
    mcfg.posted_writes = posted;
    mcfg.bytes_per_cycle = mem_bytes_per_cycle;
    mem::MemoryController mem(eq, mcfg);
    bus::BusConfig bcfg;
    bus::SnoopBus bus(eq, bcfg, mem);
    FakeSnooper s0, s1;
    bus.attach(&s0);
    bus.attach(&s1);
    if (congest_bytes > 0) mem.write(0, congest_bytes, 0, {});
    noc::BusResult got;
    bus.request(BusTxKind::kWriteBack, 0x80, 0, 64,
                [&](const noc::BusResult& r) { got = r; });
    eq.run();
    return got;
  };
  const bus::BusConfig bcfg;
  const Cycle data_phase = bcfg.address_phase + 64 / bcfg.bytes_per_cycle;
  // 640 bytes congest the default 16 B/cycle channel until cycle 40.
  const noc::BusResult posted = write_back(true, 16, 640);
  EXPECT_EQ(posted.done_at, posted.granted_at + data_phase);
  const noc::BusResult held = write_back(false, 16, 640);
  EXPECT_GT(held.done_at, posted.done_at);
  // Behind the 640-byte burst plus the write's own transfer.
  EXPECT_EQ(held.done_at, 640 / 16 + 64 / 16);
  // Memory faster than the bus (64 B/cycle, idle channel) absorbs the write
  // in one cycle, before the bus data phase ends: that end is done_at.
  const noc::BusResult fast = write_back(false, 64, 0);
  EXPECT_EQ(fast.done_at, fast.granted_at + data_phase);
}

}  // namespace
}  // namespace cdsim::bus
