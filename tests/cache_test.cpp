// Unit tests for the cache substrate: geometry maths, tag array + LRU,
// MSHR merge/complete semantics, write-buffer coalescing and the Table I
// pending-write oracle.

#include <gtest/gtest.h>

#include <vector>

#include "cdsim/cache/geometry.hpp"
#include "cdsim/cache/mshr.hpp"
#include "cdsim/cache/tag_array.hpp"
#include "cdsim/cache/write_buffer.hpp"

namespace cdsim::cache {
namespace {

// --- geometry -----------------------------------------------------------------

TEST(Geometry, BasicDerivedQuantities) {
  Geometry g(1 * MiB, 64, 8);
  EXPECT_EQ(g.num_sets(), 1 * MiB / (64 * 8));
  EXPECT_EQ(g.num_lines(), 1 * MiB / 64);
  EXPECT_EQ(g.line_bytes(), 64u);
}

TEST(Geometry, LineAlignment) {
  Geometry g(64 * KiB, 64, 4);
  EXPECT_EQ(g.line_addr(0x12345), 0x12340u);
  EXPECT_EQ(g.line_addr(0x12340), 0x12340u);
  EXPECT_EQ(g.line_addr(0x1237F), 0x12340u);
}

TEST(Geometry, SetIndexWrapsAndDiffers) {
  Geometry g(8 * KiB, 64, 2);  // 64 sets
  EXPECT_EQ(g.set_index(0), g.set_index(64 * 64));  // one full wrap
  EXPECT_NE(g.set_index(0), g.set_index(64));
}

TEST(Geometry, DirectMappedAndFullyAssociativeExtremes) {
  Geometry direct(4 * KiB, 64, 1);
  EXPECT_EQ(direct.num_sets(), 64u);
  Geometry fully(4 * KiB, 64, 64);
  EXPECT_EQ(fully.num_sets(), 1u);
}

// --- tag array -------------------------------------------------------------------

struct Meta {
  int value = 0;
};

TEST(TagArray, FindAfterInstall) {
  TagArray<Meta> t(Geometry(4 * KiB, 64, 4));
  EXPECT_FALSE(t.find(0x1000));
  const auto slot = t.pick_victim(0x1000);
  t.install(slot, 0x1000, Meta{42});
  const auto ln = t.find(0x1000);
  ASSERT_TRUE(ln);
  EXPECT_EQ(ln.payload().value, 42);
  // Any address within the line matches (same handle: equal index).
  EXPECT_EQ(t.find(0x103F), ln);
  EXPECT_FALSE(t.find(0x1040));
}

TEST(TagArray, LruVictimSelection) {
  // 2-way: fill both ways of one set, touch the first, expect the second
  // to be evicted next.
  Geometry g(8 * KiB, 64, 2);  // 64 sets
  TagArray<Meta> t(g);
  const Addr a = 0x0000, b = a + 64 * 64, c = b + 64 * 64;  // same set
  ASSERT_EQ(g.set_index(a), g.set_index(b));
  t.install(t.pick_victim(a), a, Meta{1});
  t.install(t.pick_victim(b), b, Meta{2});
  t.touch(a);  // a becomes MRU; b is LRU
  const auto victim = t.pick_victim(c);
  EXPECT_TRUE(victim.valid());
  EXPECT_EQ(victim.tag(), b);
}

TEST(TagArray, InvalidWayPreferredOverEviction) {
  Geometry g(8 * KiB, 64, 2);
  TagArray<Meta> t(g);
  const Addr a = 0x0000;
  t.install(t.pick_victim(a), a, Meta{1});
  const auto slot = t.pick_victim(a + 64 * 64);
  EXPECT_FALSE(slot.valid());  // empty way chosen, no eviction needed
}

TEST(TagArray, PickVictimIfRespectsPin) {
  Geometry g(8 * KiB, 64, 2);
  TagArray<Meta> t(g);
  const Addr a = 0x0000, b = a + 64 * 64, c = b + 64 * 64;
  t.install(t.pick_victim(a), a, Meta{1});  // value 1 == pinned
  t.install(t.pick_victim(b), b, Meta{2});
  t.touch(a);
  // b would be the LRU victim; pin it and expect a instead... but a is
  // pinned too -> nullptr.
  const auto none =
      t.pick_victim_if(c, [](LineRef<Meta>) { return false; });
  EXPECT_FALSE(none);
  const auto only_b = t.pick_victim_if(
      c, [](LineRef<Meta> ln) { return ln.payload().value == 2; });
  ASSERT_TRUE(only_b);
  EXPECT_EQ(only_b.tag(), b);
}

TEST(TagArray, CountValidAndForEach) {
  TagArray<Meta> t(Geometry(4 * KiB, 64, 4));
  for (Addr a = 0; a < 10 * 64; a += 64) {
    t.install(t.pick_victim(a), a, Meta{static_cast<int>(a / 64)});
  }
  EXPECT_EQ(t.count_valid(), 10u);
  int sum = 0;
  t.for_each_valid([&](LineRef<Meta> ln) { sum += ln.payload().value; });
  EXPECT_EQ(sum, 45);
}

TEST(TagArray, InvalidateRemovesLine) {
  TagArray<Meta> t(Geometry(4 * KiB, 64, 4));
  t.install(t.pick_victim(0x40), 0x40, Meta{});
  const auto ln = t.find(0x40);
  ASSERT_TRUE(ln);
  t.invalidate(ln);
  EXPECT_FALSE(t.find(0x40));
  EXPECT_EQ(t.count_valid(), 0u);
}

// A set's valid bits are one 64-bit word: 64 ways is the widest set that
// keeps every line findable, and a wider array is refused outright (a
// 128-way set used to lose its upper 64 lines to find() while count_valid()
// still counted them).
TEST(TagArray, SixtyFourWaySetKeepsEveryLine) {
  TagArray<Meta> t(Geometry(64 * 64, 64, 64));  // one set
  for (Addr a = 0; a < 64 * 64; a += 64) {
    t.install(t.pick_victim(a), a, Meta{static_cast<int>(a / 64)});
  }
  EXPECT_EQ(t.count_valid(), 64u);
  for (Addr a = 0; a < 64 * 64; a += 64) {
    const auto ln = t.find(a);
    ASSERT_TRUE(ln) << "line " << a / 64;
    EXPECT_EQ(ln.payload().value, static_cast<int>(a / 64));
  }
}

TEST(TagArrayDeathTest, MoreThan64WaysAborts) {
  EXPECT_DEATH(TagArray<Meta>(Geometry(128 * 64, 64, 128)), "associativity");
}

// --- MSHR ------------------------------------------------------------------------

TEST(Mshr, AllocateFindComplete) {
  MshrFile m(4);
  EXPECT_FALSE(m.full());
  auto& e = m.allocate(0x100, false, 5);
  EXPECT_EQ(m.find(0x100), &e);
  EXPECT_EQ(m.in_use(), 1u);

  std::vector<Cycle> seen;
  m.merge(e, false, [&](Cycle c) { seen.push_back(c); });
  m.merge(e, false, [&](Cycle c) { seen.push_back(c + 1); });
  m.complete(0x100, 42);
  EXPECT_EQ(seen, (std::vector<Cycle>{42, 43}));  // merge order preserved
  EXPECT_EQ(m.find(0x100), nullptr);
  EXPECT_EQ(m.in_use(), 0u);
}

TEST(Mshr, CapacityAndFull) {
  MshrFile m(2);
  m.allocate(0x100, false, 0);
  m.allocate(0x200, false, 0);
  EXPECT_TRUE(m.full());
  m.complete(0x100, 1);
  EXPECT_FALSE(m.full());
}

TEST(Mshr, WritePromotion) {
  MshrFile m(2);
  auto& e = m.allocate(0x100, false, 0);
  EXPECT_FALSE(e.is_write);
  m.merge(e, true, [](Cycle) {});
  EXPECT_TRUE(e.is_write);
}

TEST(Mshr, WaiterMayReallocateSameLine) {
  MshrFile m(1);
  auto& e = m.allocate(0x100, false, 0);
  bool reallocated = false;
  m.merge(e, false, [&](Cycle) {
    // The entry must already be freed here.
    EXPECT_FALSE(m.full());
    m.allocate(0x100, true, 10);
    reallocated = true;
  });
  m.complete(0x100, 9);
  EXPECT_TRUE(reallocated);
  EXPECT_EQ(m.in_use(), 1u);
}

TEST(Mshr, LifetimeCounters) {
  MshrFile m(4);
  auto& e = m.allocate(0x100, false, 0);
  m.merge(e, false, [](Cycle) {});
  m.merge(e, false, [](Cycle) {});
  m.complete(0x100, 1);
  m.allocate(0x200, true, 2);
  EXPECT_EQ(m.total_allocations(), 2u);
  EXPECT_EQ(m.total_merges(), 2u);
}

// --- write buffer -----------------------------------------------------------------

TEST(WriteBuffer, FifoDrainOrder) {
  WriteBuffer wb(4);
  EXPECT_TRUE(wb.push(0x100, 0));
  EXPECT_TRUE(wb.push(0x200, 1));
  EXPECT_EQ(wb.drain_next(), std::optional<Addr>(0x100));
  EXPECT_EQ(wb.drain_next(), std::optional<Addr>(0x200));
  EXPECT_EQ(wb.drain_next(), std::nullopt);  // everything already draining
  EXPECT_EQ(wb.draining(), 2u);
  wb.drain_done(0x100);
  EXPECT_EQ(wb.size(), 1u);
  wb.drain_done(0x200);
  EXPECT_TRUE(wb.empty());
}

TEST(WriteBuffer, DrainingSlotDoesNotCoalesce) {
  WriteBuffer wb(4);
  EXPECT_TRUE(wb.push(0x100, 0));
  ASSERT_EQ(wb.drain_next(), std::optional<Addr>(0x100));
  // The drained write has left for the L2; a new store to the same line
  // must allocate a fresh slot.
  EXPECT_TRUE(wb.push(0x100, 1));
  EXPECT_EQ(wb.size(), 2u);
  EXPECT_EQ(wb.total_coalesced(), 0u);
  // Both slots still count as pending (Table I).
  EXPECT_TRUE(wb.pending_to(0x100));
  wb.drain_done(0x100);
  EXPECT_TRUE(wb.pending_to(0x100));
}

TEST(WriteBuffer, TailCoalescing) {
  WriteBuffer wb(2);
  EXPECT_TRUE(wb.push(0x100, 0));
  EXPECT_TRUE(wb.push(0x100, 1));  // coalesces, still one slot
  EXPECT_EQ(wb.size(), 1u);
  EXPECT_TRUE(wb.push(0x200, 2));
  EXPECT_TRUE(wb.full());
  // A same-line store can still coalesce into the tail even when full.
  EXPECT_TRUE(wb.push(0x200, 3));
  // A different line cannot.
  EXPECT_FALSE(wb.push(0x300, 4));
  EXPECT_EQ(wb.total_coalesced(), 2u);
}

TEST(WriteBuffer, PendingWriteOracle) {
  WriteBuffer wb(4);
  wb.push(0x100, 0);
  wb.push(0x200, 1);
  EXPECT_TRUE(wb.pending_to(0x100));
  EXPECT_TRUE(wb.pending_to(0x200));
  EXPECT_FALSE(wb.pending_to(0x300));
  ASSERT_TRUE(wb.drain_next().has_value());
  wb.drain_done(0x100);
  EXPECT_FALSE(wb.pending_to(0x100));  // reached L2: Table I gate released
  EXPECT_TRUE(wb.pending_to(0x200));
}

TEST(WriteBuffer, NonAdjacentSameLineUsesNewSlot) {
  WriteBuffer wb(4);
  wb.push(0x100, 0);
  wb.push(0x200, 1);
  wb.push(0x100, 2);  // not the tail anymore... it is tail-coalescing only
  EXPECT_EQ(wb.size(), 3u);
}

}  // namespace
}  // namespace cdsim::cache
