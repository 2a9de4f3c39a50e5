// Exhaustive tests of the coherence + turn-off FSM — MESI (paper Figure 2)
// and its MOESI extension (§III: "considering the Owned state of the MOESI,
// other copies must be invalidated before a line is turned off") — and the
// Table I turn-off legality matrix, including the cross-check between the
// two: the FSM's behaviour in the multiprocessor column must match what
// Table I promises.

#include <gtest/gtest.h>

#include <vector>

#include "cdsim/coherence/mesi.hpp"
#include "cdsim/coherence/turnoff_legality.hpp"

namespace cdsim::coherence {
namespace {

using enum MesiState;

const std::vector<Protocol> kProtocols = {Protocol::kMesi, Protocol::kMoesi};

const std::vector<MesiState> kAllStates = {
    kInvalid,        kShared,         kExclusive, kModified,
    kTransientClean, kTransientDirty, kOwned};

const std::vector<BusTxKind> kSnoops = {BusTxKind::kBusRd, BusTxKind::kBusRdX,
                                        BusTxKind::kBusUpgr};

SnoopOutcome mesi(MesiState s, BusTxKind k) {
  return apply_snoop(Protocol::kMesi, s, k);
}

SnoopOutcome moesi(MesiState s, BusTxKind k) {
  return apply_snoop(Protocol::kMoesi, s, k);
}

// --- state predicates ---------------------------------------------------------

TEST(MesiPredicates, StationaryStates) {
  EXPECT_TRUE(is_stationary(kShared));
  EXPECT_TRUE(is_stationary(kExclusive));
  EXPECT_TRUE(is_stationary(kModified));
  EXPECT_FALSE(is_stationary(kInvalid));
  EXPECT_FALSE(is_stationary(kTransientClean));
  EXPECT_FALSE(is_stationary(kTransientDirty));
}

TEST(MesiPredicates, HoldsDataEverywhereButInvalid) {
  for (MesiState s : kAllStates) {
    EXPECT_EQ(holds_data(s), s != kInvalid) << to_string(s);
  }
}

TEST(MesiPredicates, DirtyStates) {
  EXPECT_TRUE(is_dirty(kModified));
  EXPECT_TRUE(is_dirty(kTransientDirty));
  EXPECT_FALSE(is_dirty(kShared));
  EXPECT_FALSE(is_dirty(kExclusive));
  EXPECT_FALSE(is_dirty(kTransientClean));
  EXPECT_FALSE(is_dirty(kInvalid));
}

TEST(MesiPredicates, Names) {
  EXPECT_EQ(to_string(kModified), "M");
  EXPECT_EQ(to_string(kTransientDirty), "TD");
  EXPECT_EQ(to_string(BusTxKind::kBusRdX), "BusRdX");
}

// --- MESI snoop transitions: BusRd ----------------------------------------------

TEST(Snoop, BusRdOnModifiedFlushesAndDowngrades) {
  const SnoopOutcome o = mesi(kModified, BusTxKind::kBusRd);
  EXPECT_EQ(o.next, kShared);
  EXPECT_TRUE(o.had_line);
  EXPECT_TRUE(o.supply_data);
  EXPECT_TRUE(o.memory_update);
  EXPECT_FALSE(o.invalidated);
}

TEST(Snoop, BusRdOnExclusiveDowngradesSilently) {
  const SnoopOutcome o = mesi(kExclusive, BusTxKind::kBusRd);
  EXPECT_EQ(o.next, kShared);
  EXPECT_TRUE(o.had_line);
  EXPECT_FALSE(o.supply_data);
}

TEST(Snoop, BusRdOnSharedNoChange) {
  const SnoopOutcome o = mesi(kShared, BusTxKind::kBusRd);
  EXPECT_EQ(o.next, kShared);
  EXPECT_TRUE(o.had_line);
}

TEST(Snoop, BusRdOnInvalidNothing) {
  const SnoopOutcome o = mesi(kInvalid, BusTxKind::kBusRd);
  EXPECT_EQ(o.next, kInvalid);
  EXPECT_FALSE(o.had_line);
  EXPECT_FALSE(o.supply_data);
}

TEST(Snoop, BusRdOnTransientDirtyFlushesAndDies) {
  // The dying line's flush doubles as its turn-off write-back.
  const SnoopOutcome o = mesi(kTransientDirty, BusTxKind::kBusRd);
  EXPECT_EQ(o.next, kInvalid);
  EXPECT_TRUE(o.supply_data);
  EXPECT_TRUE(o.memory_update);
  EXPECT_TRUE(o.invalidated);
  EXPECT_TRUE(o.cancel_turnoff_wb);
}

TEST(Snoop, BusRdOnTransientCleanUnaffected) {
  const SnoopOutcome o = mesi(kTransientClean, BusTxKind::kBusRd);
  EXPECT_EQ(o.next, kTransientClean);
  EXPECT_FALSE(o.supply_data);
  EXPECT_FALSE(o.invalidated);
}

// --- MESI snoop transitions: BusRdX / BusUpgr -------------------------------------

class InvalidatingSnoopTest
    : public ::testing::TestWithParam<BusTxKind> {};

TEST_P(InvalidatingSnoopTest, AllValidStatesDie) {
  const BusTxKind kind = GetParam();
  for (MesiState s : kAllStates) {
    const SnoopOutcome o = mesi(s, kind);
    if (s == kInvalid) {
      EXPECT_FALSE(o.invalidated);
      EXPECT_EQ(o.next, kInvalid);
    } else {
      EXPECT_EQ(o.next, kInvalid) << to_string(s);
      EXPECT_TRUE(o.invalidated) << to_string(s);
    }
  }
}

TEST_P(InvalidatingSnoopTest, OnlyDirtyStatesFlush) {
  const BusTxKind kind = GetParam();
  for (MesiState s : kAllStates) {
    const SnoopOutcome o = mesi(s, kind);
    EXPECT_EQ(o.supply_data, is_dirty(s)) << to_string(s);
    EXPECT_EQ(o.memory_update, is_dirty(s)) << to_string(s);
  }
}

TEST_P(InvalidatingSnoopTest, TransientStatesCancelTheirWriteback) {
  const BusTxKind kind = GetParam();
  EXPECT_TRUE(mesi(kTransientClean, kind).cancel_turnoff_wb);
  EXPECT_TRUE(mesi(kTransientDirty, kind).cancel_turnoff_wb);
  EXPECT_FALSE(mesi(kModified, kind).cancel_turnoff_wb);
}

INSTANTIATE_TEST_SUITE_P(Kinds, InvalidatingSnoopTest,
                         ::testing::Values(BusTxKind::kBusRdX,
                                           BusTxKind::kBusUpgr));

TEST(Snoop, WriteBackIsInertForThirdParties) {
  for (const Protocol p : kProtocols) {
    for (MesiState s : kAllStates) {
      const SnoopOutcome o = apply_snoop(p, s, BusTxKind::kWriteBack);
      EXPECT_EQ(o.next, s) << to_string(p) << " " << to_string(s);
      EXPECT_FALSE(o.supply_data);
      EXPECT_FALSE(o.memory_update);
      EXPECT_FALSE(o.invalidated);
    }
  }
}

// --- turn-off classification (Figure 2 dashed edges) --------------------------------

TEST(TurnOff, OnlyStationaryStatesAccept) {
  for (const Protocol p : kProtocols) {
    for (MesiState s : kAllStates) {
      const TurnOffClass c = classify_turnoff(p, s);
      if (!is_stationary(s)) {
        EXPECT_EQ(c, TurnOffClass::kIgnore)
            << to_string(p) << " " << to_string(s);
      } else {
        EXPECT_NE(c, TurnOffClass::kIgnore)
            << to_string(p) << " " << to_string(s);
      }
    }
  }
}

TEST(TurnOff, ModifiedNeedsWritebackCleanDoesNot) {
  EXPECT_EQ(classify_turnoff(Protocol::kMesi, kModified),
            TurnOffClass::kDirtyTurnOff);
  EXPECT_EQ(classify_turnoff(Protocol::kMesi, kShared),
            TurnOffClass::kCleanTurnOff);
  EXPECT_EQ(classify_turnoff(Protocol::kMesi, kExclusive),
            TurnOffClass::kCleanTurnOff);
}

TEST(TurnOff, TransientTargets) {
  EXPECT_EQ(turnoff_transient(kModified), kTransientDirty);
  EXPECT_EQ(turnoff_transient(kShared), kTransientClean);
  EXPECT_EQ(turnoff_transient(kExclusive), kTransientClean);
}

// --- fill states -----------------------------------------------------------------------

TEST(Fill, WriteAlwaysModified) {
  EXPECT_EQ(fill_state(true, false), kModified);
  EXPECT_EQ(fill_state(true, true), kModified);
}

TEST(Fill, ReadSharedOrExclusive) {
  EXPECT_EQ(fill_state(false, true), kShared);
  EXPECT_EQ(fill_state(false, false), kExclusive);
}

// --- MOESI: the Owned state ---------------------------------------------------------

TEST(Moesi, StationaryStates) {
  EXPECT_TRUE(is_stationary(kOwned));
  EXPECT_TRUE(is_stationary(kModified));
  EXPECT_TRUE(is_stationary(kShared));
  EXPECT_TRUE(is_stationary(kExclusive));
  EXPECT_FALSE(is_stationary(kInvalid));
  EXPECT_FALSE(is_stationary(kTransientClean));
  EXPECT_FALSE(is_stationary(kTransientDirty));
}

TEST(Moesi, OwnedIsDirty) {
  EXPECT_TRUE(is_dirty(kOwned));
  EXPECT_TRUE(is_dirty(kModified));
  EXPECT_TRUE(is_dirty(kTransientDirty));
  EXPECT_FALSE(is_dirty(kShared));
  EXPECT_FALSE(is_dirty(kExclusive));
}

TEST(Moesi, Names) {
  EXPECT_EQ(to_string(kOwned), "O");
  EXPECT_EQ(to_string(kTransientDirty), "TD");
  EXPECT_EQ(to_string(Protocol::kMoesi), "MOESI");
}

TEST(Moesi, BusRdOnModifiedBecomesOwnedWithoutMemoryUpdate) {
  const SnoopOutcome o = moesi(kModified, BusTxKind::kBusRd);
  EXPECT_EQ(o.next, kOwned);
  EXPECT_TRUE(o.supply_data);
  EXPECT_FALSE(o.memory_update);  // the deferred write-back: MOESI's point
  EXPECT_FALSE(o.invalidated);
}

TEST(Moesi, OwnerKeepsSupplyingReaders) {
  const SnoopOutcome o = moesi(kOwned, BusTxKind::kBusRd);
  EXPECT_EQ(o.next, kOwned);
  EXPECT_TRUE(o.supply_data);
  EXPECT_FALSE(o.memory_update);
}

TEST(Moesi, RemoteWriterFlushesTheOwner) {
  // BusRdX: the requester has no data, so the dying owner must flush.
  const SnoopOutcome o = moesi(kOwned, BusTxKind::kBusRdX);
  EXPECT_EQ(o.next, kInvalid);
  EXPECT_TRUE(o.supply_data);
  EXPECT_TRUE(o.memory_update);  // ownership dies: data must be safe
  EXPECT_TRUE(o.invalidated);
}

TEST(Moesi, UpgradeMigratesOwnershipSilently) {
  // BusUpgr: the requester already holds the identical line in S — the
  // owner dies without moving data; the new M inherits the dirty-data
  // responsibility. No bus data phase, no memory write.
  const SnoopOutcome o = moesi(kOwned, BusTxKind::kBusUpgr);
  EXPECT_EQ(o.next, kInvalid);
  EXPECT_FALSE(o.supply_data);
  EXPECT_FALSE(o.memory_update);
  EXPECT_TRUE(o.invalidated);
}

TEST(Moesi, CleanStatesMatchMesiBehaviour) {
  // For I/S/E the MOESI outcomes must coincide with MESI's.
  for (const MesiState s : {kInvalid, kShared, kExclusive}) {
    for (const BusTxKind k : {BusTxKind::kBusRd, BusTxKind::kBusRdX,
                              BusTxKind::kBusUpgr, BusTxKind::kWriteBack}) {
      const SnoopOutcome mo = moesi(s, k);
      const SnoopOutcome me = mesi(s, k);
      EXPECT_EQ(mo.next, me.next) << to_string(s) << " " << to_string(k);
      EXPECT_EQ(mo.supply_data, me.supply_data) << to_string(s);
      EXPECT_EQ(mo.invalidated, me.invalidated) << to_string(s);
      EXPECT_EQ(mo.had_line, me.had_line) << to_string(s);
    }
  }
}

TEST(Moesi, WriteBackInertForThirdParties) {
  for (const MesiState s : kAllStates) {
    const SnoopOutcome o = moesi(s, BusTxKind::kWriteBack);
    EXPECT_EQ(o.next, s) << to_string(s);
    EXPECT_FALSE(o.invalidated);
  }
}

TEST(Moesi, TransientDirtySnoopCancelsItsWriteback) {
  // Data-carrying transactions flush the dying line to the requester and
  // memory; the queued turn-off write-back becomes moot either way.
  for (const BusTxKind k : {BusTxKind::kBusRd, BusTxKind::kBusRdX}) {
    const SnoopOutcome o = moesi(kTransientDirty, k);
    EXPECT_EQ(o.next, kInvalid) << to_string(k);
    EXPECT_TRUE(o.cancel_turnoff_wb);
    EXPECT_TRUE(o.memory_update);
  }
  // An upgrade's requester already holds the data: the TD line dies
  // silently and the upgrader's new M copy carries the responsibility.
  const SnoopOutcome o = moesi(kTransientDirty, BusTxKind::kBusUpgr);
  EXPECT_EQ(o.next, kInvalid);
  EXPECT_TRUE(o.cancel_turnoff_wb);
  EXPECT_FALSE(o.memory_update);
  EXPECT_FALSE(o.supply_data);
}

TEST(Moesi, TurnOffClasses) {
  const auto classify = [](MesiState s) {
    return classify_turnoff(Protocol::kMoesi, s);
  };
  EXPECT_EQ(classify(kShared), TurnOffClass::kCleanTurnOff);
  EXPECT_EQ(classify(kExclusive), TurnOffClass::kCleanTurnOff);
  EXPECT_EQ(classify(kModified), TurnOffClass::kDirtyTurnOff);
  // The paper's caveat: Owned needs the invalidation broadcast.
  EXPECT_EQ(classify(kOwned), TurnOffClass::kOwnedTurnOff);
  for (const MesiState s : {kInvalid, kTransientClean, kTransientDirty}) {
    EXPECT_EQ(classify(s), TurnOffClass::kIgnore);
  }
}

TEST(Moesi, DirtyStatesEnterTransientDirty) {
  EXPECT_EQ(turnoff_transient(kModified), kTransientDirty);
  EXPECT_EQ(turnoff_transient(kOwned), kTransientDirty);
  EXPECT_EQ(turnoff_transient(kShared), kTransientClean);
  EXPECT_EQ(turnoff_transient(kExclusive), kTransientClean);
}

TEST(Moesi, FillStates) {
  EXPECT_EQ(fill_state(true, false), kModified);
  EXPECT_EQ(fill_state(true, true), kModified);
  EXPECT_EQ(fill_state(false, true), kShared);
  EXPECT_EQ(fill_state(false, false), kExclusive);
}

TEST(Moesi, SupplyImpliesDirtyOrDying) {
  for (const MesiState s : kAllStates) {
    for (const BusTxKind k : kSnoops) {
      if (moesi(s, k).supply_data) {
        EXPECT_TRUE(is_dirty(s)) << to_string(s) << " " << to_string(k);
      }
    }
  }
}

TEST(Moesi, InvalidationAlwaysLandsInInvalid) {
  for (const MesiState s : kAllStates) {
    for (const BusTxKind k : kSnoops) {
      const SnoopOutcome o = moesi(s, k);
      if (o.invalidated) {
        EXPECT_EQ(o.next, kInvalid) << to_string(s);
      }
      if (!o.invalidated && s != kInvalid) {
        EXPECT_TRUE(holds_data(o.next)) << to_string(s);
      }
    }
  }
}

TEST(Moesi, NoDirtyDataIsEverSilentlyDropped) {
  // Whenever a dirty state leaves the dirty set, the data must stay safe:
  // either memory is made current, or — on an upgrade — the requester
  // (which already holds the identical line and is entering M) inherits
  // the dirty-data responsibility. Only BusUpgr transfers responsibility;
  // every data-carrying transaction that kills a dirty line writes memory.
  for (const MesiState s : {kOwned, kModified, kTransientDirty}) {
    for (const BusTxKind k : {BusTxKind::kBusRd, BusTxKind::kBusRdX}) {
      const SnoopOutcome o = moesi(s, k);
      if (!is_dirty(o.next)) {
        EXPECT_TRUE(o.supply_data) << to_string(s) << " " << to_string(k);
        // Leaving the dirty set without a surviving owner means memory
        // itself must have been made current.
        EXPECT_TRUE(o.memory_update) << to_string(s) << " " << to_string(k);
      }
    }
    const SnoopOutcome o = moesi(s, BusTxKind::kBusUpgr);
    EXPECT_FALSE(is_dirty(o.next)) << to_string(s);
    // The upgrading writer installs M: fill_state(was_write) is dirty, so
    // responsibility migrated rather than vanished.
    EXPECT_TRUE(is_dirty(fill_state(/*was_write=*/true, false)));
    EXPECT_FALSE(o.supply_data) << to_string(s);
    EXPECT_FALSE(o.memory_update) << to_string(s);
  }
}

// --- Table I ------------------------------------------------------------------------------

TEST(Table1, UniprocessorWritebackL1) {
  constexpr auto h = HierarchyKind::kUniprocessorWritebackL1;
  // Clean: plain turn off, no conditions.
  auto clean = table1_verdict(h, /*dirty=*/false, /*pending=*/false);
  EXPECT_TRUE(clean.allowed);
  EXPECT_FALSE(clean.requires_writeback);
  EXPECT_FALSE(clean.requires_no_pending_write);
  // Dirty: write back and turn off.
  auto dirty = table1_verdict(h, true, false);
  EXPECT_TRUE(dirty.allowed);
  EXPECT_TRUE(dirty.requires_writeback);
}

TEST(Table1, UniprocessorWritethroughL1GatesOnPendingWrite) {
  constexpr auto h = HierarchyKind::kUniprocessorWritethroughL1;
  EXPECT_TRUE(table1_verdict(h, false, false).allowed);
  EXPECT_FALSE(table1_verdict(h, false, true).allowed);
  EXPECT_FALSE(table1_verdict(h, true, true).allowed);
  auto dirty = table1_verdict(h, true, false);
  EXPECT_TRUE(dirty.allowed);
  EXPECT_TRUE(dirty.requires_writeback);
}

TEST(Table1, MultiprocessorDirtyInvalidatesUpperLevel) {
  constexpr auto h = HierarchyKind::kMultiprocessorWritethroughL1;
  auto dirty = table1_verdict(h, true, false);
  EXPECT_TRUE(dirty.allowed);
  EXPECT_TRUE(dirty.requires_upper_inval);
  EXPECT_TRUE(dirty.requires_writeback);
  auto clean = table1_verdict(h, false, true);
  EXPECT_FALSE(clean.allowed);  // pending write gates clean turn-off
}

// Cross-check: the FSM's turn-off classification agrees with Table I's
// multiprocessor column for every stationary state, under both protocols.
TEST(Table1, ConsistentWithFsm) {
  constexpr auto h = HierarchyKind::kMultiprocessorWritethroughL1;
  for (const Protocol p : kProtocols) {
    for (MesiState s : {kShared, kExclusive, kModified, kOwned}) {
      const auto verdict = table1_verdict(h, is_dirty(s), /*pending=*/false);
      const TurnOffClass cls = classify_turnoff(p, s);
      const bool writes_back = cls == TurnOffClass::kDirtyTurnOff ||
                               cls == TurnOffClass::kOwnedTurnOff;
      EXPECT_TRUE(verdict.allowed);
      EXPECT_EQ(writes_back, verdict.requires_writeback)
          << to_string(p) << " " << to_string(s);
      // The FSM goes through a transient (upper-inval) state in every case;
      // Table I only *requires* it for dirty lines, and allows it for clean.
      if (verdict.requires_upper_inval) {
        EXPECT_TRUE(writes_back) << to_string(p) << " " << to_string(s);
      }
    }
  }
}

}  // namespace
}  // namespace cdsim::coherence
