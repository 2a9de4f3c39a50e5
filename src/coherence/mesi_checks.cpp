// Compile-time validation of the MESI/MOESI + turn-off FSM.
//
// These static_asserts pin the protocol edges of paper Figure 2 and its
// MOESI extension, plus the invariants every cell of the snoop table must
// satisfy under both protocols, so an accidental edit to the table fails
// the build, not a run.

#include "cdsim/coherence/mesi.hpp"
#include "cdsim/coherence/turnoff_legality.hpp"

namespace cdsim::coherence {
namespace {

using enum MesiState;

constexpr SnoopOutcome mesi(MesiState s, BusTxKind k) {
  return apply_snoop(Protocol::kMesi, s, k);
}
constexpr SnoopOutcome moesi(MesiState s, BusTxKind k) {
  return apply_snoop(Protocol::kMoesi, s, k);
}

// --- Snoop-side edges (Fig. 2 solid edges) -------------------------------
static_assert(mesi(kModified, BusTxKind::kBusRd).next == kShared);
static_assert(mesi(kModified, BusTxKind::kBusRd).supply_data);
static_assert(mesi(kModified, BusTxKind::kBusRd).memory_update);
static_assert(mesi(kExclusive, BusTxKind::kBusRd).next == kShared);
static_assert(!mesi(kExclusive, BusTxKind::kBusRd).supply_data);
static_assert(mesi(kShared, BusTxKind::kBusRd).next == kShared);
static_assert(mesi(kInvalid, BusTxKind::kBusRd).next == kInvalid);

static_assert(mesi(kModified, BusTxKind::kBusRdX).next == kInvalid);
static_assert(mesi(kModified, BusTxKind::kBusRdX).supply_data);
static_assert(mesi(kModified, BusTxKind::kBusRdX).invalidated);
static_assert(mesi(kExclusive, BusTxKind::kBusRdX).next == kInvalid);
static_assert(mesi(kShared, BusTxKind::kBusUpgr).next == kInvalid);
static_assert(mesi(kShared, BusTxKind::kBusUpgr).invalidated);

// --- Transient states respond correctly ----------------------------------
static_assert(mesi(kTransientDirty, BusTxKind::kBusRd).supply_data);
static_assert(mesi(kTransientDirty, BusTxKind::kBusRd).cancel_turnoff_wb);
static_assert(mesi(kTransientDirty, BusTxKind::kBusRd).next == kInvalid);
static_assert(mesi(kTransientClean, BusTxKind::kBusRdX).next == kInvalid);
static_assert(mesi(kTransientClean, BusTxKind::kBusRd).next ==
              kTransientClean);

// --- The MOESI-defining edges ---------------------------------------------
// A dirty owner answering a BusRd keeps ownership (M -> O) and does NOT
// update memory.
static_assert(moesi(kModified, BusTxKind::kBusRd).next == kOwned);
static_assert(!moesi(kModified, BusTxKind::kBusRd).memory_update);
// Upgrades are invalidation-only: a snooped Owned owner dies silently (the
// requester's identical S copy becomes the new M), so no data or memory
// traffic may be implied — the bus's kBusUpgr arm moves no bytes.
static_assert(!moesi(kOwned, BusTxKind::kBusUpgr).supply_data);
static_assert(!moesi(kOwned, BusTxKind::kBusUpgr).memory_update);
static_assert(moesi(kOwned, BusTxKind::kBusUpgr).invalidated);

// --- Turn-off edges (Fig. 2 dashed edges) --------------------------------
constexpr TurnOffClass mesi_turnoff(MesiState s) {
  return classify_turnoff(Protocol::kMesi, s);
}
static_assert(mesi_turnoff(kModified) == TurnOffClass::kDirtyTurnOff);
static_assert(mesi_turnoff(kExclusive) == TurnOffClass::kCleanTurnOff);
static_assert(mesi_turnoff(kShared) == TurnOffClass::kCleanTurnOff);
static_assert(mesi_turnoff(kInvalid) == TurnOffClass::kIgnore);
static_assert(mesi_turnoff(kTransientClean) == TurnOffClass::kIgnore);
static_assert(mesi_turnoff(kTransientDirty) == TurnOffClass::kIgnore);
static_assert(classify_turnoff(Protocol::kMoesi, kOwned) ==
              TurnOffClass::kOwnedTurnOff);
static_assert(turnoff_transient(kModified) == kTransientDirty);
static_assert(turnoff_transient(kOwned) == kTransientDirty);
static_assert(turnoff_transient(kShared) == kTransientClean);
static_assert(turnoff_transient(kExclusive) == kTransientClean);

// --- Fill states ----------------------------------------------------------
static_assert(fill_state(/*was_write=*/true, /*shared=*/false) == kModified);
static_assert(fill_state(true, true) == kModified);
static_assert(fill_state(false, false) == kExclusive);
static_assert(fill_state(false, true) == kShared);

// --- Invariants over every cell, under both protocols ---------------------
constexpr Protocol kProtocols[] = {Protocol::kMesi, Protocol::kMoesi};
constexpr MesiState kStates[] = {kInvalid,        kShared,   kExclusive,
                                 kModified,       kOwned,    kTransientClean,
                                 kTransientDirty};
constexpr BusTxKind kSnoops[] = {BusTxKind::kBusRd, BusTxKind::kBusRdX,
                                 BusTxKind::kBusUpgr};

/// pred(protocol, state, kind, outcome) holds for every snooped cell.
template <typename Pred>
constexpr bool every_snoop(Pred pred) {
  for (const Protocol p : kProtocols) {
    for (const MesiState s : kStates) {
      for (const BusTxKind k : kSnoops) {
        if (!pred(p, s, k, apply_snoop(p, s, k))) return false;
      }
    }
  }
  return true;
}

// A snoop that supplies data comes from a dirty line.
static_assert(every_snoop([](Protocol, MesiState s, BusTxKind,
                             const SnoopOutcome& o) {
  return !o.supply_data || is_dirty(s);
}));
// An invalidated line ends in I; a non-invalidating snoop keeps the data.
static_assert(every_snoop([](Protocol, MesiState s, BusTxKind,
                             const SnoopOutcome& o) {
  return o.invalidated ? o.next == kInvalid && holds_data(s)
                       : holds_data(o.next) == holds_data(s);
}));
// A dirty line that leaves the dirty set updates memory — except on a MOESI
// upgrade, where the upgrader's new M copy inherits the dirty data and
// nothing moves on the bus.
static_assert(every_snoop([](Protocol p, MesiState s, BusTxKind k,
                             const SnoopOutcome& o) {
  if (!is_dirty(s) || is_dirty(o.next)) return true;
  if (p == Protocol::kMoesi && k == BusTxKind::kBusUpgr) {
    return !o.supply_data && !o.memory_update &&
           is_dirty(fill_state(/*was_write=*/true, false));
  }
  return o.memory_update;
}));

/// pred(protocol, state) holds for every state.
template <typename Pred>
constexpr bool every_state(Pred pred) {
  for (const Protocol p : kProtocols) {
    for (const MesiState s : kStates) {
      if (!pred(p, s)) return false;
    }
  }
  return true;
}

// Write-backs are inert for third parties.
static_assert(every_state([](Protocol p, MesiState s) {
  const SnoopOutcome o = apply_snoop(p, s, BusTxKind::kWriteBack);
  return o.next == s && !o.supply_data && !o.memory_update &&
         !o.invalidated && !o.cancel_turnoff_wb;
}));
// A turn-off is ignored exactly in the non-stationary states.
static_assert(every_state([](Protocol p, MesiState s) {
  return (classify_turnoff(p, s) == TurnOffClass::kIgnore) ==
         !is_stationary(s);
}));

// --- Table I, multiprocessor column ---------------------------------------
constexpr auto mp = HierarchyKind::kMultiprocessorWritethroughL1;
static_assert(table1_verdict(mp, /*dirty=*/false, /*pending=*/false).allowed);
static_assert(!table1_verdict(mp, false, /*pending=*/true).allowed);
static_assert(table1_verdict(mp, /*dirty=*/true, false).requires_upper_inval);
static_assert(table1_verdict(mp, true, false).requires_writeback);

}  // namespace
}  // namespace cdsim::coherence
