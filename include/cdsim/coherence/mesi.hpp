#pragma once
// The L2 coherence FSM with the turn-off mechanism of Monchiero/Canal/
// González (ICPP'09), Figure 2, for MESI and for the MOESI extension the
// paper sketches in §III:
//
//   "This technique may be easily extended to any coherence protocol, of
//    course taking care of the different semantic of the states. For
//    example, considering the Owned state of the MOESI, other copies must
//    be invalidated before a line is turned off."
//
// Both protocols share one state space and one snoop table; the protocol is
// only an index into it. The protocol logic is *pure*: given a state and an
// input (snooped bus transaction or turn-off signal), it returns the next
// state plus the actions the controller must perform (supply data, write
// back, invalidate the upper level, ...). Keeping the FSM side-effect-free
// makes the paper's Table I and Figure 2 directly testable, transition by
// transition (src/coherence/mesi_checks.cpp, tests/coherence_test.cpp).
//
// States:
//   I  — Invalid. Under any gating technique an invalid line is also
//        *powered off* (the valid bit gates Vdd, paper §III).
//   S  — Shared: clean, possibly replicated in other L2s. Under MOESI memory
//        may be stale (an O owner answers for the line).
//   E  — Exclusive: clean, only copy among the L2s.
//   M  — Modified: dirty, only copy; memory is stale.
//   O  — Owned (MOESI only): dirty *and* shared. The owner supplies readers
//        without updating memory, so its turn-off must first invalidate the
//        S replicas, then write back. A MESI controller never enters O.
//   TC — Transient Clean: a clean line whose turn-off is in progress; the
//        upper level (L1) is being invalidated to preserve inclusion.
//   TD — Transient Dirty: a dirty line (M or O) whose turn-off is in
//        progress; the upper level is being invalidated and the line awaits
//        a bus grant to flush its data to memory before switching off.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "cdsim/common/assert.hpp"
#include "cdsim/common/types.hpp"

namespace cdsim::coherence {

/// Which snooping protocol a cache hierarchy runs. MESI is the paper's §III
/// design point; MOESI realizes the §III extension sketch.
enum class Protocol : std::uint8_t { kMesi, kMoesi };

constexpr std::string_view to_string(Protocol p) noexcept {
  return p == Protocol::kMesi ? "MESI" : "MOESI";
}

enum class MesiState : std::uint8_t {
  kInvalid,
  kShared,
  kExclusive,
  kModified,
  kTransientClean,
  kTransientDirty,
  kOwned,
};

/// Human-readable state name (for logs, tests and the Table I harness).
constexpr std::string_view to_string(MesiState s) noexcept {
  switch (s) {
    case MesiState::kInvalid: return "I";
    case MesiState::kShared: return "S";
    case MesiState::kExclusive: return "E";
    case MesiState::kModified: return "M";
    case MesiState::kTransientClean: return "TC";
    case MesiState::kTransientDirty: return "TD";
    case MesiState::kOwned: return "O";
  }
  return "?";
}

/// A state is "stationary" when the line is not mid-transaction. The paper
/// requires turn-off requests to wait for a stationary state (§III).
constexpr bool is_stationary(MesiState s) noexcept {
  return s == MesiState::kShared || s == MesiState::kExclusive ||
         s == MesiState::kModified || s == MesiState::kOwned;
}

/// Valid (powered, data-holding) states. TC/TD still hold data and must
/// respond to snoops.
constexpr bool holds_data(MesiState s) noexcept {
  return s != MesiState::kInvalid;
}

/// Dirty = this cache is responsible for the only up-to-date copy.
constexpr bool is_dirty(MesiState s) noexcept {
  return s == MesiState::kModified || s == MesiState::kTransientDirty ||
         s == MesiState::kOwned;
}

/// Bus transactions a snoopy L2 can observe or issue.
enum class BusTxKind : std::uint8_t {
  kBusRd,     ///< Read for sharing (load miss).
  kBusRdX,    ///< Read for ownership (store miss).
  kBusUpgr,   ///< Ownership upgrade of an already-held S/O line (no data).
  kWriteBack, ///< Dirty data flushed to memory (eviction or turn-off).
};

constexpr std::string_view to_string(BusTxKind k) noexcept {
  switch (k) {
    case BusTxKind::kBusRd: return "BusRd";
    case BusTxKind::kBusRdX: return "BusRdX";
    case BusTxKind::kBusUpgr: return "BusUpgr";
    case BusTxKind::kWriteBack: return "WB";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Snoop side
// ---------------------------------------------------------------------------

/// Outcome of applying a snooped transaction to a local line.
struct SnoopOutcome {
  MesiState next = MesiState::kInvalid;
  bool had_line = false;      ///< We held valid data (drives S vs E fills).
  bool supply_data = false;   ///< We flush the line on the bus (dirty owner).
  bool memory_update = false; ///< Memory is written with our dirty data.
  bool invalidated = false;   ///< The line was invalidated by this snoop.
  bool cancel_turnoff_wb = false;  ///< A pending TD write-back became moot.
};

namespace detail {

/// Action bits of one snoop-table cell.
inline constexpr std::uint8_t kSupply = 1;  ///< SnoopOutcome::supply_data
inline constexpr std::uint8_t kMemory = 2;  ///< SnoopOutcome::memory_update
inline constexpr std::uint8_t kInval = 4;   ///< SnoopOutcome::invalidated
inline constexpr std::uint8_t kCancel = 8;  ///< SnoopOutcome::cancel_turnoff_wb
inline constexpr std::uint8_t kFlush = kSupply | kMemory;
/// A dying TD line hit by a data-carrying snoop: its flush doubles as the
/// write-back the TD state was queued for, so the line switches off now.
inline constexpr std::uint8_t kFlushAndDie = kFlush | kInval | kCancel;

struct SnoopCell {
  MesiState next = MesiState::kInvalid;
  std::uint8_t actions = 0;
};

constexpr MesiState I = MesiState::kInvalid;
constexpr MesiState S = MesiState::kShared;
constexpr MesiState E = MesiState::kExclusive;
constexpr MesiState M = MesiState::kModified;
constexpr MesiState TC = MesiState::kTransientClean;
constexpr MesiState TD = MesiState::kTransientDirty;
constexpr MesiState O = MesiState::kOwned;

/// [protocol][BusRd | BusRdX | BusUpgr][state], states in enum order
/// I, S, E, M, TC, TD, O. Write-backs are not in the table: they carry no
/// coherence action for third parties.
inline constexpr SnoopCell kSnoopTable[2][3][7] = {
    // --- MESI (Figure 2). Memory supplies clean remote hits; only a dirty
    // owner flushes, and the flush updates memory too, so the requester may
    // install a clean copy. O is unreachable and answers as M would.
    {
        // BusRd: M flushes and drops to S (the BusRd/Flush edge), E drops
        // silently; a turning-off TC line stays clean and keeps draining.
        {{I, 0}, {S, 0}, {S, 0}, {S, kFlush}, {TC, 0}, {I, kFlushAndDie},
         {S, kFlush}},
        // BusRdX: every copy dies, dirty ones flushing on the way out; a
        // TC line's turn-off completes trivially.
        {{I, 0}, {I, kInval}, {I, kInval}, {I, kFlush | kInval},
         {I, kInval | kCancel}, {I, kFlushAndDie}, {I, kFlush | kInval}},
        // BusUpgr: as BusRdX.
        {{I, 0}, {I, kInval}, {I, kInval}, {I, kFlush | kInval},
         {I, kInval | kCancel}, {I, kFlushAndDie}, {I, kFlush | kInval}},
    },
    // --- MOESI (the §III extension).
    {
        // BusRd: a dirty owner supplies the reader and keeps ownership
        // (M -> O, O -> O) WITHOUT updating memory — the deferred
        // write-back is what makes the O turn-off more involved.
        {{I, 0}, {S, 0}, {S, 0}, {O, kSupply}, {TC, 0}, {I, kFlushAndDie},
         {O, kSupply}},
        // BusRdX: as MESI. The requester has no data, so an owner flushes.
        {{I, 0}, {I, kInval}, {I, kInval}, {I, kFlush | kInval},
         {I, kInval | kCancel}, {I, kFlushAndDie}, {I, kFlush | kInval}},
        // BusUpgr: invalidation only. The requester already holds the line
        // (it upgrades from S or O), so a snooped O — or a dying TD — dies
        // silently and the requester's new M copy inherits the dirty-data
        // responsibility, the way ownership migrates in real MOESI. (M is
        // unreachable here: M excludes sharers.)
        {{I, 0}, {I, kInval}, {I, kInval}, {I, kInval},
         {I, kInval | kCancel}, {I, kInval | kCancel}, {I, kInval}},
    },
};

}  // namespace detail

/// Applies a snooped bus transaction `kind` to a line in state `s` under
/// protocol `p`.
constexpr SnoopOutcome apply_snoop(Protocol p, MesiState s,
                                   BusTxKind kind) noexcept {
  SnoopOutcome o;
  o.had_line = holds_data(s);
  if (kind == BusTxKind::kWriteBack) {
    o.next = s;
    return o;
  }
  const detail::SnoopCell c =
      detail::kSnoopTable[static_cast<std::size_t>(p)]
                         [static_cast<std::size_t>(kind)]
                         [static_cast<std::size_t>(s)];
  o.next = c.next;
  o.supply_data = (c.actions & detail::kSupply) != 0;
  o.memory_update = (c.actions & detail::kMemory) != 0;
  o.invalidated = (c.actions & detail::kInval) != 0;
  o.cancel_turnoff_wb = (c.actions & detail::kCancel) != 0;
  return o;
}

// ---------------------------------------------------------------------------
// Turn-off side (the paper's contribution)
// ---------------------------------------------------------------------------

/// What a turn-off request requires for a line in a given state.
enum class TurnOffClass : std::uint8_t {
  kIgnore,        ///< I / TC / TD — nothing to do (or already in progress).
  kCleanTurnOff,  ///< S/E -> TC: invalidate upper level, then off. No bus.
  kDirtyTurnOff,  ///< M -> TD: invalidate upper level, flush on bus, off.
  /// MOESI O -> TD: *first* invalidate the remaining S copies system-wide
  /// (ownership-revocation broadcast), then write back, then off — "other
  /// copies must be invalidated before a line is turned off" (§III).
  kOwnedTurnOff,
};

/// Classifies a turn-off request (Fig. 2 "Turn-off" edges). Requests in
/// transient states must be retried once the line is stationary; the decay
/// sweep naturally provides the retry.
constexpr TurnOffClass classify_turnoff(Protocol p, MesiState s) noexcept {
  switch (s) {
    case MesiState::kShared:
    case MesiState::kExclusive:
      return TurnOffClass::kCleanTurnOff;
    case MesiState::kModified:
      return TurnOffClass::kDirtyTurnOff;
    case MesiState::kOwned:  // unreachable under MESI; dirty either way
      return p == Protocol::kMoesi ? TurnOffClass::kOwnedTurnOff
                                   : TurnOffClass::kDirtyTurnOff;
    case MesiState::kInvalid:
    case MesiState::kTransientClean:
    case MesiState::kTransientDirty:
      return TurnOffClass::kIgnore;
  }
  return TurnOffClass::kIgnore;
}

/// State entered when a turn-off request is accepted. O joins the dirty
/// path: its data must reach memory before the line dies.
constexpr MesiState turnoff_transient(MesiState s) noexcept {
  CDSIM_ASSERT(is_stationary(s));
  return is_dirty(s) ? MesiState::kTransientDirty
                     : MesiState::kTransientClean;
}

// ---------------------------------------------------------------------------
// Fill side
// ---------------------------------------------------------------------------

/// State a requester installs after a bus fill, under either protocol. A
/// MOESI read serviced by a dirty owner installs S while the owner keeps O.
/// @param was_write  the fetch was BusRdX (store miss)
/// @param shared     some other L2 held the line at snoop time
constexpr MesiState fill_state(bool was_write, bool shared) noexcept {
  if (was_write) return MesiState::kModified;
  return shared ? MesiState::kShared : MesiState::kExclusive;
}

}  // namespace cdsim::coherence
