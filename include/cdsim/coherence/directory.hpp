#pragma once
// Sharer-bitmap directory for the mesh-interconnect coherence protocol.
//
// One logical directory, banked by home tile, tracks for every cached line:
//
//   * `sharers` — a bit per core that may hold the line (up to 64 cores);
//   * `owner`   — the core whose copy answers for the line, i.e. the one
//                 holding it in E, M, O or TD. Silent E->M upgrades are
//                 invisible to any directory, so ownership conservatively
//                 covers both clean-exclusive and dirty.
//
// The bitmap is kept *exact* (not merely conservative) by two mechanisms:
// the home re-probes every involved cache after each grant's snoops
// resolve (noc::Snooper::probe, side-effect-free), and silent clean drops —
// evictions of clean lines and the paper's §III clean turn-offs — notify
// the home through Interconnect::note_clean_drop.
//
// That exactness is what maps the paper's snoop-bus turn-off rules onto
// directory state (DESIGN.md has the full table):
//
//   S/E turn-off  -> PutS / PutE: droppable with no data traffic exactly
//                    when the directory shows the line clean at that core
//                    (sharer bit set; for E, owner == core). note_clean_drop
//                    asserts this agreement.
//   M turn-off    -> write-back to home; the home clears ownership when the
//                    write-back is granted (writeback_granted).
//   O turn-off    -> a *directed recall*: the home invalidates exactly the
//                    tracked sharers instead of broadcasting, then the
//                    owner's flush proceeds as a dirty turn-off.

#include <cstdint>
#include <string>

#include "cdsim/coherence/mesi.hpp"
#include "cdsim/common/assert.hpp"
#include "cdsim/common/line_map.hpp"
#include "cdsim/common/stats.hpp"
#include "cdsim/common/types.hpp"

namespace cdsim::coherence {

struct DirectoryEntry {
  std::uint64_t sharers = 0;  ///< Bit c set: core c may hold the line.
  CoreId owner = kNoCore;     ///< Core holding E/M/O/TD, or kNoCore.

  [[nodiscard]] bool tracked(CoreId c) const noexcept {
    return (sharers >> c) & 1u;
  }
  [[nodiscard]] bool uncached() const noexcept {
    return sharers == 0 && owner == kNoCore;
  }
};

/// Debug/test rendering, e.g. "{sharers=0x5, owner=2}".
std::string to_string(const DirectoryEntry& e);

struct DirectoryStats {
  Counter lookups;           ///< Grants processed against an entry.
  Counter directed_snoops;   ///< Snoops sent (vs. (n-1) per broadcast).
  Counter clean_drops;       ///< PutS notifications (S turn-off/eviction).
  Counter exclusive_drops;   ///< PutE notifications (owner dropped clean).
  Counter recalls;           ///< Directed O-turn-off invalidation rounds.
  Counter owner_writebacks;  ///< Write-backs granted from the owner.
  Counter late_writebacks;   ///< Write-backs whose ownership moved on.
  Counter deferrals;         ///< Requests parked behind an in-flight WB.
};

/// The bookkeeping core of the directory protocol. The transport (who gets
/// snooped when, over which links) lives in noc::DirectoryMesh; this class
/// owns the entries, the bit algebra and the protocol-agreement checks, so
/// it is unit-testable without a mesh.
class Directory {
 public:
  explicit Directory(std::uint32_t num_cores) : num_cores_(num_cores) {
    CDSIM_ASSERT_MSG(num_cores >= 1 && num_cores <= 64,
                     "sharer bitmap holds at most 64 cores");
  }

  [[nodiscard]] std::uint32_t num_cores() const noexcept { return num_cores_; }

  /// Entry for `line`, created on first use. The reference is valid only
  /// until the next call that creates or drops an entry (note_clean_drop,
  /// writeback_granted, drop_if_uncached, lookup of another line): the
  /// entries live in one open-addressing table (common/line_map.hpp).
  DirectoryEntry& lookup(Addr line) {
    stats_.lookups.inc();
    return map_[line];
  }
  /// Read-only find (nullptr when the line was never cached).
  [[nodiscard]] const DirectoryEntry* find(Addr line) const {
    return map_.find(line);
  }
  [[nodiscard]] std::size_t entries() const noexcept { return map_.size(); }

  /// Cores to snoop for a transaction on `e` issued by `requester`: every
  /// tracked holder except the requester itself.
  [[nodiscard]] std::uint64_t snoop_targets(const DirectoryEntry& e,
                                            CoreId requester) const noexcept {
    std::uint64_t t = e.sharers;
    if (e.owner != kNoCore) t |= std::uint64_t{1} << e.owner;
    t &= ~(std::uint64_t{1} << requester);
    return t;
  }

  /// §III clean-drop legality: `core` dropped a clean (S/E/TC) copy with no
  /// data traffic. Legal iff the directory agrees the copy existed and no
  /// write-back was owed; asserts that agreement, then clears the bit.
  void note_clean_drop(CoreId core, Addr line) {
    DirectoryEntry* e = map_.find(line);
    CDSIM_ASSERT_MSG(e != nullptr && e->tracked(core),
                     "clean drop of a line the directory does not track");
    if (e->owner == core) {
      // The owner's copy was clean (E, or TC entered from E): had it been
      // dirty the controller would have taken the write-back path instead.
      e->owner = kNoCore;
      stats_.exclusive_drops.inc();
    } else {
      stats_.clean_drops.inc();
    }
    e->sharers &= ~(std::uint64_t{1} << core);
    if (e->uncached()) map_.erase(line);
  }

  /// A write-back from `core` reached its home grant (and memory). Clears
  /// the core's tracking; ownership is released only if it still rests
  /// with `core` — a concurrent upgrade may have moved it on (the "late
  /// write-back" of directory protocols).
  void writeback_granted(CoreId core, Addr line) {
    DirectoryEntry* e = map_.find(line);
    if (e == nullptr) return;
    if (e->owner == core) {
      e->owner = kNoCore;
      stats_.owner_writebacks.inc();
    } else {
      stats_.late_writebacks.inc();
    }
    e->sharers &= ~(std::uint64_t{1} << core);
    if (e->uncached()) map_.erase(line);
  }

  /// Records `core`'s post-grant probed state into the entry: this is the
  /// precision-recovery step that keeps the bitmap exact.
  void record_probe(DirectoryEntry& e, CoreId core, MesiState s) {
    const std::uint64_t bit = std::uint64_t{1} << core;
    if (!holds_data(s)) {
      e.sharers &= ~bit;
      if (e.owner == core) e.owner = kNoCore;
      return;
    }
    e.sharers |= bit;
    switch (s) {
      case MesiState::kExclusive:
      case MesiState::kModified:
      case MesiState::kOwned:
      case MesiState::kTransientDirty:
        e.owner = core;
        break;
      case MesiState::kShared:
        // Downgraded (M->S under MESI, E->S on a remote read).
        if (e.owner == core) e.owner = kNoCore;
        break;
      case MesiState::kTransientClean:
        // Keep ownership as-is: a TC entered from E still answers
        // note_clean_drop as the exclusive holder; a TC entered from S
        // never owned the line.
        break;
      case MesiState::kInvalid:
        break;  // unreachable (holds_data above)
    }
  }

  void drop_if_uncached(Addr line) {
    const DirectoryEntry* e = map_.find(line);
    if (e != nullptr && e->uncached()) map_.erase(line);
  }

  [[nodiscard]] DirectoryStats& stats() noexcept { return stats_; }
  [[nodiscard]] const DirectoryStats& stats() const noexcept { return stats_; }

 private:
  std::uint32_t num_cores_ = 0;
  LineMap<DirectoryEntry> map_;
  DirectoryStats stats_;
};

}  // namespace cdsim::coherence
