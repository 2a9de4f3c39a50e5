#pragma once
// Interconnect abstraction shared by the snoopy bus and the directory mesh.
//
// The L2 controllers speak one transaction vocabulary (BusRd / BusRdX /
// BusUpgr / WriteBack with atomic-at-grant semantics) regardless of what
// fabric carries it. This header defines that vocabulary — the snoop
// interface, the per-transaction result and hook set — plus the abstract
// Interconnect every fabric implements:
//
//   * bus::SnoopBus (bus/snoop_bus.hpp): the paper's 4-core shared snoopy
//     bus. Grants serialize on the single bus; the address phase snoops
//     every other agent.
//   * noc::DirectoryMesh (noc/directory_mesh.hpp): a sharer-bitmap
//     directory over a 2D-mesh NoC for 8-64 cores. Grants serialize at the
//     line's home tile; the directory snoops exactly the tracked holders.
//
// Both provide the same functional contract — coherence decisions are
// atomic at the grant, on_grant/on_done/validator/on_cancel fire with the
// same meaning — so the L2 controller, the decay techniques, and the
// differential-verification oracle are topology-agnostic. Only timing,
// traffic, and energy differ. The grant-time half of that contract is
// implemented once, here: each fabric's grant calls admit() (the validator
// drop) and then snoop() (the snoop fold), and the observer and timeline
// hooks are the base's.

#include <cstdint>
#include <vector>

#include "cdsim/coherence/mesi.hpp"
#include "cdsim/common/assert.hpp"
#include "cdsim/common/small_fn.hpp"
#include "cdsim/common/stats.hpp"
#include "cdsim/common/types.hpp"
#include "cdsim/obs/trace_recorder.hpp"
#include "cdsim/verify/observer.hpp"

namespace cdsim::noc {

/// Which fabric a CmpSystem builds (sim::SystemConfig::topology).
enum class Topology : std::uint8_t {
  kSnoopBus,      ///< Shared snoopy bus (the paper's §V platform).
  kDirectoryMesh, ///< Sharer-bitmap directory over a 2D mesh (scale-out).
};

constexpr std::string_view to_string(Topology t) noexcept {
  return t == Topology::kSnoopBus ? "bus" : "dmesh";
}

/// What a snooping cache reports back during the address phase.
struct SnoopReply {
  bool had_line = false;      ///< Held valid data (drives S vs E fill).
  bool supplied_data = false; ///< Is the dirty owner and will flush.
  /// The flush also writes memory. Under MESI every flush does; under MOESI
  /// an Owned/Modified owner answering a BusRd keeps ownership and leaves
  /// memory stale — the fabric must then not generate memory write traffic.
  bool memory_update = false;
};

/// Interface implemented by every agent on the interconnect (the L2
/// controllers). `snoop` must apply the coherence side effects immediately
/// (atomic-at-grant semantics) and return what happened.
class Snooper {
 public:
  virtual ~Snooper() = default;
  virtual SnoopReply snoop(coherence::BusTxKind kind, Addr line_addr,
                           CoreId requester) = 0;
  /// Side-effect-free state probe. The directory uses it at each grant to
  /// keep its sharer bitmap exact (a snoopy bus never calls it).
  [[nodiscard]] virtual coherence::MesiState probe(Addr line_addr) const {
    (void)line_addr;
    return coherence::MesiState::kInvalid;
  }
};

/// Completion report for one interconnect transaction.
struct BusResult {
  Cycle granted_at = 0;
  /// Cycle the requested line is available at the requester (fills), or the
  /// transaction fully retired (upgrades / write-backs).
  Cycle done_at = 0;
  /// Another L2 held the line at snoop time (requester fills S, not E).
  bool shared = false;
  /// Data came from a dirty owner's flush rather than memory.
  bool supplied_by_cache = false;
};

/// Callbacks and guards attached to one transaction. All four are
/// move-only SmallFn with inline buffers sized for the L2 controller's
/// captures, so the hooks themselves never allocate. (On the snoopy bus
/// the whole request path is allocation-free; the directory mesh parks the
/// hooks in a pooled Tx record and passes a 4-byte handle across the NoC,
/// so its steady state is allocation-free too.)
struct RequestHooks {
  /// Fires at BusResult::done_at (data delivered / transaction retired).
  SmallFn<void(const BusResult&), 32> on_done;
  /// Fires at the grant cycle, after the snoop set resolved. L2
  /// controllers use this to install the line's tag+state atomically in
  /// grant order (data arrives later), which keeps coherence exact across
  /// overlapping split transactions.
  SmallFn<void(const BusResult&), 32> on_grant;
  /// Checked at the grant cycle before anything happens. Returning false
  /// drops the transaction (no snoop, no occupancy, no traffic) — used to
  /// cancel a TD turn-off write-back whose data already reached memory via
  /// a snoop flush (see coherence::SnoopOutcome::cancel_turnoff_wb), and to
  /// abandon a BusUpgr whose S line was invalidated while queued.
  SmallFn<bool(), 24> validator;
  /// Fires at the grant cycle when the validator dropped the transaction,
  /// so the requester can fall back (e.g. reissue an upgrade as BusRdX).
  SmallFn<void(), 40> on_cancel;
};

/// Abstract coherent interconnect: what the L2 slices are built against.
class Interconnect {
 public:
  using Completion = SmallFn<void(const BusResult&), 32>;

  virtual ~Interconnect() = default;

  /// Registers an agent; its position in attach order is its CoreId on the
  /// fabric. Must be called before any request. Fabrics that keep
  /// per-agent state extend it and call this first.
  virtual void attach(Snooper* s) {
    CDSIM_ASSERT(s != nullptr);
    CDSIM_ASSERT_MSG(agents_.size() < 64, "snoop sets are 64-bit masks");
    agents_.push_back(s);
  }

  /// Attaches a differential-verification observer (nullptr detaches). The
  /// fabric reports write-back resolutions — the single point that knows
  /// whether a queued write-back actually reached memory or was dropped by
  /// its cancellation validator.
  void set_observer(verify::AccessObserver* obs) noexcept { obs_ = obs; }

  /// Attaches the timeline recorder (observer-only; nullptr detaches): one
  /// span per grant on `track`, named by the transaction kind.
  void set_trace(obs::TraceRecorder* rec, obs::TrackId track) noexcept {
    trace_ = rec;
    trace_track_ = track;
  }

  /// Full-control transaction issue with grant hook and cancellation
  /// validator. `bytes` is the payload size (a line for fills and
  /// write-backs, 0 for upgrades).
  virtual void request(coherence::BusTxKind kind, Addr line_addr,
                       CoreId requester, std::uint32_t bytes,
                       RequestHooks hooks) = 0;

  /// Convenience variant: completion callback only.
  void request(coherence::BusTxKind kind, Addr line_addr, CoreId requester,
               std::uint32_t bytes, Completion on_done) {
    RequestHooks hooks;
    hooks.on_done = std::move(on_done);
    request(kind, line_addr, requester, bytes, std::move(hooks));
  }

  /// A clean line at `core` stopped holding data without any data traffic
  /// (silent clean eviction or a decay turn-off of an S/E line). A snoopy
  /// bus ignores it — snooping needs no global bookkeeping — while the
  /// directory uses it to keep the sharer bitmap exact, which is what makes
  /// the paper's "a decayed line is droppable iff clean" rule checkable
  /// (see coherence/directory.hpp).
  virtual void note_clean_drop(CoreId core, Addr line_addr) {
    (void)core, (void)line_addr;
  }

  // --- statistics ---------------------------------------------------------
  /// Occupancy of the fabric's scarcest resource over [0, now], in [0, 1]:
  /// the single bus for kSnoopBus, the busiest mesh link for
  /// kDirectoryMesh.
  [[nodiscard]] virtual double utilization(Cycle now) const = 0;
  /// Transactions dropped by their validator (cancelled write-backs).
  [[nodiscard]] std::uint64_t cancelled_transactions() const noexcept {
    return cancelled_.value();
  }

 protected:
  /// What snoop() learned beyond the BusResult flags.
  struct SnoopFold {
    CoreId supplier = kNoCore;  ///< The agent that supplied the data.
    /// Some reply's flush also writes memory (SnoopReply::memory_update).
    bool memory_update = false;
  };

  [[nodiscard]] std::size_t num_attached() const noexcept {
    return agents_.size();
  }
  [[nodiscard]] Snooper& agent(CoreId c) const { return *agents_[c]; }

  /// Runs the transaction's validator at its grant. A dropped transaction
  /// vanishes before its snoop phase (no snoop, no occupancy, no traffic):
  /// this counts it and reports a dropped write-back to the observer, and
  /// the caller then releases what it holds and fires `on_cancel`.
  [[nodiscard]] bool admit(coherence::BusTxKind kind, Addr line,
                           CoreId requester, const RequestHooks& hooks,
                           Cycle granted) {
    if (!hooks.validator || hooks.validator()) return true;
    cancelled_.inc();
    if (obs_ != nullptr && kind == coherence::BusTxKind::kWriteBack) {
      obs_->on_writeback_resolved(requester, line, granted,
                                  /*cancelled=*/true);
    }
    return false;
  }

  /// Snoops every attached agent in `targets` (a CoreId bitmask) in CoreId
  /// order, atomically at the caller's grant, and folds the replies into
  /// `res`.
  SnoopFold snoop(std::uint64_t targets, coherence::BusTxKind kind,
                  Addr line, CoreId requester, BusResult& res) {
    SnoopFold fold;
    for (CoreId t = 0; t < static_cast<CoreId>(agents_.size()); ++t) {
      if (((targets >> t) & 1u) == 0) continue;
      const SnoopReply r = agents_[t]->snoop(kind, line, requester);
      res.shared = res.shared || r.had_line;
      if (r.supplied_data) {
        CDSIM_ASSERT_MSG(fold.supplier == kNoCore,
                         "two suppliers for one line");
        res.supplied_by_cache = true;
        fold.supplier = t;
      }
      fold.memory_update = fold.memory_update || r.memory_update;
    }
    return fold;
  }

  /// Reports an accepted write-back to the observer (see set_observer).
  void writeback_accepted(CoreId requester, Addr line, Cycle granted,
                          bool to_l3 = false) {
    if (obs_ != nullptr) {
      obs_->on_writeback_resolved(requester, line, granted,
                                  /*cancelled=*/false, to_l3);
    }
  }

  /// Emits the grant span [from, to) on the fabric's timeline track.
  void trace_grant(coherence::BusTxKind kind, Addr line, Cycle from,
                   Cycle to) {
    if (trace_ != nullptr) {
      trace_->span(trace_track_, coherence::to_string(kind).data(), from, to,
                   "line", line);
    }
  }

 private:
  std::vector<Snooper*> agents_;
  verify::AccessObserver* obs_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  obs::TrackId trace_track_ = 0;
  Counter cancelled_;
};

}  // namespace cdsim::noc
