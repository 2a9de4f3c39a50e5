#include "cdsim/sim/l2_cache.hpp"

#include <algorithm>
#include <utility>

#include "cdsim/common/assert.hpp"
#include "cdsim/common/host_timer.hpp"

namespace cdsim::sim {

using coherence::BusTxKind;
using coherence::MesiState;

L2Cache::L2Cache(EventQueue& eq, const L2Config& cfg, std::uint64_t size_bytes,
                 std::uint32_t line_bytes, coherence::Protocol protocol,
                 const decay::DecayConfig& dcfg, CoreId core,
                 noc::Interconnect& ic, L1Cache* upper)
    : eq_(eq),
      cfg_(cfg),
      protocol_(protocol),
      core_(core),
      ic_(ic),
      upper_(upper),
      level_(eq, cache::Geometry(size_bytes, line_bytes, cfg.ways),
             cfg.hit_latency, dcfg, [this](Cycle now) { decay_sweep(now); }),
      mshr_(cfg.mshr_entries) {
  CDSIM_ASSERT(upper_ != nullptr);
}

void L2Cache::start() { level_.start(); }
void L2Cache::stop() { level_.stop(); }

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

bool L2Cache::td_wb_live(Addr line_addr, std::uint64_t ticket) const {
  const LineT ln = level_.tags().find(line_addr);
  return ln && ln.payload().td_wb_ticket == ticket;
}

void L2Cache::line_off(LineT ln) {
  CDSIM_ASSERT(ln.valid());
  if (obs_) obs_->on_invalidate(core_, ln.tag(), eq_.now());
  cancel_td_wb(ln.payload());
  ln.payload().state = MesiState::kInvalid;
  ln.payload().fetching = false;
  ln.payload().upgrading = false;
  level_.drop(ln);
}

coherence::MesiState L2Cache::line_state(Addr addr) const {
  const Addr line = level_.geometry().line_addr(addr);
  const LineT ln = level_.tags().find(line);
  return ln ? ln.payload().state : MesiState::kInvalid;
}

// ---------------------------------------------------------------------------
// Upper-level requests
// ---------------------------------------------------------------------------

void L2Cache::read(Addr addr, Response on_done) {
  const Addr line = level_.geometry().line_addr(addr);
  do_read(line, std::move(on_done), /*counted=*/false);
}

void L2Cache::do_read(Addr line_addr, Response on_done, bool counted) {
  LineT ln = level_.tags().find(line_addr);

  if (ln && !coherence::is_stationary(ln.payload().state)) {
    // TC/TD: the paper requires requests to wait for a stationary state.
    transient_retries_.inc();
    retry([this, line_addr, cb = std::move(on_done), counted]() mutable {
      do_read(line_addr, std::move(cb), counted);
    });
    return;
  }

  if (ln && !ln.payload().fetching) {
    // Hit on a stationary line.
    if (!counted) level_.stats().read_hits.inc();
    if (obs_) obs_->on_load_hit(core_, line_addr, eq_.now(), /*l1=*/false);
    level_.touch(ln);
    const Cycle done = eq_.now() + level_.access_latency();
    eq_.schedule_at(done, [cb = std::move(on_done), done] { cb(done, true); });
    return;
  }

  // Miss, or data still in flight for an installed tag: merge or fetch.
  // The fill responder re-checks the tag at completion time: a line
  // invalidated while its fill was in flight must not be cached above.
  auto fill_responder = [this, line_addr](Response cb) {
    return [this, line_addr, cb = std::move(cb)](Cycle fill_done) {
      LineT l2 = level_.tags().find(line_addr);
      const bool may_cache =
          static_cast<bool>(l2) && coherence::holds_data(l2.payload().state);
      cb(fill_done, may_cache);
    };
  };

  if (cache::MshrEntry* e = mshr_.find(line_addr)) {
    if (!counted) level_.note_miss(line_addr, /*is_write=*/false);
    mshr_.merge(*e, /*is_write=*/false, fill_responder(std::move(on_done)));
    return;
  }
  CDSIM_ASSERT_MSG(!ln || !ln.payload().fetching,
                   "fetching line without an MSHR entry");

  if (mshr_.full()) {
    retry([this, line_addr, cb = std::move(on_done), counted]() mutable {
      // Re-enter through do_read so a line filled meanwhile becomes a hit.
      do_read(line_addr, std::move(cb), counted);
    });
    return;
  }

  if (!counted) level_.note_miss(line_addr, /*is_write=*/false);
  cache::MshrEntry& e =
      mshr_.allocate(line_addr, /*is_write=*/false, eq_.now());
  mshr_.merge(e, /*is_write=*/false, fill_responder(std::move(on_done)));
  issue_fetch(line_addr, /*is_write=*/false);
}

void L2Cache::write(Addr addr, Response on_done) {
  const Addr line = level_.geometry().line_addr(addr);
  do_write(line, std::move(on_done), /*counted=*/false);
}

void L2Cache::do_write(Addr line_addr, Response on_done, bool counted) {
  LineT ln = level_.tags().find(line_addr);

  if (ln && !coherence::is_stationary(ln.payload().state)) {
    transient_retries_.inc();
    retry([this, line_addr, cb = std::move(on_done), counted]() mutable {
      do_write(line_addr, std::move(cb), counted);
    });
    return;
  }

  if (ln && ln.payload().fetching) {
    // Write arriving while the line's fill is in flight: retire it after
    // the fill by re-entering (it will then hit, upgrade, or re-miss).
    // Counting waits for that re-entry: if a snoop invalidates the line
    // before the fill lands, this is a genuine write miss (with its own
    // refetch and decay attribution), not the hit it looks like now.
    cache::MshrEntry* e = mshr_.find(line_addr);
    CDSIM_ASSERT_MSG(e != nullptr, "fetching line without an MSHR entry");
    auto waiter = [this, line_addr, cb = std::move(on_done),
                   counted](Cycle) mutable {
      do_write(line_addr, std::move(cb), counted);
    };
    // The largest waiter on the write path; must not fall back to the heap.
    static_assert(cache::FillCallback::fits_inline_v<decltype(waiter)>);
    mshr_.merge(*e, /*is_write=*/true, std::move(waiter));
    return;
  }

  if (ln) {
    Payload& p = ln.payload();
    switch (p.state) {
      case MesiState::kModified: {
        if (!counted) level_.stats().write_hits.inc();
        if (obs_) obs_->on_write_serialized(core_, line_addr, eq_.now());
        level_.touch(ln);
        const Cycle done = eq_.now() + level_.access_latency();
        eq_.schedule_at(done,
                        [cb = std::move(on_done), done] { cb(done, true); });
        return;
      }
      case MesiState::kExclusive: {
        // Silent E->M upgrade (PrWr/- edge).
        if (!counted) level_.stats().write_hits.inc();
        p.state = MesiState::kModified;
        level_.arm_on_entry(p.decay, MesiState::kModified);
        if (obs_) obs_->on_write_serialized(core_, line_addr, eq_.now());
        level_.touch(ln);
        const Cycle done = eq_.now() + level_.access_latency();
        eq_.schedule_at(done,
                        [cb = std::move(on_done), done] { cb(done, true); });
        return;
      }
      case MesiState::kOwned:  // MOESI: dirty-shared still needs the Upgr
      case MesiState::kShared: {
        if (p.upgrading) {
          // A previous store's upgrade is already in flight; retire this
          // one after it resolves.
          retry([this, line_addr, cb = std::move(on_done),
                 counted]() mutable {
            do_write(line_addr, std::move(cb), counted);
          });
          return;
        }
        if (!counted) upgrades_.inc();
        p.upgrading = true;
        level_.touch(ln);

        // Exactly one of on_done / on_cancel fires; share the response.
        auto cb = std::make_shared<Response>(std::move(on_done));
        noc::RequestHooks hooks;
        // Only meaningful while the line is still our upgradable (Shared or
        // Owned) copy; a snoop invalidation while queued turns the upgrade
        // into a write miss.
        hooks.validator = [this, line_addr] {
          LineT l2 = level_.tags().find(line_addr);
          return static_cast<bool>(l2) &&
                 (l2.payload().state == MesiState::kShared ||
                  l2.payload().state == MesiState::kOwned);
        };
        // The hit is only known at the grant: a cancelled upgrade re-enters
        // as an ordinary (still uncounted) write so the resulting miss is
        // recorded in write_misses and runs through note_miss — counting it
        // as a hit up front would silently drop decay-induced attribution.
        hooks.on_cancel = [this, line_addr, cb, counted] {
          if (LineT l2 = level_.tags().find(line_addr)) {
            l2.payload().upgrading = false;
          }
          do_write(line_addr, std::move(*cb), counted);
        };
        hooks.on_grant = [this, line_addr, counted](const noc::BusResult&) {
          LineT l2 = level_.tags().find(line_addr);
          CDSIM_ASSERT_MSG(static_cast<bool>(l2) &&
                               (l2.payload().state == MesiState::kShared ||
                                l2.payload().state == MesiState::kOwned),
                           "upgrade granted for a non-upgradable line");
          if (!counted) level_.stats().write_hits.inc();
          l2.payload().upgrading = false;
          l2.payload().state = MesiState::kModified;
          level_.arm_on_entry(l2.payload().decay, MesiState::kModified);
          if (obs_) obs_->on_write_serialized(core_, line_addr, eq_.now());
        };
        hooks.on_done = [cb](const noc::BusResult& res) {
          (*cb)(res.done_at, true);
        };
        ic_.request(BusTxKind::kBusUpgr, line_addr, core_, /*bytes=*/0,
                     std::move(hooks));
        return;
      }
      default:
        CDSIM_UNREACHABLE("stationary states handled above");
    }
  }

  // Write miss: write-allocate via BusRdX.
  if (cache::MshrEntry* e = mshr_.find(line_addr)) {
    if (!counted) level_.note_miss(line_addr, /*is_write=*/true);
    // Merged into an outstanding (possibly read) fetch: re-enter after the
    // fill so E/S copies upgrade properly.
    mshr_.merge(
        *e, /*is_write=*/true,
        [this, line_addr, cb = std::move(on_done)](Cycle) mutable {
          do_write(line_addr, std::move(cb), /*counted=*/true);
        });
    return;
  }

  if (mshr_.full()) {
    retry([this, line_addr, cb = std::move(on_done), counted]() mutable {
      do_write(line_addr, std::move(cb), counted);
    });
    return;
  }

  if (!counted) level_.note_miss(line_addr, /*is_write=*/true);
  cache::MshrEntry& e =
      mshr_.allocate(line_addr, /*is_write=*/true, eq_.now());
  mshr_.merge(
      e, /*is_write=*/true,
      [this, line_addr, cb = std::move(on_done)](Cycle fill_done) {
        LineT l2 = level_.tags().find(line_addr);
        const bool may_cache =
            static_cast<bool>(l2) && coherence::holds_data(l2.payload().state);
        cb(fill_done, may_cache);
      });
  issue_fetch(line_addr, /*is_write=*/true);
}

// ---------------------------------------------------------------------------
// Fetch / install / evict
// ---------------------------------------------------------------------------

void L2Cache::issue_fetch(Addr line_addr, bool is_write) {
  const Cycle miss_begin = eq_.now();  // MSHR allocated this cycle
  noc::RequestHooks hooks;
  hooks.on_grant = [this, line_addr, is_write](const noc::BusResult& res) {
    install_at_grant(line_addr, is_write, res);
  };
  hooks.on_done = [this, line_addr,
                   miss_begin](const noc::BusResult& res) {
    if (LineT ln = level_.tags().find(line_addr)) {
      ln.payload().fetching = false;
    }
    level_.fills().inc();
    mshr_.complete(line_addr, res.done_at);
    if (trace_ != nullptr) {
      trace_->span(trace_track_, "miss", miss_begin, res.done_at, "line",
                   line_addr);
    }
  };
  ic_.request(is_write ? BusTxKind::kBusRdX : BusTxKind::kBusRd, line_addr,
              core_, level_.geometry().line_bytes(), std::move(hooks));
}

void L2Cache::install_at_grant(Addr line_addr, bool is_write,
                               const noc::BusResult& res) {
  CDSIM_ASSERT_MSG(!level_.tags().find(line_addr),
                   "fill granted for an already-present line");
  // Never evict a way whose own fill is still in flight.
  const LineT slot = level_.tags().pick_victim_if(
      line_addr, [](LineT ln) { return !ln.payload().fetching; });
  if (!slot) {
    // Pathological: every way of the set is mid-fill. Serve the requester
    // without caching (the MSHR completion path handles the absent tag).
    return;
  }
  if (slot.valid()) evict(slot);

  Payload p;
  p.state = coherence::fill_state(is_write, res.shared);
  p.fetching = true;
  level_.fill(slot, line_addr, p, p.state);
  if (obs_) {
    // The fill's data source (owner flush vs memory) was decided by the
    // snoop broadcast that just resolved; a write-allocate fill also
    // serializes its store here (the line is Modified from this grant).
    obs_->on_fill(core_, line_addr, eq_.now(), res.supplied_by_cache,
                  is_write);
    if (is_write) obs_->on_write_serialized(core_, line_addr, eq_.now());
  }
}

void L2Cache::evict(LineT victim) {
  CDSIM_ASSERT(victim.valid());
  const Addr vline = victim.tag();
  // Inclusion: the L1 copy (if any) must go.
  upper_->back_invalidate(vline);
  level_.stats().evictions.inc();

  if (coherence::is_dirty(victim.payload().state)) {
    // Dirty data must reach memory. Any pending TD turn-off write-back for
    // this line is superseded by the eviction write-back.
    cancel_td_wb(victim.payload());
    level_.stats().writebacks.inc();
    if (trace_ != nullptr) {
      trace_->instant(trace_track_, "wb.evict", eq_.now(), "line", vline);
    }
    if (obs_) obs_->on_writeback_initiated(core_, vline, eq_.now());
    ic_.request(BusTxKind::kWriteBack, vline, core_,
                level_.geometry().line_bytes(),
                noc::Interconnect::Completion{});
    line_off(victim);
  } else {
    // Clean eviction: no data traffic. The directory still learns about it
    // (PutS/PutE) so its sharer bitmap stays exact; the bus ignores it.
    line_off(victim);
    ic_.note_clean_drop(core_, vline);
  }
}

// ---------------------------------------------------------------------------
// Snooping
// ---------------------------------------------------------------------------

noc::SnoopReply L2Cache::snoop(coherence::BusTxKind kind, Addr line_addr,
                               CoreId /*requester*/) {
  const prof::ScopedPhase prof_scope(prof::Phase::kCoherence);
  LineT ln = level_.tags().find(line_addr);
  if (!ln) return {};

  Payload& p = ln.payload();
  const coherence::SnoopOutcome out =
      coherence::apply_snoop(protocol_, p.state, kind);
  noc::SnoopReply reply{out.had_line, out.supply_data, out.memory_update};

  if (out.cancel_turnoff_wb) cancel_td_wb(p);
  if (out.supply_data && obs_) {
    // Flush precedes the requester's on_grant install, so the verifier sees
    // the supplied data before the fill that consumes it.
    obs_->on_flush_supply(core_, line_addr, eq_.now(), out.memory_update);
  }

  if (out.invalidated) {
    upper_->back_invalidate(line_addr);
    level_.stats().coherence_invals.inc();
    line_off(ln);
  } else if (out.next != p.state) {
    // Downgrade (e.g. M->S on a remote BusRd, or MOESI's M->O): a
    // transition into S arms Selective Decay and restarts the countdown;
    // entering O disarms it (dirty turn-offs are what it avoids).
    if (out.next == MesiState::kOwned) level_.stats().owned_downgrades.inc();
    p.state = out.next;
    level_.arm_on_entry(p.decay, out.next);
    p.decay.last_touch = eq_.now();
    level_.wheel_register(ln);
  }
  return reply;
}

// ---------------------------------------------------------------------------
// Decay turn-off (the paper's Figure 2 choreography)
// ---------------------------------------------------------------------------

void L2Cache::decay_sweep(Cycle now) {
  const prof::ScopedPhase prof_scope(prof::Phase::kDecaySweep);
  std::uint64_t initiated = 0;
  // The engine yields the genuinely expired lines in line-index order —
  // the same order the old full-array sweep visited lines — so the
  // turn-off events (and the bus traffic they cause) are scheduled in an
  // identical order. What remains here is the L2's legality gates and the
  // Figure-2 choreography.
  level_.for_each_expired(now, [&](LineT ln, std::size_t line_index) {
    Payload& p = ln.payload();
    if (!coherence::is_stationary(p.state) || p.fetching || p.upgrading ||
        // Table I gate: a line with a pending write in the L1 write buffer
        // must not be switched off.
        upper_->pending_write(ln.tag())) {
      level_.defer_to_next_tick(ln, line_index, now);
      return;
    }

    const Addr line_addr = ln.tag();
    switch (coherence::classify_turnoff(protocol_, p.state)) {
      case coherence::TurnOffClass::kCleanTurnOff:
        p.state = MesiState::kTransientClean;
        ++initiated;
        eq_.schedule_in(cfg_.l1_inval_latency,
                        [this, line_addr] { turn_off_clean(line_addr); });
        break;
      case coherence::TurnOffClass::kDirtyTurnOff: {
        p.state = MesiState::kTransientDirty;
        p.td_wb_ticket = ++td_wb_tickets_;
        ++initiated;
        eq_.schedule_in(cfg_.l1_inval_latency,
                        [this, line_addr] { turn_off_dirty(line_addr); });
        break;
      }
      case coherence::TurnOffClass::kOwnedTurnOff: {
        // §III: "considering the Owned state of the MOESI, other copies
        // must be invalidated before a line is turned off."
        p.state = MesiState::kTransientDirty;
        p.td_wb_ticket = ++td_wb_tickets_;
        ++initiated;
        eq_.schedule_in(cfg_.l1_inval_latency,
                        [this, line_addr] { turn_off_owned(line_addr); });
        break;
      }
      case coherence::TurnOffClass::kIgnore:
        break;  // unreachable for stationary states; defensive
    }
  });
  if (trace_ != nullptr && initiated > 0) {
    trace_->instant(trace_track_, "decay.sweep", now, "turnoffs", initiated);
  }
}

void L2Cache::turn_off_clean(Addr line_addr) {
  LineT ln = level_.tags().find(line_addr);
  // A snoop or eviction may have finished the line off already.
  if (!ln || ln.payload().state != MesiState::kTransientClean) return;
  upper_->back_invalidate(line_addr);
  level_.note_turnoff(line_addr);
  line_off(ln);
  if (trace_ != nullptr) {
    trace_->instant(trace_track_, "toff.clean", eq_.now(), "line", line_addr);
  }
  // §III turn-off legality, directory form: a decayed line may be dropped
  // without data traffic exactly because it is clean — tell the home so
  // the sharer bitmap (and the PutE/PutS legality check) stays exact.
  ic_.note_clean_drop(core_, line_addr);
}

void L2Cache::turn_off_dirty(Addr line_addr) {
  LineT ln = level_.tags().find(line_addr);
  if (!ln || ln.payload().state != MesiState::kTransientDirty) return;
  upper_->back_invalidate(line_addr);
  issue_turnoff_writeback(line_addr);
}

void L2Cache::turn_off_owned(Addr line_addr) {
  LineT ln = level_.tags().find(line_addr);
  // A snoop or eviction may have finished the line off already.
  if (!ln || ln.payload().state != MesiState::kTransientDirty) return;
  upper_->back_invalidate(line_addr);

  // Ownership-revocation broadcast: invalidate the remaining S copies
  // system-wide, then flush like a dirty turn-off. The validator drops the
  // broadcast when a snoop already finished this line off (the snoop's
  // flush-and-cancel also cleared the ticket).
  const std::uint64_t ticket = ln.payload().td_wb_ticket;
  CDSIM_ASSERT(ticket != 0);
  noc::RequestHooks hooks;
  hooks.validator = [this, line_addr, ticket] {
    return td_wb_live(line_addr, ticket);
  };
  hooks.on_done = [this, line_addr](const noc::BusResult&) {
    issue_turnoff_writeback(line_addr);
  };
  ic_.request(BusTxKind::kBusUpgr, line_addr, core_, /*bytes=*/0,
               std::move(hooks));
}

void L2Cache::issue_turnoff_writeback(Addr line_addr) {
  LineT ln = level_.tags().find(line_addr);
  if (!ln || ln.payload().state != MesiState::kTransientDirty) {
    return;  // finished via snoop/eviction while this step was in flight
  }

  if (lose_decay_writeback_) {
    // Injected fault (inject_lost_decay_writeback): drop the dirty data on
    // the floor. Timing-wise this looks like a clean turn-off; memory
    // keeps its stale copy, which is exactly the wrong-data bug the
    // differential oracle must catch (and the internal invariants
    // cannot). The buggy controller also reports the drop as clean —
    // under the directory that releases ownership, so the stale refetch
    // (the divergence) happens instead of a home deferral waiting forever
    // for the write-back this fault just swallowed.
    level_.note_turnoff(line_addr);
    line_off(ln);
    ic_.note_clean_drop(core_, line_addr);
    return;
  }

  // Flush on the bus (Grant/Flush edge); the validator lets a snoop that
  // already moved the data cancel this write-back.
  const std::uint64_t ticket = ln.payload().td_wb_ticket;
  CDSIM_ASSERT(ticket != 0);
  if (obs_) obs_->on_writeback_initiated(core_, line_addr, eq_.now());
  noc::RequestHooks hooks;
  hooks.validator = [this, line_addr, ticket] {
    return td_wb_live(line_addr, ticket);
  };
  hooks.on_done = [this, line_addr](const noc::BusResult&) {
    LineT l2 = level_.tags().find(line_addr);
    if (!l2 || l2.payload().state != MesiState::kTransientDirty) {
      return;  // finished via snoop/eviction while the flush was queued
    }
    level_.note_turnoff(line_addr);
    level_.stats().writebacks.inc();
    line_off(l2);
    if (trace_ != nullptr) {
      trace_->instant(trace_track_, "toff.dirty", eq_.now(), "line",
                      line_addr);
    }
    // Dirty turn-off complete: the flushed copy is off. The directory kept
    // the TD line tracked across the write-back grant (it stays snoopable
    // until this instant) and releases it here; the bus ignores the note.
    ic_.note_clean_drop(core_, line_addr);
  };
  ic_.request(BusTxKind::kWriteBack, line_addr, core_,
              level_.geometry().line_bytes(), std::move(hooks));
}

}  // namespace cdsim::sim
