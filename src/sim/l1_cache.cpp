#include "cdsim/sim/l1_cache.hpp"

#include "cdsim/common/assert.hpp"
#include "cdsim/common/host_timer.hpp"
#include "cdsim/sim/l2_cache.hpp"

namespace cdsim::sim {

L1Cache::L1Cache(EventQueue& eq, const L1Config& cfg, std::uint32_t line_bytes,
                 CoreId core, const decay::DecayConfig& dcfg)
    : eq_(eq),
      cfg_(cfg),
      core_(core),
      level_(eq, cache::Geometry(cfg.size_bytes, line_bytes, cfg.ways),
             cfg.hit_latency, dcfg, [this](Cycle now) { decay_sweep(now); }),
      mshr_(cfg.mshr_entries),
      wb_(cfg.write_buffer_entries) {
  // The core's load bookkeeping relies on completion callbacks never firing
  // inside try_load itself (the engine asserts hit_latency >= 1 too).
  CDSIM_ASSERT_MSG(cfg_.hit_latency >= 1, "L1 hit latency must be >= 1");
}

void L1Cache::start() { level_.start(); }
void L1Cache::stop() { level_.stop(); }

void L1Cache::notify_resources_freed() {
  if (resources_freed_) resources_freed_();
}

core::LoadOutcome L1Cache::try_load(Addr addr, core::LoadCallback on_done) {
  CDSIM_ASSERT_MSG(l2_ != nullptr, "L1 not connected to an L2");
  const Addr line = level_.geometry().line_addr(addr);

  if (LineT ln = level_.tags().find(line)) {
    // Synchronous hit fast path: no event scheduled, the core accounts the
    // (pipeline-hidden) latency itself.
    level_.stats().read_hits.inc();
    if (obs_) obs_->on_load_hit(core_, line, eq_.now(), /*l1=*/true);
    level_.touch(ln);
    return {.accepted = true,
            .completed = true,
            .latency = level_.access_latency()};
  }

  // Miss. Merge into an outstanding fill when possible.
  if (cache::MshrEntry* e = mshr_.find(line)) {
    level_.note_miss(line, /*is_write=*/false);
    mshr_.merge(*e, /*is_write=*/false, std::move(on_done));
    return {.accepted = true};
  }
  if (mshr_.full()) return {};  // core parks; woken on completion

  level_.note_miss(line, /*is_write=*/false);
  cache::MshrEntry& e = mshr_.allocate(line, /*is_write=*/false, eq_.now());
  mshr_.merge(e, /*is_write=*/false, std::move(on_done));

  l2_->read(line, [this, line](Cycle done, bool may_cache) {
    // Inclusion guard: install only if the backing L2 line is (still)
    // valid at this very moment — a snoop may have invalidated it between
    // the L2's hit decision and this response.
    if (may_cache && coherence::holds_data(l2_->line_state(line))) {
      // Fill the L1 (allocate on read miss). The victim is clean by
      // construction (write-through), so eviction is a silent drop.
      const LineT slot = level_.tags().pick_victim(line);
      if (slot.valid()) {
        level_.stats().evictions.inc();
        level_.drop(slot);
      }
      // Every L1 line is a clean copy: arm as the equivalent of Shared.
      level_.fill(slot, line, Payload{}, coherence::MesiState::kShared);
    }
    mshr_.complete(line, done);
    notify_resources_freed();
  });
  return {.accepted = true};
}

bool L1Cache::try_store(Addr addr) {
  CDSIM_ASSERT_MSG(l2_ != nullptr, "L1 not connected to an L2");
  const Addr line = level_.geometry().line_addr(addr);

  // No-write-allocate: update the L1 copy only when present.
  if (LineT ln = level_.tags().find(line)) {
    level_.stats().write_hits.inc();
    level_.touch(ln);
  } else {
    level_.note_miss(line, /*is_write=*/true);
  }

  // Write-through: every store retires through the write buffer.
  if (!wb_.push(line, eq_.now())) {
    return false;  // buffer full: core parks
  }
  drain_write_buffer();
  return true;
}

void L1Cache::drain_write_buffer() {
  while (drains_in_flight_ < cfg_.max_drains_in_flight) {
    const std::optional<Addr> line = wb_.drain_next();
    if (!line.has_value()) return;
    ++drains_in_flight_;
    const Cycle drain_issued = eq_.now();
    l2_->write(*line, [this, line = *line, drain_issued](Cycle /*done*/,
                                                        bool /*may_cache*/) {
      if (trace_ != nullptr) {
        trace_->span(trace_track_, "wb.drain", drain_issued, eq_.now(),
                     "line", line);
      }
      // The slot is released only once the write reached the L2 — until
      // then pending_write() reports it, which is exactly the Table I gate.
      wb_.drain_done(line);
      --drains_in_flight_;
      notify_resources_freed();
      if (!wb_.empty()) {
        eq_.schedule_in(cfg_.drain_interval,
                        [this] { drain_write_buffer(); });
      }
    });
  }
}

void L1Cache::back_invalidate(Addr line_addr) {
  if (LineT ln = level_.tags().find(line_addr)) {
    level_.drop(ln);
    level_.stats().backinvals.inc();
    if (trace_ != nullptr) {
      trace_->instant(trace_track_, "backinval", eq_.now(), "line",
                      line_addr);
    }
  }
}

// ---------------------------------------------------------------------------
// Decay at level 1
// ---------------------------------------------------------------------------

void L1Cache::decay_sweep(Cycle now) {
  const prof::ScopedPhase prof_scope(prof::Phase::kDecaySweep);
  std::uint64_t swept = 0;
  level_.for_each_expired(now, [&](LineT ln, std::size_t line_index) {
    // Table I at level 1: a line with a buffered store that has not
    // reached the L2 yet must not be switched off (the store would lose
    // its local copy mid-flight). Re-examine next tick.
    if (wb_.pending_to(ln.tag())) {
      level_.defer_to_next_tick(ln, line_index, now);
      return;
    }
    // §III legality at a write-through level: every line is clean, so the
    // turn-off is always a silent drop — no transient states, no traffic.
    // Inclusion is top-down only (the L2 keeps its backing copy), and the
    // differential oracle's copy shadow tracks the L2 slice, so an L1
    // turn-off is not a data-movement event.
    level_.note_turnoff(ln.tag());
    level_.drop(ln);
    ++swept;
  });
  if (trace_ != nullptr && swept > 0) {
    trace_->instant(trace_track_, "decay.sweep", now, "off", swept);
  }
}

}  // namespace cdsim::sim
