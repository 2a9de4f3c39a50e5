#include "cdsim/sim/l3_cache.hpp"

#include <utility>

#include "cdsim/common/assert.hpp"
#include "cdsim/common/host_timer.hpp"

namespace cdsim::sim {

using coherence::MesiState;

L3Cache::L3Cache(EventQueue& eq, const L3Config& cfg, std::uint64_t bank_bytes,
                 std::uint32_t line_bytes, const decay::DecayConfig& dcfg,
                 std::uint32_t num_banks)
    : eq_(eq) {
  CDSIM_ASSERT(num_banks >= 1);
  const cache::Geometry geo(bank_bytes, line_bytes, cfg.ways);
  banks_.reserve(num_banks);
  for (std::uint32_t b = 0; b < num_banks; ++b) {
    banks_.push_back(std::make_unique<Level>(
        eq, geo, cfg.hit_latency, dcfg,
        [this, b](Cycle now) { decay_sweep(b, now); }));
  }
}

void L3Cache::start() {
  for (auto& b : banks_) b->start();
}

void L3Cache::stop() {
  for (auto& b : banks_) b->stop();
}

// ---------------------------------------------------------------------------
// Line death / memory push
// ---------------------------------------------------------------------------

void L3Cache::line_off(Level& b, LineT ln) {
  CDSIM_ASSERT(ln.valid());
  if (obs_) obs_->on_l3_invalidate(ln.tag(), eq_.now());
  ln.payload().dirty = false;
  b.drop(ln);
}

void L3Cache::push_to_memory(std::uint32_t bank, Addr line) {
  CDSIM_ASSERT_MSG(mem_port_ != nullptr, "L3 memory port not connected");
  if (obs_) obs_->on_l3_writeback(line, eq_.now());
  if (trace_ != nullptr) {
    trace_->instant(trace_track_, "wb.mem", eq_.now(), "line", line);
  }
  mem_port_(bank, line, banks_[bank]->geometry().line_bytes());
}

void L3Cache::evict(std::uint32_t bank, LineT victim) {
  Level& b = *banks_[bank];
  b.stats().evictions.inc();
  if (victim.payload().dirty) {
    // §III legality at the last level: dirty data the channel never saw
    // must reach memory before the line may die.
    b.stats().writebacks.inc();
    push_to_memory(bank, victim.tag());
  }
  line_off(b, victim);
}

// ---------------------------------------------------------------------------
// noc::MemorySideCache
// ---------------------------------------------------------------------------

bool L3Cache::lookup_for_fill(std::uint32_t bank, Addr line) {
  Level& b = *banks_.at(bank);
  LineT ln = b.tags().find(line);
  if (!ln) {
    b.note_miss(line, /*is_write=*/false);
    return false;
  }
  b.stats().read_hits.inc();
  b.touch(ln);
  return true;
}

void L3Cache::install_from_memory(std::uint32_t bank, Addr line) {
  Level& b = *banks_.at(bank);
  if (LineT ln = b.tags().find(line)) {
    // A same-line fill raced this one through the channel (the first
    // install landed before the second read returned): just refresh.
    b.touch(ln);
    return;
  }
  const LineT slot = b.tags().pick_victim(line);
  if (slot.valid()) evict(bank, slot);

  // A clean bank line is the L3 analogue of Shared: cheap to drop, so
  // both decay flavours arm it.
  b.fill(slot, line, Payload{}, MesiState::kShared);
  b.fills().inc();
  if (obs_) obs_->on_l3_install(line, eq_.now());
}

void L3Cache::absorb_writeback(std::uint32_t bank, Addr line) {
  Level& b = *banks_.at(bank);
  if (LineT ln = b.tags().find(line)) {
    // Overwrite in place: the write-back data supersedes whatever the bank
    // held (a clean copy, or an earlier absorbed version).
    b.stats().write_hits.inc();
    ln.payload().dirty = true;
    b.arm_on_entry(ln.payload().decay, MesiState::kModified);
    b.touch(ln);
    return;
  }
  // An allocating absorb is a write "miss" for occupancy bookkeeping, but
  // NOT a decay-attributable one: absorbing allocates at zero latency and
  // zero traffic either way, so a preceding decay drop cost nothing here.
  // Bypassing note_miss leaves any attribution entry for this line to the
  // next genuine fill miss (the event that actually pays a refetch).
  b.stats().write_misses.inc();
  const LineT slot = b.tags().pick_victim(line);
  if (slot.valid()) evict(bank, slot);

  // Dirty is the L3 analogue of Modified: Selective Decay disarms it (its
  // turn-off costs a memory write), full Decay arms everything.
  b.fill(slot, line, Payload{.decay = {}, .dirty = true},
         MesiState::kModified);
  b.fills().inc();
  // No on_l3_install here: the verifier recorded the absorbed version at
  // on_writeback_resolved(to_l3=true); an install event would wrongly
  // overwrite it with the (stale) memory version.
}

void L3Cache::invalidate(std::uint32_t bank, Addr line) {
  Level& b = *banks_.at(bank);
  if (LineT ln = b.tags().find(line)) {
    // A memory-updating owner flush just overwrote the channel copy: the
    // bank's copy — even a dirty one — is older and must not serve again.
    b.stats().coherence_invals.inc();
    line_off(b, ln);
  }
}

// ---------------------------------------------------------------------------
// Decay at the last level
// ---------------------------------------------------------------------------

void L3Cache::decay_sweep(std::uint32_t bank, Cycle now) {
  const prof::ScopedPhase prof_scope(prof::Phase::kDecaySweep);
  Level& b = *banks_[bank];
  std::uint64_t swept = 0;
  b.for_each_expired(now, [&](LineT ln, std::size_t /*line_index*/) {
    // The home bank is the serialization point, so the Figure-2 transient
    // choreography degenerates: no snooper can race this turn-off.
    b.note_turnoff(ln.tag());
    if (ln.payload().dirty) {
      // Dirty turn-off: the absorbed write-back must reach memory.
      b.stats().writebacks.inc();
      push_to_memory(bank, ln.tag());
    }
    // Clean turn-off: silent drop — memory already holds the data.
    line_off(b, ln);
    ++swept;
  });
  if (trace_ != nullptr && swept > 0) {
    trace_->instant(trace_track_, "decay.sweep", now, "bank", bank);
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

cache::LevelCounters L3Cache::counters(Cycle now,
                                      decay::Technique technique) const {
  cache::LevelCounters sum;
  for (const auto& b : banks_) sum += b->counters(now, technique);
  return sum;
}

bool L3Cache::has_line(std::uint32_t bank, Addr line) const {
  return static_cast<bool>(banks_.at(bank)->tags().find(line));
}

bool L3Cache::line_dirty(std::uint32_t bank, Addr line) const {
  const LineT ln = banks_.at(bank)->tags().find(line);
  return ln && ln.payload().dirty;
}

}  // namespace cdsim::sim
