#pragma once
// Level-agnostic cache engine: the mechanics every cache level shares.
//
// A cache level — the per-core L1, a private L2 slice, or a shared L3 home
// bank — is built from the same parts: a set-associative tag array, the
// decay sweeper with its expiry wheel, the powered-line time integral
// behind the paper's occupation metric, the decay-attribution map behind
// decay-induced-miss accounting, and the hit/miss statistics. A controller
// composes one CacheLevel and keeps only its protocol choreography —
// MESI/MOESI snooping for a private coherent level, write-through draining
// for the L1 front end, memory-side absorption for the shared L3 — plus
// whatever only it uses (the L1's MSHR file and write buffer, the L2's
// MSHR file and retry backoff). The engine never branches on the protocol
// itself; the per-level turn-off legality rules live in the controllers
// (DESIGN.md §3a).
//
// Line lifecycle. Every line event that the paper's Fig. 3 metrics book
// goes through one engine call, so no level can forget a step:
//   fill(slot, line, payload, arm_as)  into an empty way: stamps the
//       line's last touch, arms decay as on an entry into `arm_as` (§IV),
//       installs the line, registers it with the expiry wheel, powers it
//       on and clears any pending decay attribution for the address;
//   drop(ln)                           invalidates the line and powers it
//       off (eviction victim, invalidation, or the end of a turn-off);
//   note_turnoff(line)                 counts a decay turn-off and
//       remembers the address, so the next miss to it is decay-induced;
//   arm_on_entry(d, to)                re-arms a resident line on a state
//       change (decay::arms_on_entry; `to` is S, E, M or O).
// Non-coherent levels map their line flavor onto the equivalent MESI state
// (clean -> kShared, dirty -> kModified), so the Selective Decay rule means
// the same thing at every level.
//
// Every structure reports through one counter snapshot, LevelCounters:
// CmpSystem's §V energy model and its end-of-run LevelMetrics read every
// level — L1, L2 slice, summed L3 banks — the same way (DESIGN.md §3b).
//
// The Payload template parameter carries the controller's per-line metadata
// and must embed a `decay::LineDecayState decay;` member — the engine owns
// the decay bookkeeping (arming, wheel registration, expiry) uniformly for
// every level.

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <utility>
#include <vector>

#include "cdsim/cache/cache_stats.hpp"
#include "cdsim/cache/geometry.hpp"
#include "cdsim/cache/tag_array.hpp"
#include "cdsim/coherence/mesi.hpp"
#include "cdsim/common/assert.hpp"
#include "cdsim/common/event_queue.hpp"
#include "cdsim/common/line_map.hpp"
#include "cdsim/common/small_fn.hpp"
#include "cdsim/common/stats.hpp"
#include "cdsim/decay/sweeper.hpp"
#include "cdsim/decay/technique.hpp"

namespace cdsim::cache {

/// One structure's counters at an instant `now`: everything the §V energy
/// model and the end-of-run LevelMetrics read. Snapshots of several
/// structures add up to a whole level (operator+=, in structure order).
struct LevelCounters {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t fills = 0;
  std::uint64_t decay_turnoffs = 0;
  std::uint64_t decay_induced_misses = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t coherence_invals = 0;
  std::uint64_t capacity_lines = 0;
  /// Exact time integral of powered lines over [0, now]. For gated
  /// techniques this integrates valid lines; for the baseline every line
  /// is always powered.
  double powered_line_cycles = 0.0;

  LevelCounters& operator+=(const LevelCounters& o) noexcept {
    accesses += o.accesses;
    misses += o.misses;
    fills += o.fills;
    decay_turnoffs += o.decay_turnoffs;
    decay_induced_misses += o.decay_induced_misses;
    writebacks += o.writebacks;
    coherence_invals += o.coherence_invals;
    capacity_lines += o.capacity_lines;
    powered_line_cycles += o.powered_line_cycles;
    return *this;
  }

  /// Powered fraction of the structure(s), time-averaged over [0, now] —
  /// the paper's occupation rate.
  [[nodiscard]] double occupation(Cycle now) const noexcept {
    if (now == 0) return 1.0;
    return powered_line_cycles /
           (static_cast<double>(capacity_lines) * static_cast<double>(now));
  }
};

/// Compile-time contract for CacheLevel's Payload parameter. The engine
/// owns decay bookkeeping (arming, wheel registration, expiry) uniformly
/// for every level, which requires an embedded `decay::LineDecayState
/// decay;` member it can reach by name; payloads are also trivially
/// copyable values whose default state is all zero bytes (tag_array.hpp).
template <typename P>
concept LevelPayload = std::default_initializable<P> &&
                       std::copy_constructible<P> && requires(P p) {
                         { p.decay } -> std::same_as<decay::LineDecayState&>;
                       };

/// The level-agnostic engine. One instance per physical cache structure
/// (per-core L1, per-core L2 slice, per-tile L3 bank).
template <typename Payload>
class CacheLevel {
 public:
  /// Line handle (SoA LineRef, passed by value — see tag_array.hpp).
  using LineT = LineRef<Payload>;

  CacheLevel(EventQueue& eq, const Geometry& geo, Cycle hit_latency,
             const decay::DecayConfig& dcfg, SmallFn<void(Cycle)> sweep_fn)
      : eq_(eq),
        hit_latency_(hit_latency),
        dcfg_(dcfg),
        tags_(geo),
        sweeper_(eq, dcfg, std::move(sweep_fn)) {
    // Checked here, not at class scope: controllers nest their Payload
    // inside themselves, and a nested struct's default member initializers
    // are only usable once the enclosing class is complete — at class
    // scope the concept would spuriously fail for every controller.
    static_assert(LevelPayload<Payload>,
                  "CacheLevel<Payload>: Payload must be "
                  "default-constructible, copyable, and embed a "
                  "`decay::LineDecayState decay;` member — the decay engine "
                  "reaches line state through that field");
    CDSIM_ASSERT(hit_latency_ >= 1);
    wheel_.configure(dcfg_);
  }

  // --- lifecycle ----------------------------------------------------------
  /// Arms the decay sweeper (no-op for non-decay techniques).
  void start() { sweeper_.start(); }
  /// Stops the sweeper (simulation teardown).
  void stop() { sweeper_.stop(); }

  // --- structure access ---------------------------------------------------
  [[nodiscard]] TagArray<Payload>& tags() noexcept { return tags_; }
  [[nodiscard]] const TagArray<Payload>& tags() const noexcept {
    return tags_;
  }
  [[nodiscard]] CacheStats& stats() noexcept { return stats_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Geometry& geometry() const noexcept {
    return tags_.geometry();
  }
  /// Line fills, counted by each controller where its data lands.
  [[nodiscard]] Counter& fills() noexcept { return fills_; }

  // --- timing -------------------------------------------------------------
  /// Effective hit latency: +1 cycle when decay hardware is present
  /// (Gated-Vdd access penalty, paper §V) — at any level that decays.
  [[nodiscard]] Cycle access_latency() const noexcept {
    return hit_latency_ + (decay::uses_decay(dcfg_.technique) ? 1 : 0);
  }

  // --- line lifecycle -----------------------------------------------------
  /// Installs `line` into `slot`, a way from pick_victim that the caller
  /// has already emptied (drop() a valid victim first), with decay armed as
  /// on an entry into `arm_as`.
  LineT fill(LineT slot, Addr line, Payload p, coherence::MesiState arm_as) {
    CDSIM_ASSERT_MSG(!slot.valid(), "fill into a way still holding a line");
    p.decay.last_touch = eq_.now();
    arm_on_entry(p.decay, arm_as);
    const LineT ln = tags_.install(slot, line, std::move(p));
    wheel_register(ln);
    power_on();
    clear_attribution(line);
    return ln;
  }

  /// The line stops holding data: invalidated and powered off. The payload
  /// is left as is (tag_array.hpp); a later fill overwrites it.
  void drop(LineT ln) {
    tags_.invalidate(ln);
    power_off();
  }

  /// A decay turn-off of `line_addr`: counted, and remembered so that the
  /// next miss to the address is attributed to decay (note_miss).
  void note_turnoff(Addr line_addr) {
    stats_.decay_turnoffs.inc();
    decayed_lines_[line_addr] = eq_.now();
  }

  /// Sets the decay-arming bit on a transition *into* `to` (paper §IV).
  void arm_on_entry(decay::LineDecayState& d, coherence::MesiState to) const {
    CDSIM_ASSERT_MSG(coherence::is_stationary(to),
                     "decay arms only on entry into S, E, M or O");
    d.armed = decay::arms_on_entry(dcfg_.technique, to);
  }

  // --- LRU + decay countdown ----------------------------------------------
  /// Marks a line most-recently-used and restarts its decay countdown.
  void touch(LineT ln) {
    tags_.touch(ln);
    ln.payload().decay.last_touch = eq_.now();
    wheel_register(ln);
  }

  /// Registers an armed, unregistered line with the expiry wheel under its
  /// predicted expiry tick. No-op for unarmed/already-registered lines and
  /// non-decay techniques, so it is safe (and cheap) on the hit path.
  void wheel_register(LineT ln) {
    decay::LineDecayState& d = ln.payload().decay;
    if (!d.armed || d.wheel_ticket != 0 || !wheel_.enabled()) return;
    d.wheel_ticket =
        wheel_.add(ln.index(), dcfg_.first_expiry_tick(d.last_touch));
  }

  /// One decay-sweep tick: visits every line whose registration is due and
  /// invokes `fn(line, line_index)` for the genuinely expired ones, in
  /// line-index order. Handles the whole wheel protocol — stale-ticket
  /// discard, ticket clearing, dead/disarmed skips, and the lazy
  /// re-registration of lines touched since they were registered — so a
  /// controller's sweep is only its per-level legality gates and turn-off
  /// choreography. Also ages the attribution map. No-op for non-decay
  /// techniques.
  template <typename Fn>
  void for_each_expired(Cycle now, Fn&& fn) {
    if (!decay::uses_decay(dcfg_.technique)) return;
    age_decay_attribution(now);
    wheel_.collect_due(now, due_scratch_);
    for (const decay::ExpiryWheel::Entry& e : due_scratch_) {
      LineT ln = tags_.line_at(e.line_index);
      decay::LineDecayState& d = ln.payload().decay;
      if (d.wheel_ticket != e.ticket) continue;  // slot was reused
      d.wheel_ticket = 0;
      if (!ln.valid() || !d.armed) continue;  // died or disarmed meanwhile
      if (!dcfg_.expired(d, now)) {
        // Touched since registration: lazily reschedule at the new
        // deadline (registrations are never updated on the hit path).
        wheel_register(ln);
        continue;
      }
      fn(ln, static_cast<std::size_t>(e.line_index));
    }
  }

  /// Re-examines a gated (turn-off-ineligible) expired line at the next
  /// sweep tick — the full-array sweep re-examined gated lines every tick;
  /// this mirrors that.
  void defer_to_next_tick(LineT ln, std::size_t line_index, Cycle now) {
    ln.payload().decay.wheel_ticket =
        wheel_.add(line_index, now + dcfg_.tick_period());
  }

  // --- accounting ---------------------------------------------------------
  /// Currently powered lines.
  [[nodiscard]] std::uint64_t lines_on() const noexcept {
    return static_cast<std::uint64_t>(on_lines_.value());
  }

  /// This structure's counter snapshot at `now`.
  [[nodiscard]] LevelCounters counters(Cycle now) const {
    const std::uint64_t capacity = tags_.capacity_lines();
    return {
        .accesses = stats_.accesses(),
        .misses = stats_.misses(),
        .fills = fills_.value(),
        .decay_turnoffs = stats_.decay_turnoffs.value(),
        .decay_induced_misses = stats_.decay_induced_misses.value(),
        .writebacks = stats_.writebacks.value(),
        .coherence_invals = stats_.coherence_invals.value(),
        .capacity_lines = capacity,
        .powered_line_cycles =
            decay::gates_invalid_lines(dcfg_.technique)
                ? on_lines_.integral(now)
                : static_cast<double>(capacity) * static_cast<double>(now),
    };
  }

  /// Counts a miss and attributes it to a decay turn-off when this line was
  /// recently killed by the sweeper.
  void note_miss(Addr line_addr, bool is_write) {
    if (is_write) {
      stats_.write_misses.inc();
    } else {
      stats_.read_misses.inc();
    }
    if (decayed_lines_.erase(line_addr)) {
      stats_.decay_induced_misses.inc();
      stats_.decay_induced_by_region[(line_addr >> 40) & 7].inc();
    }
  }

  /// Live decay-attribution entries (test/diagnostic hook).
  [[nodiscard]] std::size_t decay_attribution_entries() const noexcept {
    return decayed_lines_.size();
  }

 private:
  static constexpr std::size_t kAttributionMinEntries = 4096;
  static constexpr Cycle kAttributionWindowIntervals = 16;

  void power_on() { on_lines_.add(eq_.now(), +1.0); }
  void power_off() { on_lines_.add(eq_.now(), -1.0); }
  void clear_attribution(Addr line_addr) { decayed_lines_.erase(line_addr); }

  /// Deterministic aging of the attribution map: purges entries older than
  /// kAttributionWindowIntervals full decay intervals once the map reaches
  /// the doubling purge threshold. Driven by simulated time only, so
  /// parallel and serial sweeps stay bit-identical. Within the window the
  /// attribution is exact; a line slot can decay at most once per
  /// decay_time (it must be refilled and sit idle a full interval first),
  /// so live entries are bounded by ~(window + 1) x capacity_lines.
  void age_decay_attribution(Cycle now) {
    if (decayed_lines_.size() < attribution_purge_at_) return;
    const Cycle window = kAttributionWindowIntervals * dcfg_.decay_time;
    decayed_lines_.erase_if(
        [now, window](Addr, Cycle off_at) { return now - off_at > window; });
    attribution_purge_at_ =
        std::max(kAttributionMinEntries, decayed_lines_.size() * 2);
  }

  EventQueue& eq_;
  Cycle hit_latency_ = 0;
  decay::DecayConfig dcfg_;

  TagArray<Payload> tags_;
  decay::DecaySweeper sweeper_;
  /// Expiry wheel feeding the sweep: O(due lines) per tick instead of a
  /// full tag-array walk, with a bit-identical turn-off schedule.
  decay::ExpiryWheel wheel_;
  /// Scratch bucket reused by every sweep tick (no per-tick allocation).
  std::vector<decay::ExpiryWheel::Entry> due_scratch_;

  /// Powered-line count integral (valid lines for gated techniques).
  TimeWeightedValue on_lines_{0.0};

  /// Lines killed by decay (line address -> turn-off cycle), to attribute
  /// later misses to the technique. Entries are consumed by the first
  /// subsequent miss (note_miss) or fill of the same line; stale entries
  /// are purged by age_decay_attribution. The purge and its threshold read
  /// only entry ages and size(), never the table's order.
  LineMap<Cycle> decayed_lines_;
  /// Purge when the map reaches this size (amortizes the O(size) scan).
  std::size_t attribution_purge_at_ = kAttributionMinEntries;

  CacheStats stats_;
  Counter fills_;
};

}  // namespace cdsim::cache
