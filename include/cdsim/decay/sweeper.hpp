#pragma once
// Periodic decay sweep scheduling and the expiry wheel behind it.
//
// Hardware cache decay uses a cascaded (hierarchical) counter: one global
// counter ticks every decay_time/N cycles and advances saturating 2-bit
// per-line counters; a line whose counter saturates is switched off. The
// observable quantization is therefore: a line dies at the first global
// tick at least decay_time after its last touch.
//
// The original model reproduced this by walking the *entire* tag array
// every tick and testing each line — O(capacity) per tick, the dominant
// simulation cost for large L2s. The ExpiryWheel produces the exact same
// turn-off schedule in O(lines actually due): every armed line registers
// the tick DecayConfig::first_expiry_tick() predicts, and the sweep visits
// only that tick's bucket. Touches do not move registrations (that would
// put a wheel update on the hit path); instead a visited entry whose line
// was touched since registration is lazily re-registered at its new expiry
// tick. Entries are matched to lines by ticket (LineDecayState::
// wheel_ticket), so entries orphaned by eviction or reuse of the slot are
// discarded on visit. Buckets are sorted by line index before processing,
// which reproduces the array-order visitation of the full sweep — the
// turn-off choreography (and therefore every metric) is bit-identical.

#include <algorithm>
#include <utility>
#include <vector>

#include "cdsim/common/event_queue.hpp"
#include "cdsim/common/small_fn.hpp"
#include "cdsim/decay/technique.hpp"

namespace cdsim::decay {

/// Timer wheel over sweep ticks: each bucket holds the lines predicted to
/// reach their decay deadline at that tick. Ring size covers one full decay
/// interval of ticks (plus slack for the ceiling and the next-tick retry of
/// gated lines), so a registration can never collide with an unvisited
/// earlier bucket.
class ExpiryWheel {
 public:
  struct Entry {
    std::uint32_t line_index = 0;
    std::uint64_t ticket = 0;
  };

  ExpiryWheel() = default;

  /// Sizes the ring for `cfg`. No-op (wheel stays disabled) for techniques
  /// without decay.
  void configure(const DecayConfig& cfg) {
    if (!uses_decay(cfg.technique)) return;
    tick_period_ = cfg.tick_period();
    CDSIM_ASSERT(tick_period_ > 0);
    const Cycle ticks_per_interval =
        (cfg.decay_time + tick_period_ - 1) / tick_period_;
    buckets_.assign(static_cast<std::size_t>(ticks_per_interval) + 2, {});
    next_tick_ = tick_period_;
  }

  [[nodiscard]] bool enabled() const noexcept { return !buckets_.empty(); }

  /// Registers `line_index` for the bucket of absolute cycle `expiry_tick`
  /// (a multiple of the tick period, strictly in the future and within one
  /// ring revolution). Returns the nonzero ticket identifying this
  /// registration.
  std::uint64_t add(std::size_t line_index, Cycle expiry_tick) {
    CDSIM_ASSERT(enabled());
    CDSIM_ASSERT_MSG(expiry_tick % tick_period_ == 0 &&
                         expiry_tick >= next_tick_ &&
                         (expiry_tick - next_tick_) / tick_period_ + 1 <
                             buckets_.size(),
                     "expiry tick outside the wheel's horizon");
    const std::uint64_t ticket = next_ticket_++;
    buckets_[static_cast<std::size_t>((expiry_tick / tick_period_) %
                                      buckets_.size())]
        .push_back(Entry{static_cast<std::uint32_t>(line_index), ticket});
    return ticket;
  }

  /// Empties the bucket due at tick `now` into `out`, sorted by line index
  /// (the order a full array sweep would visit them). Must be called once
  /// per tick, in tick order.
  void collect_due(Cycle now, std::vector<Entry>& out) {
    CDSIM_ASSERT(enabled());
    CDSIM_ASSERT_MSG(now == next_tick_, "sweep ticks must not be skipped");
    next_tick_ += tick_period_;
    std::vector<Entry>& bucket =
        buckets_[static_cast<std::size_t>((now / tick_period_) %
                                          buckets_.size())];
    out.clear();
    out.swap(bucket);
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      if (a.line_index != b.line_index) return a.line_index < b.line_index;
      return a.ticket < b.ticket;
    });
  }

  /// Live + stale entries currently in the ring (test/diagnostic hook).
  [[nodiscard]] std::size_t entries() const noexcept {
    std::size_t n = 0;
    for (const auto& b : buckets_) n += b.size();
    return n;
  }

 private:
  std::vector<std::vector<Entry>> buckets_;
  Cycle tick_period_ = 0;
  Cycle next_tick_ = 0;
  std::uint64_t next_ticket_ = 1;
};

/// Schedules the periodic sweep callbacks for one L2 cache.
class DecaySweeper {
 public:
  /// `sweep_fn(now)` must examine the cache and turn off expired lines.
  DecaySweeper(EventQueue& eq, const DecayConfig& cfg,
               SmallFn<void(Cycle)> sweep_fn)
      : eq_(eq), cfg_(cfg), sweep_fn_(std::move(sweep_fn)) {}

  /// Arms the periodic sweep (no-op for techniques without decay). The
  /// sweeper reschedules itself for the lifetime of the event queue; the
  /// `stop()` latch ends it (used at simulation teardown).
  void start() {
    if (!uses_decay(cfg_.technique)) return;
    CDSIM_ASSERT(cfg_.tick_period() > 0);
    arm();
  }

  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] std::uint64_t sweeps_run() const noexcept { return sweeps_; }

 private:
  void arm() {
    eq_.schedule_in(cfg_.tick_period(), [this] {
      if (stopped_) return;
      ++sweeps_;
      sweep_fn_(eq_.now());
      arm();
    });
  }

  EventQueue& eq_;
  DecayConfig cfg_;
  SmallFn<void(Cycle)> sweep_fn_;
  bool stopped_ = false;
  std::uint64_t sweeps_ = 0;
};

}  // namespace cdsim::decay
