#pragma once
// Private L1 data cache: write-through, no-write-allocate, inclusive under
// the private L2 (the paper's §III design point, chosen there "for ease of
// design" of the turn-off mechanism).
//
// Built on the generic cache::CacheLevel engine (cache/level.hpp): the tag
// array, line lifecycle, statistics, and — when enabled — the decay sweeper
// come from the engine; this controller owns its MSHR file and write
// buffer and keeps the write-through drain choreography and the
// core-facing port.
//
// Responsibilities:
//  * serve core loads (hit latency or miss via L2 read + fill);
//  * retire core stores through the coalescing write buffer, which drains
//    to the L2 as PrWr operations — this is why "the operations on the L2
//    are mostly writes" (§VI);
//  * accept back-invalidations from the L2 (inclusion on eviction,
//    coherence invalidation, and line turn-off);
//  * expose the write buffer to the L2's turn-off logic (the Table I
//    "pending write" gate);
//  * optionally run decay at level 1: every L1 line is clean by
//    construction (write-through), so §III legality reduces to "drop
//    silently unless a buffered store to the line has not reached the L2
//    yet" — the level-1 form of the Table I pending-write gate.

#include <cstdint>

#include "cdsim/cache/cache_stats.hpp"
#include "cdsim/cache/geometry.hpp"
#include "cdsim/cache/level.hpp"
#include "cdsim/cache/mshr.hpp"
#include "cdsim/cache/tag_array.hpp"
#include "cdsim/cache/write_buffer.hpp"
#include "cdsim/common/event_queue.hpp"
#include "cdsim/common/types.hpp"
#include "cdsim/core/core_model.hpp"
#include "cdsim/decay/technique.hpp"
#include "cdsim/obs/trace_recorder.hpp"
#include "cdsim/verify/observer.hpp"

namespace cdsim::sim {

class L2Cache;  // the level below (l2_cache.hpp)

struct L1Config {
  std::uint64_t size_bytes = 32 * KiB;
  std::uint32_t ways = 4;
  Cycle hit_latency = 2;   ///< Must be >= 1 (callbacks are always async).
  std::uint32_t mshr_entries = 16;
  std::uint32_t write_buffer_entries = 12;
  /// Pause between consecutive write-buffer drains to the L2 port.
  Cycle drain_interval = 1;
  /// Concurrent drains in flight (store-miss MLP): a write-allocate miss on
  /// one buffered line must not head-of-line-block the others.
  std::uint32_t max_drains_in_flight = 8;
};

/// Per-core L1 data cache controller. Implements the core-facing
/// LoadStorePort and the L2-facing inclusion hooks.
class L1Cache final : public core::LoadStorePort {
 public:
  /// `line_bytes` is the machine's line size (the L2's). `dcfg` enables
  /// decay at this level (default: always-on baseline, the historical
  /// behavior).
  L1Cache(EventQueue& eq, const L1Config& cfg, std::uint32_t line_bytes,
          CoreId core, const decay::DecayConfig& dcfg = {});

  /// Arms the decay sweeper (no-op without an L1 decay technique).
  void start();
  /// Stops the sweeper (simulation teardown).
  void stop();

  /// Wires the level below. Must be called before any access.
  void connect_l2(L2Cache* l2) { l2_ = l2; }

  /// Attaches a differential-verification observer (nullptr detaches).
  void set_observer(verify::AccessObserver* obs) noexcept { obs_ = obs; }

  /// Attaches the timeline recorder (observer-only; nullptr detaches):
  /// write-buffer drain spans, decay-sweep and back-invalidation instants.
  void set_trace(obs::TraceRecorder* rec, obs::TrackId track) noexcept {
    trace_ = rec;
    trace_track_ = track;
  }

  // --- core-facing (LoadStorePort) ----------------------------------------
  core::LoadOutcome try_load(Addr addr, core::LoadCallback on_done) override;
  bool try_store(Addr addr) override;
  void set_resources_freed(core::FreedCallback cb) override {
    resources_freed_ = std::move(cb);
  }

  // --- L2-facing ------------------------------------------------------------
  /// Invalidates the L1 copy of `line_addr` (inclusion). Called on L2
  /// eviction, coherence invalidation, and line turn-off.
  void back_invalidate(Addr line_addr);

  /// True when a buffered store to `line_addr` has not drained yet —
  /// the paper's Table I "pending write" condition.
  [[nodiscard]] bool pending_write(Addr line_addr) const {
    return wb_.pending_to(line_addr);
  }

  // --- decay ----------------------------------------------------------------
  /// Periodic sweep: silently turns off expired (always-clean) lines.
  void decay_sweep(Cycle now);

  // --- introspection ----------------------------------------------------------
  [[nodiscard]] const cache::CacheStats& stats() const noexcept {
    return level_.stats();
  }
  [[nodiscard]] const cache::WriteBuffer& write_buffer() const noexcept {
    return wb_;
  }
  [[nodiscard]] bool has_line(Addr line_addr) const {
    return static_cast<bool>(level_.tags().find(line_addr));
  }
  /// Test/checker hook: visits every valid line's address.
  template <typename Fn>
  void for_each_valid_line(Fn&& fn) const {
    const_cast<cache::TagArray<Payload>&>(level_.tags())
        .for_each_valid([&](cache::LineRef<Payload> ln) { fn(ln.tag()); });
  }
  [[nodiscard]] CoreId core() const noexcept { return core_; }
  /// Counter snapshot for the energy model and the end-of-run metrics,
  /// booked as under `technique` (cache::CacheLevel::counters).
  [[nodiscard]] cache::LevelCounters counters(
      Cycle now, decay::Technique technique) const {
    return level_.counters(now, technique);
  }

 private:
  struct Payload {
    decay::LineDecayState decay;
  };
  using Level = cache::CacheLevel<Payload>;
  using LineT = cache::LineRef<Payload>;

  void drain_write_buffer();
  void notify_resources_freed();

  EventQueue& eq_;
  L1Config cfg_;
  CoreId core_ = 0;
  L2Cache* l2_ = nullptr;
  verify::AccessObserver* obs_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  obs::TrackId trace_track_ = 0;

  /// The level-agnostic engine: tags, line lifecycle, decay, stats.
  Level level_;
  cache::MshrFile mshr_;
  cache::WriteBuffer wb_;
  std::uint32_t drains_in_flight_ = 0;

  core::FreedCallback resources_freed_;
};

}  // namespace cdsim::sim
