#pragma once
// Shared, home-banked L3: the last-level cache of the three-level
// hierarchy, built on the generic cache::CacheLevel engine.
//
// One bank per mesh tile, colocated with the directory home bank that
// serializes every transaction for its lines (noc::MemorySideCache). That
// colocation is what makes decay at this level simple: there are no
// transient TC/TD states because no snooper can reach an L3 copy except
// through the home bank itself — the serialization point and the cache are
// the same place. Section-III turn-off legality therefore degenerates to
// its essence (see DESIGN.md):
//
//   clean bank line:  drop silently, any time — memory holds the data.
//   dirty bank line:  push the line to memory first (the bank absorbed a
//                     write-back the channel never saw), then drop.
//
// The bank is memory-side and non-inclusive: it never tracks upper-level
// copies (the directory does), so dropping a line can never violate
// coherence — the worst case is a refetch from memory. Upper-owner
// staleness is handled by the fabric: a memory-updating owner flush
// invalidates the bank's (older) copy, and fills with a live dirty owner
// never reach the bank at all.

#include <cstdint>
#include <memory>
#include <vector>

#include "cdsim/cache/level.hpp"
#include "cdsim/common/event_queue.hpp"
#include "cdsim/decay/technique.hpp"
#include "cdsim/noc/directory_mesh.hpp"
#include "cdsim/obs/trace_recorder.hpp"
#include "cdsim/verify/observer.hpp"

namespace cdsim::sim {

struct L3Config {
  std::uint32_t ways = 16;
  /// Bank access latency on the fill-serve path (slower, bigger arrays
  /// than the private L2 slices).
  Cycle hit_latency = 24;
};

/// The shared L3: an array of home banks implementing the fabric's
/// memory-side cache interface.
class L3Cache final : public noc::MemorySideCache {
 public:
  /// `bank_bytes` is each bank's capacity (CmpSystem: total_l3_bytes /
  /// num_cores, one bank per tile) and `line_bytes` the machine's line
  /// size, the unit the L2s write back.
  L3Cache(EventQueue& eq, const L3Config& cfg, std::uint64_t bank_bytes,
          std::uint32_t line_bytes, const decay::DecayConfig& dcfg,
          std::uint32_t num_banks);

  L3Cache(const L3Cache&) = delete;
  L3Cache& operator=(const L3Cache&) = delete;

  /// Arms each bank's decay sweeper. Call once after construction.
  void start();
  void stop();

  /// Attaches a differential-verification observer (nullptr detaches).
  void set_observer(verify::AccessObserver* obs) noexcept { obs_ = obs; }

  /// Attaches the timeline recorder (observer-only; nullptr detaches):
  /// per-bank decay-sweep and memory-push instants on one shared track.
  void set_trace(obs::TraceRecorder* rec, obs::TrackId track) noexcept {
    trace_ = rec;
    trace_track_ = track;
  }

  // --- noc::MemorySideCache ------------------------------------------------
  void connect_memory_port(MemWritePort port) override {
    mem_port_ = std::move(port);
  }
  [[nodiscard]] Cycle access_latency() const override {
    return banks_.front()->access_latency();
  }
  bool lookup_for_fill(std::uint32_t bank, Addr line) override;
  void install_from_memory(std::uint32_t bank, Addr line) override;
  void absorb_writeback(std::uint32_t bank, Addr line) override;
  void invalidate(std::uint32_t bank, Addr line) override;

  // --- decay ----------------------------------------------------------------
  void decay_sweep(std::uint32_t bank, Cycle now);

  // --- introspection --------------------------------------------------------
  [[nodiscard]] std::uint32_t num_banks() const noexcept {
    return static_cast<std::uint32_t>(banks_.size());
  }
  [[nodiscard]] const cache::CacheStats& bank_stats(std::uint32_t b) const {
    return banks_.at(b)->stats();
  }
  /// The whole L3's counter snapshot, booked as under `technique`: every
  /// bank's, summed in bank order.
  [[nodiscard]] cache::LevelCounters counters(
      Cycle now, decay::Technique technique) const;

  /// Test hook: whether a bank holds `line`, and whether it is dirty.
  [[nodiscard]] bool has_line(std::uint32_t bank, Addr line) const;
  [[nodiscard]] bool line_dirty(std::uint32_t bank, Addr line) const;

 private:
  struct Payload {
    decay::LineDecayState decay;
    /// The bank absorbed a write-back the memory channel never saw.
    bool dirty = false;
  };
  using Level = cache::CacheLevel<Payload>;
  using LineT = cache::LineRef<Payload>;

  void line_off(Level& b, LineT ln);
  void evict(std::uint32_t bank, LineT victim);
  void push_to_memory(std::uint32_t bank, Addr line);

  EventQueue& eq_;
  verify::AccessObserver* obs_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  obs::TrackId trace_track_ = 0;
  MemWritePort mem_port_;
  std::vector<std::unique_ptr<Level>> banks_;
};

// Fail here, at the implementation, if the fabric interface grows a member
// L3Cache does not override — not at the make_unique in cmp_system.
static_assert(noc::MemorySideCacheImpl<L3Cache>,
              "L3Cache must implement every noc::MemorySideCache virtual "
              "(is the class abstract after an interface change?)");

}  // namespace cdsim::sim
