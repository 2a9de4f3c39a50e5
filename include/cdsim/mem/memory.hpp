#pragma once
// Main-memory models behind the fabrics' one memory seam.
//
// Two models share one facade (MemoryController), selected by
// MemoryConfig.model:
//
//   * kFlat — the historical fixed-latency, bandwidth-limited channel. The
//     external bus is where the paper's Figure 4(a) metric lives: decay
//     refetches and turn-off write-backs all cross it, so the controller
//     counts every byte in each direction. Flat-mode timing is bit-exact
//     with the pre-DRAM simulator (all golden pins hold).
//   * kDram — channels -> ranks -> banks with per-bank open-row state,
//     row-buffer hit/miss/conflict timing (tCAS / tRCD+tCAS /
//     tRP+tRCD+tCAS), an FR-FCFS scheduler over a bounded per-channel
//     request queue, and a periodic (lazily applied) refresh.
//
// Fabrics issue every request through MemoryController::read/write and
// never ask which model serves it. The MemCallback receives the completion
// cycle as soon as the model knows it: the flat channel computes it and
// calls back before read/write returns (with a cycle in the future), DRAM
// calls back from its service event (at that cycle). mem::resume_at turns
// either into "continue at the completion cycle" with no extra event.
//
// Oracle threading (kDram): the differential checker's memory shadow is
// updated at write-back *grant* time, before the DRAM write is serviced. A
// read arriving while an older write to the same line is still queued is
// therefore served from the queue (write forwarding) instead of the bank —
// a younger read can never bypass an older queued write and observe the
// pre-write version. See DESIGN.md §9.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "cdsim/common/assert.hpp"
#include "cdsim/common/event_queue.hpp"
#include "cdsim/common/small_fn.hpp"
#include "cdsim/common/stats.hpp"
#include "cdsim/common/types.hpp"
#include "cdsim/obs/trace_recorder.hpp"

namespace cdsim::mem {

/// Which memory model serves the channel (MemoryConfig.model).
enum class MemoryModel : std::uint8_t {
  kFlat,  ///< Fixed latency + bandwidth-limited channel (the paper's sink).
  kDram,  ///< Banked DRAM with row-buffer timing and FR-FCFS scheduling.
};

constexpr std::string_view to_string(MemoryModel m) noexcept {
  return m == MemoryModel::kFlat ? "flat" : "dram";
}

/// DRAM geometry and timing (kDram only). Timings are in *core* cycles; the
/// defaults approximate DDR-class parts behind a ~3.5 GHz core (one DRAM
/// clock ~ 9 core cycles, tRCD/tRP/tCAS ~ 13-14 DRAM clocks).
struct DramConfig {
  std::uint32_t channels = 2;
  std::uint32_t ranks_per_channel = 2;
  std::uint32_t banks_per_rank = 8;
  /// Row-buffer size per bank; consecutive interleave units of one channel
  /// stay in one row, so streaming traffic earns row hits.
  std::uint32_t row_bytes = 2048;
  /// Channel-interleave granularity (one cache line by default).
  std::uint32_t interleave_bytes = 64;
  /// Bounded FR-FCFS scheduling window per channel. An arrival that finds
  /// it full waits in a spill the scheduler cannot see, refilled into the
  /// window in order only right before the next pick; an arrival that
  /// finds room enters at once, ahead of older spilled requests, which
  /// starvation_limit does not cover (a known fault, DESIGN §9).
  std::uint32_t queue_depth = 16;
  /// A row-hit may bypass the oldest request at most this many times
  /// before oldest-first is forced (FR-FCFS starvation cap).
  std::uint32_t starvation_limit = 4;
  Cycle t_rcd = 40;  ///< Activate (row open) to column command.
  Cycle t_rp = 40;   ///< Precharge (row close) latency.
  Cycle t_cas = 35;  ///< Column access to first data beat.
  /// Refresh interval (tREFI): one refresh per channel every t_refi
  /// cycles, applied lazily (no events while idle). 0 disables refresh.
  Cycle t_refi = 27300;
  /// Refresh cycle time (tRFC): every bank of the channel is unavailable
  /// this long per refresh, and all open rows close.
  Cycle t_rfc = 1225;
};

/// Per-core TLB in front of the hierarchy (page granularity, fixed
/// miss-walk latency). Disabled by default: the flat golden pins predate
/// address translation.
struct TlbConfig {
  bool enabled = false;
  std::uint32_t entries = 64;
  std::uint32_t page_bytes = 4096;
  Cycle miss_walk_latency = 60;
};

struct MemoryConfig {
  MemoryModel model = MemoryModel::kFlat;
  /// kFlat: core cycles from channel issue to first data beat (row
  /// activation, controller queuing not included — queuing is modeled
  /// explicitly).
  Cycle read_latency = 130;
  /// Channel bandwidth in bytes per core cycle (both directions share it).
  std::uint32_t bytes_per_cycle = 16;
  /// Writes are posted: the issuer never waits for them, but they occupy
  /// channel bandwidth and are counted as traffic. When false, write-back
  /// completions wait for the memory write to finish.
  bool posted_writes = true;
  DramConfig dram;  ///< kDram only.
  TlbConfig tlb;    ///< Per-core TLBs (CmpSystem interposes them).
};

/// kDram service counters (all zero under kFlat).
struct DramStats {
  std::uint64_t row_hits = 0;       ///< Open-row column accesses (tCAS).
  std::uint64_t row_misses = 0;     ///< Closed-bank activates (tRCD+tCAS).
  std::uint64_t row_conflicts = 0;  ///< Open-row replacements (tRP+tRCD+tCAS).
  std::uint64_t activates = 0;
  std::uint64_t precharges = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t write_forwards = 0;  ///< Reads served from a queued write.
};

/// Completion callback of a memory request; invoked with the cycle the data
/// is fully available (reads) or the write is absorbed (writes). Inline
/// budget fits the bus's completion continuation (an on_done SmallFn plus
/// a BusResult).
using MemCallback = SmallFn<void(Cycle), 96>;

/// Continues a memory completion at cycle `t`: runs `fn` now when `t` is
/// the current cycle (a DRAM service event), else schedules it at `t` (the
/// flat channel reports completions ahead of time). Either way `fn` runs at
/// cycle `t` in the position a completion event would give it.
template <typename F>
void resume_at(EventQueue& eq, Cycle t, F&& fn) {
  if (t == eq.now()) {
    fn();
  } else {
    eq.schedule_at(t, std::forward<F>(fn));
  }
}

/// The banked-DRAM engine (MemoryConfig.model == kDram). Owns per-channel
/// FR-FCFS queues, per-bank open-row state, and the lazy refresh clock;
/// requests are issued with read()/write() and complete via MemCallback at
/// their true service cycle. Channels serialize one command at a time
/// (bank-level overlap is folded into the per-request access latency — a
/// documented simplification, see DESIGN.md §9).
class DramController {
 public:
  DramController(EventQueue& eq, const MemoryConfig& cfg);

  DramController(const DramController&) = delete;
  DramController& operator=(const DramController&) = delete;

  /// Enqueues a read of `bytes` at `line`, arriving at `start` (>= now).
  /// `cb` fires at the service completion cycle. A queued older write to
  /// the same line serves the read directly (write forwarding).
  void read(Cycle start, std::uint32_t bytes, Addr line, MemCallback cb);

  /// Enqueues a write. `cb` (optional) fires when the write is serviced —
  /// the non-posted completion the issuer can wait on.
  void write(Cycle start, std::uint32_t bytes, Addr line, MemCallback cb);

  [[nodiscard]] const DramStats& stats() const noexcept { return stats_; }

  /// Attaches the timeline recorder (observer-only; nullptr detaches).
  /// Registers one track per channel (refresh catch-ups, write forwarding)
  /// and one per bank (access spans named rd/wr × hit/miss/conflict).
  void set_trace(obs::TraceRecorder* rec);

 private:
  struct Request {
    Addr line = 0;
    std::uint32_t bytes = 0;
    bool is_write = false;
    std::uint32_t bypassed = 0;  ///< FR-FCFS bypass count (oldest only).
    std::uint32_t bank = 0;      ///< Decoded once, at channel arrival.
    std::uint64_t row = 0;
    MemCallback cb;
  };
  struct Bank {
    std::int64_t open_row = -1;  ///< -1: precharged (no open row).
    Cycle ready = 0;             ///< Bank busy until here (incl. refresh).
  };
  struct Channel {
    std::deque<Request> queue;  ///< The scheduler's bounded window.
    /// Overflow beyond queue_depth, moved into the window in order at each
    /// pick; a later arrival that finds the window with room enters first.
    std::deque<Request> spill;
    std::vector<Bank> banks;
    Cycle data_free = 0;  ///< Channel data bus busy until here.
    bool busy = false;    ///< A command is in service.
    /// The in-service command's completion callback. It waits here, not in
    /// the completion event's capture, which would overflow the event's
    /// inline buffer and heap-allocate once per command.
    MemCallback in_service;
    std::uint64_t refreshes_applied = 0;
  };
  struct Decoded {
    std::uint32_t channel = 0;
    std::uint32_t bank = 0;
    std::uint64_t row = 0;
  };

  [[nodiscard]] Decoded decode(Addr line) const noexcept;
  [[nodiscard]] Cycle transfer_cycles(std::uint32_t bytes) const noexcept;
  void issue(Cycle start, Request req);
  void arrive(Request req);
  void apply_refresh(std::size_t ci, Cycle now);
  void pump(std::size_t ci);

  EventQueue& eq_;
  MemoryConfig cfg_;
  /// std::deque, not vector: Channel holds move-only request queues and a
  /// deque grows without relocating (no noexcept-move requirement).
  std::deque<Channel> channels_;
  DramStats stats_;
  obs::TraceRecorder* trace_ = nullptr;
  std::vector<obs::TrackId> channel_tracks_;  ///< [channel]
  std::vector<obs::TrackId> bank_tracks_;     ///< [channel * banks + bank]
};

/// The memory-side facade every fabric talks to: one read and one write,
/// each completing through a MemCallback (see the file comment).
///
/// kFlat: the channel serializes transfers in start order — each request
/// occupies it for ceil(bytes / bytes_per_cycle) cycles from max(start,
/// the end of the previous transfer); starts never decrease (every caller
/// issues at now() plus a fixed offset). Reads additionally pay
/// `read_latency` before their data is available.
/// kDram: requests are forwarded to the DramController.
class MemoryController {
 public:
  MemoryController(EventQueue& eq, const MemoryConfig& cfg)
      : eq_(eq), cfg_(cfg) {
    CDSIM_ASSERT(cfg.bytes_per_cycle >= 1);
    if (cfg_.model == MemoryModel::kDram) {
      dram_ = std::make_unique<DramController>(eq, cfg_);
    }
  }

  /// Reads `bytes` of `line`, arriving at the channel at `start` (>= now).
  /// `cb` (may be empty) receives the cycle the data is fully available.
  void read(Cycle start, std::uint32_t bytes, Addr line, MemCallback cb) {
    access(/*is_write=*/false, start, bytes, line, std::move(cb));
  }

  /// Writes `bytes` of `line` at `start`. `cb` (empty for posted writes)
  /// receives the cycle memory has absorbed the write — the completion a
  /// non-posted issuer waits on.
  void write(Cycle start, std::uint32_t bytes, Addr line, MemCallback cb) {
    access(/*is_write=*/true, start, bytes, line, std::move(cb));
  }

  /// Attaches the timeline recorder (kDram only — the flat channel is a
  /// latency formula with no per-event structure worth a timeline; a kFlat
  /// call is a deliberate no-op). Observer-only; nullptr detaches.
  void set_trace(obs::TraceRecorder* rec) {
    if (dram_ != nullptr) dram_->set_trace(rec);
  }

  /// kDram service counters (all zero under kFlat).
  [[nodiscard]] const DramStats& dram_stats() const noexcept {
    static constexpr DramStats kEmpty{};
    return dram_ != nullptr ? dram_->stats() : kEmpty;
  }

  // --- traffic accounting (both models) ------------------------------------

  [[nodiscard]] std::uint64_t bytes_read() const noexcept {
    return bytes_read_.value();
  }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_written_.value();
  }
  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return bytes_read() + bytes_written();
  }
  [[nodiscard]] std::uint64_t read_count() const noexcept {
    return reads_.value();
  }
  [[nodiscard]] std::uint64_t write_count() const noexcept {
    return writes_.value();
  }

  /// Average bytes per cycle moved over [0, now] — the Fig. 4(a) numerator.
  [[nodiscard]] double bandwidth(Cycle now) const {
    return safe_div(static_cast<double>(total_bytes()),
                    static_cast<double>(now));
  }

  [[nodiscard]] const MemoryConfig& config() const noexcept { return cfg_; }

 private:
  /// The one request path. A zero-byte request moves nothing on either
  /// model: no traffic, no counters, complete at max(start, now).
  void access(bool is_write, Cycle start, std::uint32_t bytes, Addr line,
              MemCallback cb) {
    if (bytes == 0) {
      if (cb) cb(std::max(start, eq_.now()));
      return;
    }
    (is_write ? writes_ : reads_).inc();
    (is_write ? bytes_written_ : bytes_read_).inc(bytes);
    if (dram_ != nullptr) {
      if (is_write) {
        dram_->write(start, bytes, line, std::move(cb));
      } else {
        dram_->read(start, bytes, line, std::move(cb));
      }
      return;
    }
    Cycle done = claim_channel(start, bytes) + transfer_cycles(bytes);
    if (!is_write) done += cfg_.read_latency;
    if (cb) cb(done);
  }

  [[nodiscard]] Cycle transfer_cycles(std::uint32_t bytes) const noexcept {
    return (bytes + cfg_.bytes_per_cycle - 1) / cfg_.bytes_per_cycle;
  }

  /// Start-ordered channel arbitration: the transfer begins at
  /// max(start, end of the previous transfer).
  Cycle claim_channel(Cycle start, std::uint32_t bytes) {
    CDSIM_ASSERT(bytes > 0);
    CDSIM_ASSERT_MSG(start >= last_start_,
                     "flat-channel claims must arrive in start order");
    last_start_ = start;
    const Cycle begin = std::max(start, free_at_);
    free_at_ = begin + transfer_cycles(bytes);
    return begin;
  }

  EventQueue& eq_;
  MemoryConfig cfg_;
  std::unique_ptr<DramController> dram_;  ///< kDram only (else null).
  Cycle free_at_ = 0;     ///< Flat channel busy until here.
  Cycle last_start_ = 0;  ///< Latest flat-channel claim start.
  Counter reads_, writes_, bytes_read_, bytes_written_;
};

}  // namespace cdsim::mem
