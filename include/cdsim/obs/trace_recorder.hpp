#pragma once
// Streaming timeline recorder: the timeline half of cdsim::obs.
//
// A TraceRecorder turns instrumentation hooks scattered through the
// simulator (core stalls, cache miss lifetimes, decay sweeps, bus grants,
// DRAM bank activity, TLB walks) into a single .cdtl timeline file, which
// `cdtrace render` turns into Perfetto/chrome://tracing JSON offline. The
// contract mirrors verify::AccessObserver exactly:
//
//   * Observer-only. A recorder never reads back into simulated state and
//     never schedules events; attaching one must leave every RunMetrics
//     double bit-identical (the golden hexfloat pins enforce this).
//   * Null means off. Components hold a raw `obs::TraceRecorder*` that
//     defaults to nullptr and guard every emission with one branch; the
//     disabled cost is that branch and nothing else (bench_kernel gates
//     it).
//   * O(chunk) memory. Events stream through one fixed 64 KiB buffer to
//     the file as they happen — a trace of any length never materializes
//     in memory.
//   * No text on the simulation thread. An emission appends one 40-byte
//     binary record; names are interned by content and written once. The
//     file layout and the JSON it renders to are specified in
//     obs/timeline_file.hpp.
//
// Every track is a timeline row; track() registers its name and emission
// is append-only. One simulated cycle maps to one microsecond of rendered
// trace time, so Perfetto's timeline reads directly in cycles.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cdsim/common/types.hpp"

namespace cdsim::obs {

/// Identifies one timeline row (a core, a cache, a DRAM bank, ...). Dense
/// small integers handed out by TraceRecorder::track() in registration
/// order; value 0 is the first real track, so components can default-init
/// their cached id and rely on the null-recorder guard for correctness.
using TrackId = std::uint32_t;

class TraceRecorder {
 public:
  TraceRecorder() = default;
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Opens `path` for streaming and writes the file header. Returns false
  /// (with *err filled when non-null) on failure; the recorder then stays
  /// inactive and every emission is a no-op.
  bool open(const std::string& path, std::string* err = nullptr);

  [[nodiscard]] bool active() const noexcept { return out_ != nullptr; }

  /// Registers a timeline row and emits its track-name record.
  /// Deterministic: ids are handed out in call order, which the plumbing
  /// keeps fixed (cores, caches, fabric, memory, in CmpSystem wiring
  /// order).
  TrackId track(const std::string& name);

  /// Point event at cycle `at`.
  void instant(TrackId t, const char* name, Cycle at);
  /// Point event with one integer argument (shown in Perfetto's detail
  /// pane), e.g. the line address of a turn-off or a DRAM row number.
  void instant(TrackId t, const char* name, Cycle at, const char* key,
               std::uint64_t value);

  /// Duration event covering [begin, end]. Zero-length spans are emitted
  /// with dur 0 (Perfetto renders them as slivers), and so are spans with
  /// end < begin, so callers don't need their own emptiness checks.
  void span(TrackId t, const char* name, Cycle begin, Cycle end);
  void span(TrackId t, const char* name, Cycle begin, Cycle end,
            const char* key, std::uint64_t value);

  /// Flushes the last chunk and writes the trailer; returns false if any
  /// write failed along the way (short disk, closed pipe) or a name was
  /// too long for a chunk. Safe to call twice; the destructor calls it.
  bool close();

  /// Events emitted since open() (track-name records included) — the
  /// file's trailer carries the same count, which the reader cross-checks.
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }
  [[nodiscard]] std::uint32_t tracks() const noexcept { return next_track_; }

 private:
  static constexpr std::uint32_t kFreeSlot = 0xffffffffu;
  /// Open-addressing slot of the name intern table.
  struct NameSlot {
    std::uint64_t hash = 0;
    std::uint32_t id = kFreeSlot;
    std::uint32_t offset = 0;  ///< Into name_bytes_.
    std::uint32_t size = 0;
  };

  /// The id of `s`, defining it in the stream on first use.
  std::uint32_t intern(const char* s);
  std::uint32_t intern(const char* s, std::size_t n, std::uint64_t hash);
  std::uint32_t define_name(const char* s, std::size_t n, std::uint64_t hash);
  /// First free slot on `hash`'s probe sequence.
  [[nodiscard]] std::size_t free_slot(std::uint64_t hash) const;
  void append(std::uint64_t w0, std::uint64_t w1, Cycle ts, Cycle dur,
              std::uint64_t value);
  void flush_chunk();

  std::FILE* out_ = nullptr;
  /// The open chunk: two header words, then payload. Sized once by
  /// open(), 64 KiB in all.
  std::vector<std::uint64_t> buf_;
  std::size_t fill_ = 0;  ///< Words used in buf_, header included.
  std::uint32_t chunk_events_ = 0;
  std::uint32_t chunks_ = 0;
  std::vector<NameSlot> name_slots_;  ///< Power-of-two size.
  std::string name_bytes_;            ///< Every interned name, back to back.
  std::uint32_t names_ = 0;
  std::uint64_t events_ = 0;
  std::uint32_t next_track_ = 0;
  std::uint32_t file_tracks_ = 0;  ///< Track-name records in this file.
  bool write_error_ = false;
};

}  // namespace cdsim::obs
