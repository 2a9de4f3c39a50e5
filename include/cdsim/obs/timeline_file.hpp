#pragma once
// The .cdtl timeline file: the on-disk format obs::TraceRecorder writes,
// its streaming reader, and the offline Chrome trace-event JSON renderer.
//
// Capture stores fixed-width binary records so the simulation thread
// never formats text; `cdtrace render` turns a file into the JSON that
// Perfetto / chrome://tracing load. Framing follows .cdt v2
// (workload/trace_v2.hpp): a header, self-contained checksummed chunks,
// and a trailer carrying the totals.
//
// On-disk layout (all integers little-endian):
//
//   header (16 bytes)
//     0   4   magic "CDTL"
//     4   4   u32 format version (1)
//     8   4   u32 max chunk payload bytes (a multiple of 8)
//     12  4   u32 reserved (0)
//
//   chunks (repeated)
//     0   4   u32 payload_bytes (1..max, a multiple of 8)
//     4   4   u32 event count (name definitions are not events)
//     8   8   u64 checksum of the payload (cdtl::checksum below)
//     16  *   payload: records, back to back
//
//   record (40 bytes: five u64 words)
//     0   4   u32 track id
//     4   4   u32 name id
//     8   4   u32 argument key id (kNoArg: the event has no argument)
//     12  1   u8 kind: 'M' track name, 'i' instant, 'X' span,
//             'N' name definition
//     13  3   zero
//     16  8   u64 ts (cycle)
//     24  8   u64 dur (cycles; 0 for everything but spans)
//     32  8   u64 argument value (0 without an argument)
//
//   A name definition ('N') assigns `name id` to the `value` bytes that
//   follow the record, zero-padded to a multiple of 8; its track is 0,
//   its key kNoArg and its ts/dur 0. Name ids count up from 0 in order of
//   first emission, and a string is matched by content, never by pointer
//   value, so each distinct string is stored once per file and two
//   identical runs write identical bytes. A definition precedes the first
//   record that uses its id, in the same or an earlier chunk. Event,
//   argument-key and track names share the one id space. An 'M' record
//   names track `track` with the string `name id`.
//
//   trailer (32 bytes)
//     0   4   magic "LTDC" (distinct from every valid payload_bytes)
//     4   4   u32 chunk count
//     8   8   u64 events (every 'M', 'i' and 'X' record)
//     16  4   u32 tracks (the 'M' records)
//     20  4   u32 names (the 'N' records)
//     24  8   u64 checksum of trailer bytes 0..23
//
// The checksum is FNV-1a over little-endian 64-bit words in four lanes
// rather than over bytes: one multiply per 8 bytes, four in flight, keeps
// it off the capture's critical path. The reader checks each chunk's checksum before it yields any of
// the chunk's events, and the trailer's totals against what it read, so a
// truncated or corrupted file fails with the chunk index and byte offset
// of the first bad frame and never renders as valid JSON.

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cdsim/common/types.hpp"
#include "cdsim/obs/trace_recorder.hpp"

namespace cdsim::obs {

namespace cdtl {

/// The magics as the little-endian u32s they are stored as.
inline constexpr std::uint32_t kMagic =
    'C' | 'D' << 8 | 'T' << 16 | 'L' << 24;
inline constexpr std::uint32_t kTrailerMagic =
    'L' | 'T' << 8 | 'D' << 16 | 'C' << 24;
inline constexpr std::uint32_t kVersion = 1;
inline constexpr std::size_t kHeaderBytes = 16;
inline constexpr std::size_t kChunkHeaderWords = 2;
inline constexpr std::size_t kRecordWords = 5;
inline constexpr std::size_t kTrailerWords = 4;
inline constexpr std::uint32_t kNoArg = 0xffffffffu;
/// The reader refuses headers declaring larger chunks: it bounds the one
/// buffer a hostile header can make it allocate.
inline constexpr std::uint32_t kMaxChunkPayloadBytes = 1u << 20;

inline constexpr char kTrackName = 'M';
inline constexpr char kInstant = 'i';
inline constexpr char kSpan = 'X';
inline constexpr char kNameDef = 'N';

/// FNV-1a over 64-bit words in four interleaved lanes (word i feeds lane
/// i % 4), then the four lane values folded in lane order. The lanes
/// break the multiply chain, so hashing runs at ~4 words per multiply
/// latency; changing any one word still always changes the result.
inline std::uint64_t checksum(const std::uint64_t* words, std::size_t n) {
  constexpr std::uint64_t kBasis = 14695981039346656037ULL;
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t lane[4] = {kBasis, kBasis, kBasis, kBasis};
  for (std::size_t i = 0; i < n; ++i) {
    lane[i % 4] = (lane[i % 4] ^ words[i]) * kPrime;
  }
  std::uint64_t h = kBasis;
  for (const std::uint64_t l : lane) h = (h ^ l) * kPrime;
  return h;
}

}  // namespace cdtl

/// One decoded timeline event.
struct TimelineEvent {
  char kind = 0;  ///< cdtl::kTrackName, cdtl::kInstant or cdtl::kSpan.
  TrackId track = 0;
  /// Event name, or the track's name for kTrackName. Like `key`, it views
  /// the reader's name table and stays valid until the next next() call.
  std::string_view name;
  std::string_view key;  ///< Argument name; empty when !has_arg.
  bool has_arg = false;
  Cycle ts = 0;
  Cycle dur = 0;
  std::uint64_t value = 0;
};

/// Whole-file totals, from the trailer once the reader has checked them.
struct TimelineTotals {
  std::uint64_t events = 0;
  std::uint32_t tracks = 0;
  std::uint32_t names = 0;
  std::uint32_t chunks = 0;
  std::uint64_t file_bytes = 0;
};

/// Streaming .cdtl reader: one chunk in memory at a time. next() returns
/// false at the end of a valid file or at the first corruption;
/// failed()/error() tell the two apart.
class TimelineReader {
 public:
  /// Checks the header. Returns nullptr (with *error set) on failure.
  static std::unique_ptr<TimelineReader> open(const std::string& path,
                                              std::string* error = nullptr);

  bool next(TimelineEvent& out);

  [[nodiscard]] bool failed() const { return !error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }
  /// Valid once next() has returned false without failing.
  [[nodiscard]] const TimelineTotals& totals() const { return totals_; }

 private:
  TimelineReader() = default;

  bool fail(const std::string& what);
  /// Reads the next frame: true when it was a chunk, false at the
  /// trailer (done_ set once it checks out) or on failure.
  bool load_frame();
  void read_trailer(const std::uint64_t* head, std::size_t got);
  bool decode_name();

  std::ifstream in_;
  std::string path_;
  /// Payload words of the open chunk, sized to the header's maximum.
  std::vector<std::uint64_t> chunk_;
  std::size_t chunk_words_ = 0;
  std::size_t pos_ = 0;               ///< Next word to decode in chunk_.
  std::uint64_t chunk_offset_ = 0;    ///< File offset of the open chunk.
  std::uint64_t offset_ = 0;          ///< File offset of the next frame.
  std::uint32_t chunk_events_ = 0;    ///< Events the chunk header declares.
  std::uint32_t chunk_seen_ = 0;      ///< Events decoded from it so far.
  std::vector<std::string> names_;
  TimelineTotals seen_;               ///< Running counts.
  TimelineTotals totals_;
  bool done_ = false;
  std::string error_;
};

/// Renders the timeline at `in_path` as Chrome trace-event JSON at
/// `out_path`, streaming with O(chunk) memory:
///   {"traceEvents":[ ... ]}
/// with "M" thread_name metadata per track, "i" instants and "X"
/// complete events; pid 1, tid = track id, and one cycle is one
/// microsecond of trace time so Perfetto reads in cycles. The bytes are
/// fixed (obs_test pins them), so a render is comparable with `cmp`.
/// On any failure returns false with *error set and removes `out_path`:
/// a bad capture never leaves JSON behind. `totals`, when non-null,
/// receives the file's totals.
bool render_timeline_json(const std::string& in_path,
                          const std::string& out_path,
                          std::string* error = nullptr,
                          TimelineTotals* totals = nullptr);

}  // namespace cdsim::obs
