#include "cdsim/obs/trace_recorder.hpp"

#include <bit>
#include <cstring>

#include "cdsim/obs/timeline_file.hpp"

namespace cdsim::obs {
namespace {

// Records are stored as native u64 words; the format is little-endian.
static_assert(std::endian::native == std::endian::little,
              ".cdtl capture writes native words: little-endian hosts only");

/// The chunk buffer: 64 KiB, chunk header included.
constexpr std::size_t kBufferWords = 64 * 1024 / 8;
constexpr std::size_t kMaxPayloadWords =
    kBufferWords - cdtl::kChunkHeaderWords;
constexpr std::size_t kInitialNameSlots = 64;

constexpr std::uint64_t pack(std::uint32_t lo, std::uint32_t hi) {
  return lo | static_cast<std::uint64_t>(hi) << 32;
}

constexpr std::uint64_t kind_word(char kind, std::uint32_t key) {
  return pack(key, static_cast<unsigned char>(kind));
}

/// Intern-table hash: a rotate-xor per byte (two cycles of latency, where
/// FNV's multiply chain costs four), then one multiply to spread the bits.
/// A collision only costs a probe: every hit is confirmed by content.
constexpr std::uint64_t hash_byte(std::uint64_t h, char c) {
  return std::rotl(h, 5) ^ static_cast<unsigned char>(c);
}
constexpr std::uint64_t hash_finish(std::uint64_t h, std::size_t n) {
  return (h ^ n) * 0x9e3779b97f4a7c15ULL;
}

}  // namespace

TraceRecorder::~TraceRecorder() { close(); }

bool TraceRecorder::open(const std::string& path, std::string* err) {
  if (out_ != nullptr) {
    if (err != nullptr) *err = "trace recorder already open";
    return false;
  }
  out_ = std::fopen(path.c_str(), "wb");
  if (out_ == nullptr) {
    if (err != nullptr) *err = "cannot open trace file: " + path;
    return false;
  }
  // Every file starts its own name table and counts.
  buf_.assign(kBufferWords, 0);
  fill_ = cdtl::kChunkHeaderWords;
  chunk_events_ = 0;
  chunks_ = 0;
  name_slots_.assign(kInitialNameSlots, NameSlot{});
  name_bytes_.clear();
  names_ = 0;
  events_ = 0;
  file_tracks_ = 0;
  write_error_ = false;
  const std::uint64_t header[2] = {
      pack(cdtl::kMagic, cdtl::kVersion),
      pack(static_cast<std::uint32_t>(kMaxPayloadWords * 8), 0)};
  if (std::fwrite(header, sizeof header, 1, out_) != 1) write_error_ = true;
  return true;
}

TrackId TraceRecorder::track(const std::string& name) {
  const TrackId id = next_track_++;
  if (out_ == nullptr) return id;
  std::uint64_t h = 0;
  for (const char c : name) h = hash_byte(h, c);
  const std::uint32_t n =
      intern(name.data(), name.size(), hash_finish(h, name.size()));
  append(pack(id, n), kind_word(cdtl::kTrackName, cdtl::kNoArg), 0, 0, 0);
  ++file_tracks_;
  return id;
}

void TraceRecorder::instant(TrackId t, const char* name, Cycle at) {
  if (out_ == nullptr) return;
  const std::uint32_t n = intern(name);
  append(pack(t, n), kind_word(cdtl::kInstant, cdtl::kNoArg), at, 0, 0);
}

void TraceRecorder::instant(TrackId t, const char* name, Cycle at,
                            const char* key, std::uint64_t value) {
  if (out_ == nullptr) return;
  // Name before key: ids follow first emission, so the order is fixed.
  const std::uint32_t n = intern(name);
  const std::uint32_t k = intern(key);
  append(pack(t, n), kind_word(cdtl::kInstant, k), at, 0, value);
}

void TraceRecorder::span(TrackId t, const char* name, Cycle begin,
                         Cycle end) {
  if (out_ == nullptr) return;
  const std::uint32_t n = intern(name);
  append(pack(t, n), kind_word(cdtl::kSpan, cdtl::kNoArg), begin,
         end >= begin ? end - begin : 0, 0);
}

void TraceRecorder::span(TrackId t, const char* name, Cycle begin, Cycle end,
                         const char* key, std::uint64_t value) {
  if (out_ == nullptr) return;
  const std::uint32_t n = intern(name);
  const std::uint32_t k = intern(key);
  append(pack(t, n), kind_word(cdtl::kSpan, k), begin,
         end >= begin ? end - begin : 0, value);
}

bool TraceRecorder::close() {
  if (out_ == nullptr) return !write_error_;
  flush_chunk();
  std::uint64_t trailer[cdtl::kTrailerWords] = {
      pack(cdtl::kTrailerMagic, chunks_), events_,
      pack(file_tracks_, names_), 0};
  trailer[3] = cdtl::checksum(trailer, 3);
  if (std::fwrite(trailer, sizeof trailer, 1, out_) != 1) write_error_ = true;
  if (std::fclose(out_) != 0) write_error_ = true;
  out_ = nullptr;
  return !write_error_;
}

std::uint32_t TraceRecorder::intern(const char* s) {
  // One pass finds the length and the hash.
  std::uint64_t h = 0;
  const char* p = s;
  for (; *p != '\0'; ++p) h = hash_byte(h, *p);
  const auto n = static_cast<std::size_t>(p - s);
  return intern(s, n, hash_finish(h, n));
}

std::uint32_t TraceRecorder::intern(const char* s, std::size_t n,
                                    std::uint64_t hash) {
  const std::size_t mask = name_slots_.size() - 1;
  for (std::size_t i = (hash >> 32) & mask;; i = (i + 1) & mask) {
    const NameSlot& slot = name_slots_[i];
    if (slot.id == kFreeSlot) return define_name(s, n, hash);
    if (slot.hash == hash && slot.size == n &&
        std::memcmp(name_bytes_.data() + slot.offset, s, n) == 0) {
      return slot.id;
    }
  }
}

std::uint32_t TraceRecorder::define_name(const char* s, std::size_t n,
                                         std::uint64_t hash) {
  const std::size_t words = cdtl::kRecordWords + (n + 7) / 8;
  if (words > kMaxPayloadWords) {
    write_error_ = true;  // cannot fit one chunk; close() reports it
    return cdtl::kNoArg;
  }
  if ((names_ + 1) * 2 > name_slots_.size()) {  // keep the load <= 1/2
    std::vector<NameSlot> old(name_slots_.size() * 2);
    old.swap(name_slots_);
    for (const NameSlot& slot : old) {
      if (slot.id != kFreeSlot) name_slots_[free_slot(slot.hash)] = slot;
    }
  }
  const std::uint32_t id = names_++;
  name_slots_[free_slot(hash)] = {
      hash, id, static_cast<std::uint32_t>(name_bytes_.size()),
      static_cast<std::uint32_t>(n)};
  name_bytes_.append(s, n);

  if (fill_ + words > buf_.size()) flush_chunk();
  std::uint64_t* w = buf_.data() + fill_;
  w[0] = pack(0, id);
  w[1] = kind_word(cdtl::kNameDef, cdtl::kNoArg);
  w[2] = 0;
  w[3] = 0;
  w[4] = n;
  w[words - 1] = 0;  // zero padding after the last byte
  std::memcpy(w + cdtl::kRecordWords, s, n);
  fill_ += words;
  return id;
}

std::size_t TraceRecorder::free_slot(std::uint64_t hash) const {
  const std::size_t mask = name_slots_.size() - 1;
  std::size_t i = (hash >> 32) & mask;
  while (name_slots_[i].id != kFreeSlot) i = (i + 1) & mask;
  return i;
}

void TraceRecorder::append(std::uint64_t w0, std::uint64_t w1, Cycle ts,
                           Cycle dur, std::uint64_t value) {
  if (fill_ + cdtl::kRecordWords > buf_.size()) flush_chunk();
  std::uint64_t* w = buf_.data() + fill_;
  w[0] = w0;
  w[1] = w1;
  w[2] = ts;
  w[3] = dur;
  w[4] = value;
  fill_ += cdtl::kRecordWords;
  ++chunk_events_;
  ++events_;
}

void TraceRecorder::flush_chunk() {
  const std::size_t payload = fill_ - cdtl::kChunkHeaderWords;
  if (payload == 0) return;
  buf_[0] = pack(static_cast<std::uint32_t>(payload * 8), chunk_events_);
  buf_[1] = cdtl::checksum(buf_.data() + cdtl::kChunkHeaderWords, payload);
  if (std::fwrite(buf_.data(), sizeof(std::uint64_t), fill_, out_) != fill_) {
    write_error_ = true;
  }
  ++chunks_;
  fill_ = cdtl::kChunkHeaderWords;
  chunk_events_ = 0;
}

}  // namespace cdsim::obs
