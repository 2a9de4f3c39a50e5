#include "cdsim/obs/timeline_file.hpp"

#include <bit>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <system_error>

namespace cdsim::obs {
namespace {

static_assert(std::endian::native == std::endian::little,
              ".cdtl reading loads native words: little-endian hosts only");

/// Output flush threshold of the renderer.
constexpr std::size_t kFlushBytes = 64 * 1024;
constexpr std::size_t kChunkHeaderBytes = cdtl::kChunkHeaderWords * 8;

std::uint32_t lo32(std::uint64_t w) { return static_cast<std::uint32_t>(w); }
std::uint32_t hi32(std::uint64_t w) {
  return static_cast<std::uint32_t>(w >> 32);
}

void set_error(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

/// "chunk 3 at offset 1234: " — the location prefix of chunk errors.
std::string chunk_at(std::uint32_t idx, std::uint64_t offset) {
  return "chunk " + std::to_string(idx) + " at offset " +
         std::to_string(offset) + ": ";
}

// --- JSON rendering ---------------------------------------------------------

// Names come from the simulator's own code (no user input), but escape
// the JSON-significant bytes anyway so a surprising name can never
// corrupt the stream.
void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  char digits[24];
  const auto res = std::to_chars(digits, digits + sizeof digits, v);
  out.append(digits, res.ptr);
}

/// One trace event in the Chrome "JSON object" flavor.
void append_event(std::string& out, const TimelineEvent& ev) {
  if (ev.kind == cdtl::kTrackName) {
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    append_u64(out, ev.track);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    append_escaped(out, ev.name);
    out += "\"}}";
    return;
  }
  if (ev.kind == cdtl::kInstant) {
    out += "{\"ph\":\"i\",\"pid\":1,\"tid\":";
    append_u64(out, ev.track);
    out += ",\"ts\":";
    append_u64(out, ev.ts);
    out += ",\"s\":\"t\",\"name\":\"";
  } else {
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":";
    append_u64(out, ev.track);
    out += ",\"ts\":";
    append_u64(out, ev.ts);
    out += ",\"dur\":";
    append_u64(out, ev.dur);
    out += ",\"name\":\"";
  }
  append_escaped(out, ev.name);
  out += '"';
  if (ev.has_arg) {
    out += ",\"args\":{\"";
    append_escaped(out, ev.key);
    out += "\":";
    append_u64(out, ev.value);
    out += '}';
  }
  out += '}';
}

}  // namespace

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

std::unique_ptr<TimelineReader> TimelineReader::open(const std::string& path,
                                                     std::string* error) {
  auto r = std::unique_ptr<TimelineReader>(new TimelineReader());
  r->path_ = path;
  r->in_.open(path, std::ios::binary);
  if (!r->in_) {
    set_error(error, "cannot open \"" + path + "\" for reading");
    return nullptr;
  }
  const auto bail = [&](const std::string& msg) {
    set_error(error, "\"" + path + "\": " + msg);
    return nullptr;
  };
  std::uint64_t header[2] = {};
  r->in_.read(reinterpret_cast<char*>(header), sizeof header);
  if (r->in_.gcount() != static_cast<std::streamsize>(sizeof header)) {
    return bail("too short to be a .cdtl timeline");
  }
  if (lo32(header[0]) != cdtl::kMagic) {
    return bail("not a .cdtl timeline (bad magic)");
  }
  if (hi32(header[0]) != cdtl::kVersion) {
    return bail("uses .cdtl format version " +
                std::to_string(hi32(header[0])) + "; this reader supports " +
                std::to_string(cdtl::kVersion));
  }
  const std::uint32_t max_payload = lo32(header[1]);
  if (max_payload < cdtl::kRecordWords * 8 || max_payload % 8 != 0 ||
      max_payload > cdtl::kMaxChunkPayloadBytes || hi32(header[1]) != 0) {
    return bail("header carries a corrupt chunk size " +
                std::to_string(max_payload));
  }
  r->chunk_.resize(max_payload / 8);
  r->offset_ = cdtl::kHeaderBytes;
  return r;
}

bool TimelineReader::fail(const std::string& what) {
  if (error_.empty()) error_ = "\"" + path_ + "\": " + what;
  return false;
}

bool TimelineReader::next(TimelineEvent& out) {
  while (!failed() && !done_) {
    if (pos_ == chunk_words_) {
      if (chunk_seen_ != chunk_events_) {
        return fail(chunk_at(seen_.chunks - 1, chunk_offset_) +
                    "header declares " + std::to_string(chunk_events_) +
                    " events, payload holds " + std::to_string(chunk_seen_));
      }
      if (!load_frame()) return false;
      continue;
    }
    const std::uint32_t idx = seen_.chunks - 1;
    const std::uint64_t at = chunk_offset_ + kChunkHeaderBytes + pos_ * 8;
    const auto bad = [&](const char* what) {
      return fail(chunk_at(idx, chunk_offset_) + "record at offset " +
                  std::to_string(at) + " " + what);
    };
    if (pos_ + cdtl::kRecordWords > chunk_words_) {
      return bad("runs past the end of the payload");
    }
    const std::uint64_t* w = chunk_.data() + pos_;
    const std::uint32_t name = hi32(w[0]);
    const std::uint32_t key = lo32(w[1]);
    if (hi32(w[1]) > 0xff) return bad("has nonzero reserved bytes");
    const char kind = static_cast<char>(hi32(w[1]));
    if (kind == cdtl::kNameDef) {
      if (!decode_name()) return false;
      continue;
    }
    if (kind != cdtl::kTrackName && kind != cdtl::kInstant &&
        kind != cdtl::kSpan) {
      return bad("has an unknown kind");
    }
    const bool has_arg = key != cdtl::kNoArg;
    if (name >= names_.size() || (has_arg && key >= names_.size())) {
      return bad("uses an undefined name id");
    }
    if ((kind == cdtl::kTrackName &&
         (has_arg || w[2] != 0 || w[3] != 0)) ||
        (kind == cdtl::kInstant && w[3] != 0) || (!has_arg && w[4] != 0)) {
      return bad("carries fields its kind does not have");
    }
    if (chunk_seen_ == chunk_events_) {
      return bad("is past the event count of its chunk header");
    }
    ++chunk_seen_;
    pos_ += cdtl::kRecordWords;
    ++seen_.events;
    if (kind == cdtl::kTrackName) ++seen_.tracks;
    out.kind = kind;
    out.track = lo32(w[0]);
    out.name = names_[name];
    out.has_arg = has_arg;
    out.key = has_arg ? std::string_view(names_[key]) : std::string_view();
    out.ts = w[2];
    out.dur = w[3];
    out.value = w[4];
    return true;
  }
  return false;
}

bool TimelineReader::decode_name() {
  const std::uint64_t* w = chunk_.data() + pos_;
  const std::uint64_t at = chunk_offset_ + kChunkHeaderBytes + pos_ * 8;
  const auto bad = [&](const std::string& what) {
    return fail(chunk_at(seen_.chunks - 1, chunk_offset_) +
                "name definition at offset " + std::to_string(at) + " " +
                what);
  };
  if (hi32(w[0]) != names_.size()) {
    return bad("defines id " + std::to_string(hi32(w[0])) + " out of order");
  }
  if (lo32(w[0]) != 0 || lo32(w[1]) != cdtl::kNoArg || w[2] != 0 ||
      w[3] != 0) {
    return bad("carries fields a definition does not have");
  }
  const std::uint64_t size = w[4];
  const std::size_t room = (chunk_words_ - pos_ - cdtl::kRecordWords) * 8;
  if (size > room) return bad("runs past the end of the payload");
  const std::size_t words = (static_cast<std::size_t>(size) + 7) / 8;
  const char* bytes = reinterpret_cast<const char*>(w + cdtl::kRecordWords);
  for (std::size_t i = size; i < words * 8; ++i) {
    if (bytes[i] != '\0') return bad("has nonzero padding");
  }
  names_.emplace_back(bytes, static_cast<std::size_t>(size));
  ++seen_.names;
  pos_ += cdtl::kRecordWords + words;
  return true;
}

bool TimelineReader::load_frame() {
  const std::uint32_t idx = seen_.chunks;
  const std::string after = " after " + std::to_string(idx) + " chunk(s): ";
  std::uint64_t head[cdtl::kChunkHeaderWords] = {};
  in_.read(reinterpret_cast<char*>(head), sizeof head);
  const auto got = static_cast<std::size_t>(in_.gcount());
  if (got == 0) {
    return fail("offset " + std::to_string(offset_) + after +
                "file ends without a trailer (truncated)");
  }
  if (got >= 4 && lo32(head[0]) == cdtl::kTrailerMagic) {
    read_trailer(head, got);
    return false;
  }
  if (got < sizeof head) {
    return fail(chunk_at(idx, offset_) + "chunk header is truncated");
  }
  const std::uint32_t payload_bytes = lo32(head[0]);
  if (payload_bytes == 0 || payload_bytes % 8 != 0 ||
      payload_bytes / 8 > chunk_.size()) {
    return fail(chunk_at(idx, offset_) + "corrupt payload size " +
                std::to_string(payload_bytes));
  }
  in_.read(reinterpret_cast<char*>(chunk_.data()), payload_bytes);
  if (in_.gcount() != static_cast<std::streamsize>(payload_bytes)) {
    return fail(chunk_at(idx, offset_) + "payload is truncated (" +
                std::to_string(in_.gcount()) + " of " +
                std::to_string(payload_bytes) + " bytes)");
  }
  if (cdtl::checksum(chunk_.data(), payload_bytes / 8) != head[1]) {
    return fail(chunk_at(idx, offset_) + "checksum mismatch: file is corrupt");
  }
  chunk_offset_ = offset_;
  offset_ += sizeof head + payload_bytes;
  chunk_words_ = payload_bytes / 8;
  pos_ = 0;
  chunk_events_ = hi32(head[0]);
  chunk_seen_ = 0;
  ++seen_.chunks;
  return true;
}

void TimelineReader::read_trailer(const std::uint64_t* head,
                                  std::size_t got) {
  const std::string where = "trailer at offset " + std::to_string(offset_) +
                            " after " + std::to_string(seen_.chunks) +
                            " chunk(s): ";
  std::uint64_t t[cdtl::kTrailerWords] = {head[0], head[1], 0, 0};
  if (got == 2 * sizeof(std::uint64_t)) {
    in_.read(reinterpret_cast<char*>(t + 2), 2 * sizeof(std::uint64_t));
    got += static_cast<std::size_t>(in_.gcount());
  }
  if (got != sizeof t) {
    fail(where + "truncated");
    return;
  }
  if (cdtl::checksum(t, 3) != t[3]) {
    fail(where + "checksum mismatch: file is corrupt");
    return;
  }
  if (in_.peek() != std::ifstream::traits_type::eof()) {
    fail(where + "followed by trailing bytes");
    return;
  }
  totals_.chunks = hi32(t[0]);
  totals_.events = t[1];
  totals_.tracks = lo32(t[2]);
  totals_.names = hi32(t[2]);
  totals_.file_bytes = offset_ + sizeof t;
  const auto counts = [](const TimelineTotals& c) {
    return std::to_string(c.events) + " events, " + std::to_string(c.tracks) +
           " tracks, " + std::to_string(c.names) + " names in " +
           std::to_string(c.chunks) + " chunks";
  };
  if (totals_.chunks != seen_.chunks || totals_.events != seen_.events ||
      totals_.tracks != seen_.tracks || totals_.names != seen_.names) {
    fail(where + "counts " + counts(totals_) + " but the file holds " +
         counts(seen_));
    return;
  }
  done_ = true;
}

// ---------------------------------------------------------------------------
// Renderer
// ---------------------------------------------------------------------------

bool render_timeline_json(const std::string& in_path,
                          const std::string& out_path, std::string* error,
                          TimelineTotals* totals) {
  const std::unique_ptr<TimelineReader> reader =
      TimelineReader::open(in_path, error);
  if (reader == nullptr) return false;
  std::error_code ec;
  if (std::filesystem::equivalent(in_path, out_path, ec)) {
    set_error(error, "\"" + out_path + "\" is the input file");
    return false;
  }
  std::FILE* out = std::fopen(out_path.c_str(), "wb");
  if (out == nullptr) {
    set_error(error, "cannot open \"" + out_path + "\" for writing");
    return false;
  }
  std::string buf;
  buf.reserve(kFlushBytes + 4096);
  bool write_ok = true;
  const auto flush = [&] {
    if (std::fwrite(buf.data(), 1, buf.size(), out) != buf.size()) {
      write_ok = false;
    }
    buf.clear();
  };
  buf += "{\"traceEvents\":[";
  TimelineEvent ev;
  for (bool first = true; reader->next(ev); first = false) {
    if (!first) buf += ',';
    append_event(buf, ev);
    if (buf.size() >= kFlushBytes) flush();
  }
  if (!reader->failed()) {
    buf += "]}\n";
    flush();
  }
  if (std::fclose(out) != 0) write_ok = false;
  if (reader->failed() || !write_ok) {
    std::remove(out_path.c_str());
    set_error(error, reader->failed()
                         ? reader->error()
                         : "short write to \"" + out_path + "\"");
    return false;
  }
  if (totals != nullptr) *totals = reader->totals();
  return true;
}

}  // namespace cdsim::obs
