// cdtrace — converter and toolbox for .cdt trace files.
//
//   cdtrace gen <out> --records=N [--cores=N] [--seed=N] [--text]
//                     [--chunk-records=N]
//       Generates a synthetic multi-core address trace: per-core pointer
//       churn over a private region, a shared pool, and random far
//       touches (deliberately delta-hostile so compressed sizes stay
//       honest). --text writes the "simple" text format below instead of
//       .cdt v2 — that is what CI feeds back through `convert`.
//
//   cdtrace convert <in> <out> [--format=simple|lackey] [--cores=N]
//                   [--chunk-records=N]
//       Ingests a text address trace into chunked .cdt v2, streaming —
//       O(chunk) memory regardless of input size.
//
//       simple (ChampSim-style one-access-per-line dumps):
//           <core> <L|S|I> <hex-addr> <gap>
//         '#' starts a comment; lines blank after it are skipped, and any
//         other line that is not exactly one record exits 1 naming it.
//
//       lackey (Valgrind --tool=lackey --trace-mem=yes output):
//           I  0023c790,2     instruction fetch: folded into the next
//                             record's gap (one retired instruction)
//            L 04ebab53,1     data load
//            S 1c0000b0,4     data store
//            M 0421c7f0,4     modify: expanded to load + store
//         Lackey is single-threaded; records land on core 0 unless
//         --cores=N spreads them round-robin per line.
//
//   cdtrace inspect <file>
//       Header/footer summary (no chunk decodes): cores, chunks, records,
//       per-core budgets, compression ratio.
//
//   cdtrace inspect --timeline <run.cdtl>
//       Validates a .cdtl timeline written by the simulator's --trace-out
//       flag chunk by chunk (checksums, records, trailer totals; the first
//       error names the chunk and byte offset) and summarizes it: tracks,
//       spans, instants, and the covered cycle range. Streaming: O(chunk)
//       memory for any file size.
//
//   cdtrace render <run.cdtl> <out.json>
//       Renders a .cdtl timeline as Chrome trace-event JSON for Perfetto /
//       chrome://tracing, validating as it streams. A bad file exits 1 and
//       leaves no output behind.
//
//   cdtrace head <file> [--n=N]
//       First N records (default 10) in the simple text format.
//
//   cdtrace stats <file>
//       Full streaming pass: per-core and per-type counts, address range,
//       gap total.
//
//   inspect, head and stats read .cdt v2 only; any other file (a retired
//   v1 trace included) is rejected with a nonzero exit.
//
//   Numeric flags take plain decimal digits within the flag's range;
//   anything else exits 2 with an error naming the flag.

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cdsim/common/rng.hpp"
#include "cdsim/obs/timeline_file.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/workload/trace_v2.hpp"

namespace {

using namespace cdsim;

int usage() {
  std::fprintf(stderr,
               "usage: cdtrace gen <out> --records=N [--cores=N] [--seed=N] "
               "[--text] [--chunk-records=N]\n"
               "       cdtrace convert <in> <out> [--format=simple|lackey] "
               "[--cores=N] [--chunk-records=N]\n"
               "       cdtrace inspect <file>\n"
               "       cdtrace inspect --timeline <run.cdtl>\n"
               "       cdtrace render <run.cdtl> <out.json>\n"
               "       cdtrace head <file> [--n=N]\n"
               "       cdtrace stats <file>\n");
  return 2;
}

struct Flags {
  std::uint64_t records = 0;
  std::uint32_t cores = 4;
  bool cores_set = false;
  std::uint64_t seed = 1;
  std::uint64_t n = 10;
  std::uint32_t chunk_records =
      workload::ChunkedTraceWriter::kDefaultChunkRecords;
  std::string format = "simple";
  bool text = false;
  bool timeline = false;
  std::vector<std::string> paths;
};

/// Parses the decimal `value` of `flag` into *out: plain digits within
/// [lo, hi]. Prints an error naming the flag otherwise.
bool parse_number(const std::string& flag, const std::string& value,
                  std::uint64_t lo, std::uint64_t hi, std::uint64_t* out) {
  const std::optional<std::uint64_t> v = sim::detail::parse_u64(value.c_str());
  if (!v || *v < lo || *v > hi) {
    std::fprintf(stderr,
                 "cdtrace: invalid %s value \"%s\" (want an integer in "
                 "%" PRIu64 "..%" PRIu64 ")\n",
                 flag.c_str(), value.c_str(), lo, hi);
    return false;
  }
  *out = *v;
  return true;
}

bool parse_flags(int argc, char** argv, int first, Flags& f) {
  constexpr std::uint64_t kU32Max = 0xffffffffu;
  constexpr std::uint64_t kU64Max = ~0ull;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    std::uint64_t v = 0;
    if (flag == "--records") {
      if (!parse_number(flag, value, 1, kU64Max, &v)) return false;
      f.records = v;
    } else if (flag == "--cores") {
      if (!parse_number(flag, value, 1, 255, &v)) return false;
      f.cores = static_cast<std::uint32_t>(v);
      f.cores_set = true;
    } else if (flag == "--seed") {
      if (!parse_number(flag, value, 0, kU64Max, &v)) return false;
      f.seed = v;
    } else if (flag == "--n") {
      if (!parse_number(flag, value, 0, kU64Max, &v)) return false;
      f.n = v;
    } else if (flag == "--chunk-records") {
      if (!parse_number(flag, value, 1, kU32Max, &v)) return false;
      f.chunk_records = static_cast<std::uint32_t>(v);
    } else if (arg.rfind("--format=", 0) == 0) {
      f.format = value;
    } else if (arg == "--text") {
      f.text = true;
    } else if (arg == "--timeline") {
      f.timeline = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "cdtrace: unknown flag \"%s\"\n", arg.c_str());
      return false;
    } else {
      f.paths.push_back(arg);
    }
  }
  return true;
}

const char* type_letter(AccessType t) {
  switch (t) {
    case AccessType::kStore: return "S";
    case AccessType::kIFetch: return "I";
    default: return "L";
  }
}

/// Deterministic synthetic workload: sequential private churn, a shared
/// hot pool, and uniform-random far touches that defeat delta coding.
void gen_record(Xoshiro256& rng, std::uint32_t cores,
                workload::TraceRecord& rec) {
  const std::uint64_t r = rng.next();
  rec.core = static_cast<CoreId>(r % cores);
  const Addr priv = 0x100000000ull * (rec.core + 1);
  const std::uint64_t kind = (r >> 8) % 100;
  if (kind < 50) {  // private sequential-ish churn
    rec.op.addr = priv + ((r >> 16) % (1u << 20)) * 64;
  } else if (kind < 65) {  // shared pool: cross-core coherence traffic
    rec.op.addr = 0x20000000000ull + ((r >> 16) % 4096) * 64;
  } else {  // far touch: uniform over 1 TiB, ~5-byte deltas when encoded
    rec.op.addr = (r >> 12) % (1ull << 40);
  }
  rec.op.type = kind % 10 == 0
                    ? AccessType::kStore
                    : (kind % 37 == 0 ? AccessType::kIFetch
                                      : AccessType::kLoad);
  rec.op.gap = static_cast<std::uint32_t>((r >> 56) % 4);
  rec.op.dependent = (r >> 61) % 8 == 0;
  rec.op.chain = static_cast<std::uint8_t>((r >> 48) % 4);
}

int cmd_gen(const Flags& f) {
  if (f.paths.size() != 1 || f.records == 0 || f.cores == 0 ||
      f.cores > 255) {
    return usage();
  }
  Xoshiro256 rng(f.seed);
  workload::TraceRecord rec;
  if (f.text) {
    std::ofstream out(f.paths[0], std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cdtrace: cannot open %s\n", f.paths[0].c_str());
      return 1;
    }
    out << "# cdtrace gen: <core> <L|S|I> <hex-addr> <gap>\n";
    for (std::uint64_t i = 0; i < f.records; ++i) {
      gen_record(rng, f.cores, rec);
      out << static_cast<unsigned>(rec.core) << ' '
          << type_letter(rec.op.type) << ' ' << std::hex << rec.op.addr
          << std::dec << ' ' << rec.op.gap << '\n';
    }
    if (!out.good()) {
      std::fprintf(stderr, "cdtrace: short write to %s\n",
                   f.paths[0].c_str());
      return 1;
    }
    return 0;
  }
  workload::ChunkedTraceWriter w(f.paths[0], f.cores, f.chunk_records);
  for (std::uint64_t i = 0; i < f.records; ++i) {
    gen_record(rng, f.cores, rec);
    w.append(rec);
  }
  if (!w.finish()) {
    std::fprintf(stderr, "cdtrace: %s\n", w.error().c_str());
    return 1;
  }
  std::printf("wrote %" PRIu64 " records to %s\n", w.records_written(),
              f.paths[0].c_str());
  return 0;
}

int convert_simple(std::istream& in, workload::ChunkedTraceWriter& w,
                   std::uint32_t cores) {
  std::string line;
  std::uint64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ss(line);
    if ((ss >> std::ws).eof()) continue;  // blank or comment-only line
    unsigned core = 0;
    std::string type;
    std::uint64_t addr = 0;
    std::uint32_t gap = 0;
    std::string extra;
    ss >> core >> type >> std::hex >> addr >> std::dec >> gap;
    if (ss.fail() || ss >> extra || core >= cores ||
        (type != "L" && type != "S" && type != "I")) {
      std::fprintf(stderr, "cdtrace: line %" PRIu64 ": bad record \"%s\"\n",
                   lineno, line.c_str());
      return 1;
    }
    workload::TraceRecord rec;
    rec.core = static_cast<CoreId>(core);
    rec.op.addr = addr;
    rec.op.gap = gap;
    rec.op.type = type == "S"   ? AccessType::kStore
                  : type == "I" ? AccessType::kIFetch
                                : AccessType::kLoad;
    w.append(rec);
  }
  return 0;
}

int convert_lackey(std::istream& in, workload::ChunkedTraceWriter& w,
                   std::uint32_t cores) {
  std::string line;
  std::uint64_t lineno = 0;
  std::uint32_t pending_gap = 0;
  std::uint64_t next_core = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream ss(line);
    std::string kind;
    std::string rest;
    if (!(ss >> kind)) continue;
    if (kind == "==" || kind.rfind("==", 0) == 0) continue;  // valgrind noise
    if (!(ss >> rest)) {
      // "I addr,size" sometimes parses as one token ("I" already holds
      // the kind); anything else without an operand is noise.
      continue;
    }
    const std::size_t comma = rest.find(',');
    if (comma != std::string::npos) rest.resize(comma);
    char* end = nullptr;
    const std::uint64_t addr = std::strtoull(rest.c_str(), &end, 16);
    if (end == nullptr || *end != '\0') continue;  // not an address: skip
    if (kind == "I") {
      // Instruction fetch: retire one instruction before the next data
      // access instead of emitting a record (keeps traces compact and
      // budgets faithful).
      if (pending_gap < 0xffffffffu) ++pending_gap;
      continue;
    }
    if (kind != "L" && kind != "S" && kind != "M") {
      std::fprintf(stderr, "cdtrace: line %" PRIu64 ": bad record \"%s\"\n",
                   lineno, line.c_str());
      return 1;
    }
    workload::TraceRecord rec;
    rec.core = static_cast<CoreId>(next_core);
    next_core = (next_core + 1) % cores;
    rec.op.addr = addr;
    rec.op.gap = pending_gap;
    pending_gap = 0;
    if (kind == "M") {  // modify: read-modify-write
      rec.op.type = AccessType::kLoad;
      w.append(rec);
      rec.op.gap = 0;
      rec.op.type = AccessType::kStore;
      w.append(rec);
      continue;
    }
    rec.op.type = kind == "S" ? AccessType::kStore : AccessType::kLoad;
    w.append(rec);
  }
  return 0;
}

int cmd_convert(const Flags& f) {
  if (f.paths.size() != 2 || f.cores == 0 || f.cores > 255) return usage();
  if (f.format != "simple" && f.format != "lackey") {
    std::fprintf(stderr, "cdtrace: unknown format \"%s\"\n",
                 f.format.c_str());
    return 2;
  }
  // Lackey input is single-threaded: everything lands on core 0 unless
  // --cores explicitly spreads it.
  const std::uint32_t cores =
      (f.format == "lackey" && !f.cores_set) ? 1 : f.cores;
  std::ifstream in(f.paths[0]);
  if (!in) {
    std::fprintf(stderr, "cdtrace: cannot open %s\n", f.paths[0].c_str());
    return 1;
  }
  workload::ChunkedTraceWriter w(f.paths[1], cores, f.chunk_records);
  const int rc = f.format == "simple" ? convert_simple(in, w, cores)
                                      : convert_lackey(in, w, cores);
  if (rc != 0) return rc;
  if (!w.finish()) {
    std::fprintf(stderr, "cdtrace: %s\n", w.error().c_str());
    return 1;
  }
  std::printf("wrote %" PRIu64 " records to %s\n", w.records_written(),
              f.paths[1].c_str());
  return 0;
}

int cmd_inspect_timeline(const Flags& f) {
  std::string err;
  const auto r = obs::TimelineReader::open(f.paths[0], &err);
  if (r == nullptr) {
    std::fprintf(stderr, "cdtrace: %s\n", err.c_str());
    return 1;
  }
  std::uint64_t spans = 0;
  std::uint64_t instants = 0;
  std::uint64_t ts_lo = ~0ull;
  std::uint64_t ts_hi = 0;
  obs::TimelineEvent ev;
  while (r->next(ev)) {
    if (ev.kind == obs::cdtl::kTrackName) continue;
    if (ev.kind == obs::cdtl::kSpan) {
      ++spans;
    } else {
      ++instants;
    }
    ts_lo = std::min(ts_lo, ev.ts);
    ts_hi = std::max(ts_hi, ev.ts + ev.dur);
  }
  if (r->failed()) {
    std::fprintf(stderr, "cdtrace: invalid timeline: %s\n",
                 r->error().c_str());
    return 1;
  }
  const obs::TimelineTotals& t = r->totals();
  std::printf("format        .cdtl timeline (valid)\n");
  std::printf("file bytes    %" PRIu64 "\n", t.file_bytes);
  std::printf("chunks        %u\n", t.chunks);
  std::printf("tracks        %u\n", t.tracks);
  std::printf("spans         %" PRIu64 "\n", spans);
  std::printf("instants      %" PRIu64 "\n", instants);
  std::printf("names         %u\n", t.names);
  if (spans + instants > 0) {
    std::printf("cycle range   [%" PRIu64 ", %" PRIu64 "]\n", ts_lo, ts_hi);
  }
  return 0;
}

int cmd_render(const Flags& f) {
  if (f.paths.size() != 2) return usage();
  std::string err;
  obs::TimelineTotals t;
  if (!obs::render_timeline_json(f.paths[0], f.paths[1], &err, &t)) {
    std::fprintf(stderr, "cdtrace: %s\n", err.c_str());
    return 1;
  }
  std::printf("rendered %" PRIu64 " events on %u tracks to %s\n", t.events,
              t.tracks, f.paths[1].c_str());
  return 0;
}

int cmd_inspect(const Flags& f) {
  if (f.paths.size() != 1) return usage();
  if (f.timeline) return cmd_inspect_timeline(f);
  std::string err;
  const auto r = workload::ChunkedTraceReader::open(f.paths[0], &err);
  if (r == nullptr) {
    std::fprintf(stderr, "cdtrace: %s\n", err.c_str());
    return 1;
  }
  const workload::TraceV2Info& info = r->info();
  std::printf("format        .cdt v2 (chunked)\n");
  std::printf("cores         %u\n", info.num_cores);
  std::printf("records       %" PRIu64 "\n", info.total_records);
  std::printf("chunks        %u x %u records\n", info.chunk_count,
              info.chunk_records);
  std::printf("file bytes    %" PRIu64 "\n", info.file_bytes);
  if (info.total_records > 0) {
    std::printf("payload       %" PRIu64 " bytes (%.2f B/record, %.2fx vs "
                "16 B/record)\n",
                info.payload_bytes,
                static_cast<double>(info.payload_bytes) /
                    static_cast<double>(info.total_records),
                16.0 * static_cast<double>(info.total_records) /
                    static_cast<double>(info.payload_bytes));
  }
  for (std::uint32_t c = 0; c < info.num_cores; ++c) {
    std::printf("core %-3u      %" PRIu64 " ops, %" PRIu64 " instr\n", c,
                info.per_core_ops[c], info.per_core_instr[c]);
  }
  return 0;
}

int cmd_head(const Flags& f) {
  if (f.paths.size() != 1) return usage();
  std::string err;
  const auto src = workload::open_trace_source(f.paths[0], &err);
  if (src == nullptr) {
    std::fprintf(stderr, "cdtrace: %s\n", err.c_str());
    return 1;
  }
  workload::TraceRecord rec;
  for (std::uint64_t i = 0; i < f.n && src->next(rec); ++i) {
    std::printf("%u %s %" PRIx64 " %u%s\n", rec.core,
                type_letter(rec.op.type), rec.op.addr, rec.op.gap,
                rec.op.dependent ? " dep" : "");
  }
  return 0;
}

int cmd_stats(const Flags& f) {
  if (f.paths.size() != 1) return usage();
  std::string err;
  const auto src = workload::open_trace_source(f.paths[0], &err);
  if (src == nullptr) {
    std::fprintf(stderr, "cdtrace: %s\n", err.c_str());
    return 1;
  }
  std::vector<std::uint64_t> per_core(src->num_cores(), 0);
  std::uint64_t by_type[3] = {0, 0, 0};
  std::uint64_t total = 0;
  std::uint64_t gaps = 0;
  std::uint64_t dependent = 0;
  Addr lo = ~0ull;
  Addr hi = 0;
  workload::TraceRecord rec;
  while (src->next(rec)) {
    ++total;
    per_core[rec.core] += 1;
    by_type[static_cast<unsigned>(rec.op.type) % 3] += 1;
    gaps += rec.op.gap;
    dependent += rec.op.dependent ? 1 : 0;
    if (rec.op.addr < lo) lo = rec.op.addr;
    if (rec.op.addr > hi) hi = rec.op.addr;
  }
  std::printf("records       %" PRIu64 "\n", total);
  std::printf("loads/stores/ifetch  %" PRIu64 " / %" PRIu64 " / %" PRIu64
              "\n",
              by_type[static_cast<unsigned>(AccessType::kLoad) % 3],
              by_type[static_cast<unsigned>(AccessType::kStore) % 3],
              by_type[static_cast<unsigned>(AccessType::kIFetch) % 3]);
  std::printf("dependent     %" PRIu64 "\n", dependent);
  std::printf("instructions  %" PRIu64 " (records + gaps)\n", total + gaps);
  if (total > 0) {
    std::printf("addr range    [%" PRIx64 ", %" PRIx64 "]\n", lo, hi);
  }
  for (std::size_t c = 0; c < per_core.size(); ++c) {
    std::printf("core %-3zu      %" PRIu64 " ops\n", c, per_core[c]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  Flags f;
  if (!parse_flags(argc, argv, 2, f)) return 2;
  if (cmd == "gen") return cmd_gen(f);
  if (cmd == "convert") return cmd_convert(f);
  if (cmd == "inspect") return cmd_inspect(f);
  if (cmd == "render") return cmd_render(f);
  if (cmd == "head") return cmd_head(f);
  if (cmd == "stats") return cmd_stats(f);
  return usage();
}
