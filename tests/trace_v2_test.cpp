// Chunked .cdt v2: round-trip fidelity, rejection of retired v1 files,
// corruption rejection at chunk and footer granularity, truncation,
// seek/resume, and bit-identical replay between the streaming and
// load-it-whole paths — plus the multi-program scenario mixes built on top
// (sim/scenario.hpp).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cdsim/sim/scenario.hpp"
#include "cdsim/verify/fuzz.hpp"
#include "cdsim/verify/oracle.hpp"
#include "cdsim/workload/benchmarks.hpp"
#include "cdsim/workload/fuzzer.hpp"
#include "cdsim/workload/trace_v2.hpp"

namespace {

using namespace cdsim;
using workload::ChunkedTraceReader;
using workload::ChunkedTraceWriter;
using workload::Trace;
using workload::TraceRecord;

std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "cdt2_" + tag + "_" +
         std::to_string(static_cast<long>(::getpid())) + ".cdt";
}

/// A trace exercising the codec's corners: all access types, dependent and
/// chained ops, zero and large gaps, increasing AND decreasing addresses
/// (negative zigzag deltas), near-max addresses, and per-core interleave.
Trace corner_trace(std::uint32_t num_cores, std::size_t n) {
  Trace t;
  t.num_cores = num_cores;
  Addr walk = 0x1000;
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord r;
    r.core = static_cast<CoreId>(i % num_cores);
    switch (i % 5) {
      case 0: r.op.addr = walk += 0x40; break;
      case 1: r.op.addr = walk -= 0x20; break;            // negative delta
      case 2: r.op.addr = 0xffffffffffffff00ull + i; break;  // near max
      case 3: r.op.addr = static_cast<Addr>(i) * 0x10000000ull; break;
      default: r.op.addr = walk; break;
    }
    r.op.type = static_cast<AccessType>(i % 3);
    r.op.gap = i % 7 == 0 ? 900000u + static_cast<std::uint32_t>(i) : i % 4;
    r.op.dependent = i % 3 == 1;
    r.op.chain = static_cast<std::uint8_t>(i % 6);
    t.records.push_back(r);
  }
  return t;
}

void expect_traces_equal(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.num_cores, b.num_cores);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.records[i].core, b.records[i].core);
    EXPECT_EQ(a.records[i].op.addr, b.records[i].op.addr);
    EXPECT_EQ(a.records[i].op.type, b.records[i].op.type);
    EXPECT_EQ(a.records[i].op.gap, b.records[i].op.gap);
    EXPECT_EQ(a.records[i].op.dependent, b.records[i].op.dependent);
    EXPECT_EQ(a.records[i].op.chain, b.records[i].op.chain);
  }
}

Trace drain(workload::TraceSource& src) {
  Trace t;
  t.num_cores = src.num_cores();
  TraceRecord rec;
  while (src.next(rec)) t.append(rec);
  return t;
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(TraceV2, RoundTripPreservesEveryFieldAcrossChunks) {
  const Trace t = corner_trace(3, 103);  // chunk_records=16: 7 chunks, short tail
  const std::string path = temp_path("roundtrip");
  std::string err;
  ASSERT_TRUE(workload::save_v2(t, path, &err, /*chunk_records=*/16)) << err;

  auto r = ChunkedTraceReader::open(path, &err);
  ASSERT_NE(r, nullptr) << err;
  EXPECT_EQ(r->info().chunk_count, 7u);
  EXPECT_EQ(r->info().total_records, 103u);
  expect_traces_equal(t, drain(*r));
  EXPECT_FALSE(r->failed());
  std::remove(path.c_str());
}

TEST(TraceV2, OpenTraceSourceSniffsBothFormats) {
  // .cdt is v2-only: a well-formed retired v1 file ("CDTF", u32 version 1,
  // u32 cores, u64 record count, 16-byte records, u64 FNV-1a checksum) is
  // rejected with an error, never replayed.
  const std::string p1 = temp_path("sniff1");
  const std::string p2 = temp_path("sniff2");
  {
    // One load record (addr 0x1040, gap 3, core 0), twice.
    const std::string rec("\x40\x10\0\0\0\0\0\0\3\0\0\0\0\0\0\0", 16);
    const std::string body = rec + rec;
    std::uint64_t sum = 14695981039346656037ull;
    for (const char c : body) {
      sum = (sum ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    std::string v1 = "CDTF";
    const auto put = [&v1](std::uint64_t v, int bytes) {
      for (int i = 0; i < bytes; ++i) {
        v1.push_back(static_cast<char>(v >> (8 * i)));
      }
    };
    put(1, 4);  // format version
    put(2, 4);  // num_cores
    put(2, 8);  // record count
    v1 += body;
    put(sum, 8);
    std::ofstream out(p1, std::ios::binary);
    out << v1;
  }
  std::string err;
  EXPECT_EQ(workload::open_trace_source(p1, &err), nullptr);
  EXPECT_FALSE(err.empty());

  const Trace t = corner_trace(2, 10);
  ASSERT_TRUE(workload::save_v2(t, p2, &err)) << err;
  auto s2 = workload::open_trace_source(p2, &err);
  ASSERT_NE(s2, nullptr) << err;
  expect_traces_equal(t, drain(*s2));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(TraceV2, FooterCarriesBudgetsAndIdleCoresGetUnitBudget) {
  Trace t;
  t.num_cores = 4;  // cores 2..3 never scheduled
  t.records.push_back({0, {AccessType::kLoad, 0x40, 2, false, 0}});
  t.records.push_back({1, {AccessType::kStore, 0x80, 5, false, 0}});
  t.records.push_back({0, {AccessType::kLoad, 0xc0, 0, true, 1}});
  const std::string path = temp_path("budgets");
  std::string err;
  ASSERT_TRUE(workload::save_v2(t, path, &err)) << err;

  auto r = ChunkedTraceReader::open(path, &err);
  ASSERT_NE(r, nullptr) << err;
  EXPECT_EQ(r->info().per_core_ops, (std::vector<std::uint64_t>{2, 1, 0, 0}));
  EXPECT_EQ(r->info().per_core_instr,
            (std::vector<std::uint64_t>{4, 6, 0, 0}));
  // The TraceSource budget applies the idle-filler minimum, matching
  // Trace::per_core_instructions exactly.
  EXPECT_EQ(r->per_core_instructions(), t.per_core_instructions());
  std::remove(path.c_str());
}

// Only finish() makes a .cdt: an abandoned writer, or one whose finish()
// failed, removes what it wrote, and a writer that never opened its path
// leaves whatever was there alone.
TEST(TraceV2, OnlyFinishLeavesAFile) {
  const std::string path = temp_path("unfinished");
  const TraceRecord rec{1, {AccessType::kLoad, 0x40, 0, false, 0}};
  {
    ChunkedTraceWriter w(path, /*num_cores=*/2, /*chunk_records=*/1);
    w.append(rec);  // a whole chunk reaches the file
    ASSERT_TRUE(std::ifstream(path).good());
  }
  EXPECT_FALSE(std::ifstream(path).good());
  {
    ChunkedTraceWriter w(path, /*num_cores=*/1);
    w.append(rec);  // core 1 of a 1-core trace
    EXPECT_FALSE(w.finish());
  }
  EXPECT_FALSE(std::ifstream(path).good());
  std::ofstream(path) << "not ours";
  {
    ChunkedTraceWriter w(path, /*num_cores=*/0);
    EXPECT_FALSE(w.ok());
  }
  EXPECT_TRUE(std::ifstream(path).good());
  std::remove(path.c_str());
}

TEST(TraceV2, WriterRejectsOutOfRangeCoreAndBadShape) {
  const std::string path = temp_path("badwrite");
  {
    ChunkedTraceWriter w(path, /*num_cores=*/2);
    w.append({5, {AccessType::kLoad, 0x40, 0, false, 0}});
    EXPECT_FALSE(w.finish());
    EXPECT_NE(w.error().find("core"), std::string::npos) << w.error();
  }
  {
    ChunkedTraceWriter w(path, /*num_cores=*/0);
    EXPECT_FALSE(w.ok());
  }
  {
    ChunkedTraceWriter w(path, /*num_cores=*/2, /*chunk_records=*/0);
    EXPECT_FALSE(w.ok());
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Corruption: reject loudly, never crash, never replay garbage
// ---------------------------------------------------------------------------

class TraceV2Corruption : public ::testing::Test {
 protected:
  static constexpr std::size_t kHeaderBytes = 20;
  static constexpr std::size_t kChunkHeaderBytes = 16;
  static constexpr std::size_t kTrailerBytes = 20;

  void SetUp() override {
    path_ = temp_path("corrupt");
    trace_ = corner_trace(2, 40);  // chunk_records=16: 2 full + 1 short chunk
    std::string err;
    ASSERT_TRUE(workload::save_v2(trace_, path_, &err, /*chunk_records=*/16))
        << err;
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes_ = ss.str();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void write_bytes(const std::string& b) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(b.data(), static_cast<std::streamsize>(b.size()));
  }

  /// File offset where the footer body begins, read from the trailer's
  /// own length field (so tests can aim at chunk bytes vs footer bytes).
  [[nodiscard]] std::size_t footer_start() const {
    std::uint64_t len = 0;
    for (int i = 0; i < 8; ++i) {
      len |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                 bytes_[bytes_.size() - kTrailerBytes + 8 + i]))
             << (8 * i);
    }
    return bytes_.size() - kTrailerBytes - static_cast<std::size_t>(len);
  }

  /// Opens expecting open() itself to reject, returning the error.
  std::string expect_open_rejects() {
    std::string err;
    EXPECT_EQ(ChunkedTraceReader::open(path_, &err), nullptr);
    EXPECT_FALSE(err.empty());
    return err;
  }

  std::string path_;
  std::string bytes_;
  Trace trace_;
};

TEST_F(TraceV2Corruption, RejectsBadMagicAndVersion) {
  std::string b = bytes_;
  b[0] = 'X';
  write_bytes(b);
  EXPECT_NE(expect_open_rejects().find("bad magic"), std::string::npos);

  b = bytes_;
  b[4] = 99;
  write_bytes(b);
  EXPECT_NE(expect_open_rejects().find("version"), std::string::npos);
}

TEST_F(TraceV2Corruption, RejectsCorruptHeaderFields) {
  std::string b = bytes_;
  b[8] = 0;  // num_cores = 0
  write_bytes(b);
  EXPECT_NE(expect_open_rejects().find("num_cores"), std::string::npos);
}

TEST_F(TraceV2Corruption, ChunkPayloadFlipFailsAtDecodeNotAtOpen) {
  // Flip the first payload byte of chunk 0 — exactly on a chunk boundary.
  std::string b = bytes_;
  b[kHeaderBytes + kChunkHeaderBytes] ^= 0x5a;
  write_bytes(b);
  std::string err;
  auto r = ChunkedTraceReader::open(path_, &err);
  ASSERT_NE(r, nullptr) << err;  // footer is intact: open succeeds
  TraceRecord rec;
  EXPECT_THROW(r->next(rec), std::runtime_error);  // loud, not a crash
  EXPECT_TRUE(r->failed());
  EXPECT_NE(r->error().find("checksum"), std::string::npos) << r->error();
}

TEST_F(TraceV2Corruption, MidStreamChunkFlipStopsAtTheBoundary) {
  // Corrupt the LAST payload byte before the footer — inside the final
  // (short) chunk. The two intact full chunks must stream cleanly, and
  // the failure surfaces exactly when the cursor crosses the boundary.
  std::string b = bytes_;
  b[footer_start() - 1] ^= 0x5a;
  write_bytes(b);

  std::string err;
  auto r = ChunkedTraceReader::open(path_, &err);
  ASSERT_NE(r, nullptr) << err;
  TraceRecord rec;
  std::size_t streamed = 0;
  EXPECT_THROW(while (r->next(rec)) ++streamed, std::runtime_error);
  EXPECT_TRUE(r->failed());
  EXPECT_EQ(streamed, 32u);  // both full chunks streamed, the short one not
}

TEST_F(TraceV2Corruption, RejectsFooterIndexCorruption) {
  // Flip a byte inside the footer body (first chunk-table entry).
  std::string b = bytes_;
  b[footer_start() + 4] ^= 0xff;
  write_bytes(b);
  EXPECT_NE(expect_open_rejects().find("footer checksum"),
            std::string::npos);
}

TEST_F(TraceV2Corruption, RejectsTruncatedFinalChunk) {
  // A writer that died mid-chunk: file ends inside chunk data, no footer.
  const std::size_t cut = kHeaderBytes + kChunkHeaderBytes + 5;
  write_bytes(bytes_.substr(0, cut));
  const std::string err = expect_open_rejects();
  EXPECT_TRUE(err.find("trailer magic") != std::string::npos ||
              err.find("too short") != std::string::npos)
      << err;
}

TEST_F(TraceV2Corruption, RejectsFooterThatOverlapsMissingChunkBytes) {
  // Drop bytes from the chunk region but keep the footer+trailer intact:
  // the chunk table's offsets no longer span header..footer.
  std::string b = bytes_;
  b.erase(kHeaderBytes + kChunkHeaderBytes, 4);  // shrink chunk 0
  write_bytes(b);
  const std::string err = expect_open_rejects();
  EXPECT_TRUE(err.find("footer") != std::string::npos ||
              err.find("span") != std::string::npos ||
              err.find("inconsistent") != std::string::npos)
      << err;
}

TEST_F(TraceV2Corruption, RejectsTrailerMagicLoss) {
  std::string b = bytes_;
  b[b.size() - 1] = 'X';
  write_bytes(b);
  EXPECT_NE(expect_open_rejects().find("trailer magic"), std::string::npos);
}

TEST_F(TraceV2Corruption, RejectsTooShortAndMissingFiles) {
  write_bytes("CDT2");
  EXPECT_NE(expect_open_rejects().find("too short"), std::string::npos);
  std::string err;
  EXPECT_EQ(ChunkedTraceReader::open(path_ + ".nope", &err), nullptr);
  EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

TEST_F(TraceV2Corruption, ChunkHeaderFooterDisagreementIsCorruption) {
  // Flip chunk 0's record-count field in its header; the footer still
  // carries the original. No way to tell which is right: reject.
  std::string b = bytes_;
  b[kHeaderBytes + 4] ^= 0x01;
  write_bytes(b);
  std::string err;
  auto r = ChunkedTraceReader::open(path_, &err);
  ASSERT_NE(r, nullptr) << err;
  TraceRecord rec;
  EXPECT_THROW(r->next(rec), std::runtime_error);
  EXPECT_TRUE(r->failed());
  EXPECT_NE(r->error().find("disagrees"), std::string::npos) << r->error();
}

/// Runs `fn`, which must throw std::runtime_error whose message holds
/// `needle`.
template <typename Fn>
void expect_runtime_error(Fn&& fn, const std::string& needle) {
  try {
    fn();
    ADD_FAILURE() << "no exception; expected one naming \"" << needle << "\"";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

// A corrupt chunk in the middle of a captured run: every consumer that
// reaches it fails naming the chunk, instead of ending early as if the
// trace were shorter.
class TraceV2MidFileCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    sc_.machine.seed = 4242;
    sc_.machine.instructions_per_core = 6000;
    const Trace trace = verify::run_scenario(sc_).trace;
    path_ = temp_path("midcorrupt");
    ASSERT_TRUE(workload::save_v2(trace, path_, nullptr, /*chunk_records=*/16));
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string b = ss.str();
    in.close();
    const auto chunks = ChunkedTraceReader::open(path_)->info().chunk_count;
    ASSERT_GE(chunks, 3u);
    // Walk the chunk headers (u32 payload bytes, u32 records, u64
    // checksum) to the middle chunk and flip its first payload byte.
    const std::uint32_t mid = chunks / 2;
    std::size_t off = 20;  // past the file header
    for (std::uint32_t i = 0; i < mid; ++i) {
      std::uint32_t payload = 0;
      for (int k = 0; k < 4; ++k) {
        payload |= static_cast<std::uint32_t>(
                       static_cast<unsigned char>(b[off + k]))
                   << (8 * k);
      }
      off += 16 + payload;
    }
    b[off + 16] ^= 0x5a;
    std::ofstream(path_, std::ios::binary | std::ios::trunc)
        .write(b.data(), static_cast<std::streamsize>(b.size()));
    chunk_ = "chunk " + std::to_string(mid) + " checksum mismatch";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  [[nodiscard]] workload::TraceOpener opener() const {
    return [path = path_] { return workload::open_trace_source(path); };
  }

  verify::FuzzScenario sc_;
  std::string path_;
  std::string chunk_;
};

TEST_F(TraceV2MidFileCorruption, ReplayFactoryReplayFailsNamingTheChunk) {
  sim::SystemConfig cfg = sc_.machine;
  cfg.per_core_instructions = opener()()->per_core_instructions();
  workload::Benchmark bench;
  sim::CmpSystem sys(cfg, bench, workload::replay_factory(opener()));
  expect_runtime_error([&sys] { (void)sys.run(); }, chunk_);
}

TEST_F(TraceV2MidFileCorruption, MixReplayFailsNamingTheChunk) {
  sim::MixPlan plan = sim::plan_mix(
      {sim::ProgramSpec{opener(), "midcorrupt", 1.0}}, sc_.machine.num_cores);
  sim::SystemConfig cfg = sc_.machine;
  plan.apply(cfg);
  workload::Benchmark bench;
  sim::CmpSystem sys(cfg, bench, plan.streams);
  expect_runtime_error([&sys] { (void)sys.run(); }, chunk_);
}

TEST_F(TraceV2MidFileCorruption, CopyFailsNamingTheChunkAndLeavesNoFile) {
  const std::string copy = temp_path("midcorrupt_copy");
  auto src = opener()();
  expect_runtime_error(
      [&] { (void)workload::write_v2_from_source(*src, copy); }, chunk_);
  EXPECT_FALSE(std::ifstream(copy).good());
}

// ---------------------------------------------------------------------------
// Seek / resume
// ---------------------------------------------------------------------------

TEST(TraceV2, SeekLandsOnAnyRecordAndResumes) {
  const Trace t = corner_trace(3, 50);
  const std::string path = temp_path("seek");
  std::string err;
  ASSERT_TRUE(workload::save_v2(t, path, &err, /*chunk_records=*/8)) << err;
  auto r = ChunkedTraceReader::open(path, &err);
  ASSERT_NE(r, nullptr) << err;

  // Every position (including chunk boundaries 8, 16, ... and both ends)
  // must yield exactly the suffix of the original record sequence.
  for (const std::uint64_t pos : {0ull, 1ull, 7ull, 8ull, 9ull, 16ull,
                                  31ull, 47ull, 49ull}) {
    SCOPED_TRACE(pos);
    ASSERT_TRUE(r->seek(pos));
    EXPECT_EQ(r->position(), pos);
    TraceRecord rec;
    ASSERT_TRUE(r->next(rec));
    EXPECT_EQ(rec.op.addr, t.records[pos].op.addr);
    EXPECT_EQ(rec.core, t.records[pos].core);
  }

  // Park at end; next() is a clean end-of-trace, not an error.
  ASSERT_TRUE(r->seek(50));
  TraceRecord rec;
  EXPECT_FALSE(r->next(rec));
  EXPECT_FALSE(r->failed());

  // Out of range: clean refusal.
  EXPECT_FALSE(r->seek(51));
  EXPECT_FALSE(r->failed());

  // Resume: seek back mid-trace and drain — suffix matches.
  ASSERT_TRUE(r->seek(40));
  Trace tail = drain(*r);
  ASSERT_EQ(tail.records.size(), 10u);
  for (std::size_t i = 0; i < tail.records.size(); ++i) {
    EXPECT_EQ(tail.records[i].op.addr, t.records[40 + i].op.addr);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Replay equivalence: streaming v2 == in-memory trace, bit for bit
// ---------------------------------------------------------------------------

TEST(TraceV2, StreamingReplayIsBitIdenticalToInMemoryReplay) {
  // Capture a hostile run, save as v2, then replay it twice: through the
  // load-it-whole in-memory demux and through the streaming per-core
  // cursors of a one-program mix. Metrics must match bit-for-bit
  // (EXPECT_EQ on doubles).
  verify::FuzzScenario sc;
  sc.machine = verify::fuzz_machine(
      coherence::Protocol::kMesi,
      decay::DecayConfig{decay::Technique::kDecay, 2048, 4});
  sc.machine.seed = 2718;
  sc.machine.instructions_per_core = 8000;
  sc.fuzz.decay_window = 2048;

  const verify::ScenarioOutcome original = verify::run_scenario(sc);
  ASSERT_EQ(original.total_divergences, 0u);
  const std::string path = temp_path("replayab");
  std::string err;
  ASSERT_TRUE(workload::save_v2(original.trace, path, &err,
                                /*chunk_records=*/512))
      << err;

  const verify::ScenarioOutcome in_memory =
      verify::replay_scenario(sc, original.trace);
  ASSERT_EQ(in_memory.total_divergences, 0u);

  // Streaming: sim::plan_mix's per-core filtered_replay_stream cursors
  // over the v2 file, the path trace_replay takes.
  sim::SystemConfig cfg = sc.machine;
  cfg.per_core_instructions = original.trace.per_core_instructions();
  const sim::MixPlan plan = sim::plan_mix(
      {sim::ProgramSpec{[&path] { return workload::open_trace_source(path); },
                        "replayab", 1.0}},
      cfg.num_cores);
  workload::Benchmark bench;
  bench.config.name = sc.label();
  verify::DifferentialChecker checker(cfg.num_cores);
  sim::CmpSystem sys(cfg, bench, plan.streams);
  sys.set_observer(&checker);
  const sim::RunMetrics streamed = sys.run();
  EXPECT_EQ(checker.total_divergences(), 0u);

  EXPECT_EQ(sim::first_difference(streamed, in_memory.metrics), "");
  std::remove(path.c_str());
}

TEST(TraceV2, CaptureToChunkedSinkMatchesInMemoryCapture) {
  // The same run captured through both TraceSinks — the in-memory Trace
  // and the streaming ChunkedTraceWriter — must record identical streams.
  verify::FuzzScenario sc;
  sc.machine.seed = 1618;
  sc.machine.instructions_per_core = 4000;

  const verify::ScenarioOutcome mem_run = verify::run_scenario(sc);
  const std::string path = temp_path("sink");
  {
    ChunkedTraceWriter w(path, sc.machine.num_cores, /*chunk_records=*/256);
    workload::Benchmark bench;
    bench.config.name = sc.label();
    sim::CmpSystem sys(sc.machine, bench,
                       workload::capture_factory(verify::fuzz_streams(sc), &w));
    (void)sys.run();
    ASSERT_TRUE(w.finish()) << w.error();
  }
  std::string err;
  auto r = ChunkedTraceReader::open(path, &err);
  ASSERT_NE(r, nullptr) << err;
  expect_traces_equal(mem_run.trace, drain(*r));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Multi-program scenario mixes
// ---------------------------------------------------------------------------

class ScenarioMix : public ::testing::Test {
 protected:
  void SetUp() override {
    // Four distinct captured programs, saved as v2.
    for (int i = 0; i < 4; ++i) {
      verify::FuzzScenario sc;
      sc.machine.seed = 100 + static_cast<std::uint64_t>(i);
      sc.machine.instructions_per_core = 3000;
      const verify::ScenarioOutcome out = verify::run_scenario(sc);
      ASSERT_EQ(out.total_divergences, 0u);
      const std::string path = temp_path("mix" + std::to_string(i));
      std::string err;
      ASSERT_TRUE(workload::save_v2(out.trace, path, &err,
                                    /*chunk_records=*/256))
          << err;
      paths_.push_back(path);
      budgets_.push_back(out.trace.per_core_instructions());
    }
  }
  void TearDown() override {
    for (const std::string& p : paths_) std::remove(p.c_str());
  }

  [[nodiscard]] std::vector<sim::ProgramSpec> programs() const {
    std::vector<sim::ProgramSpec> progs;
    for (const std::string& p : paths_) {
      sim::ProgramSpec spec;
      spec.name = p;
      spec.open = [p] { return workload::open_trace_source(p); };
      progs.push_back(std::move(spec));
    }
    return progs;
  }

  std::vector<std::string> paths_;
  std::vector<std::vector<std::uint64_t>> budgets_;
};

TEST_F(ScenarioMix, PlanAssignsRoundRobinWithWeightedBudgets) {
  auto progs = programs();
  progs[1].weight = 2.0;  // hot tenant
  const sim::MixPlan plan = sim::plan_mix(std::move(progs), 8);
  ASSERT_EQ(plan.assignment.size(), 8u);
  for (std::uint32_t c = 0; c < 8; ++c) {
    const sim::MixAssignment& a = plan.assignment[c];
    EXPECT_EQ(a.program, c % 4u);
    EXPECT_EQ(a.trace_core, (c / 4u) % 4u);  // 4-core traces, round r = c/4
    const std::uint64_t base = budgets_[a.program][a.trace_core];
    EXPECT_EQ(a.instructions, a.program == 1 ? 2 * base : base);
  }
}

TEST_F(ScenarioMix, SingleProgramMixDegeneratesToExactReplay) {
  std::vector<sim::ProgramSpec> one;
  one.push_back(programs()[0]);
  const sim::MixPlan plan = sim::plan_mix(std::move(one), 4);
  EXPECT_EQ(plan.per_core_instructions(), budgets_[0]);
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(plan.assignment[c].trace_core, c);
  }
}

TEST_F(ScenarioMix, FourProgramRateModeMixRunsWithZeroDivergences) {
  // The acceptance gate: a >=4-trace rate-mode mix with a hot tenant on
  // the 8-core directory mesh, differential oracle attached, zero
  // divergences — twice, bit-identically (the factory must be reusable).
  auto progs = programs();
  progs[0].weight = 2.0;
  const sim::MixPlan plan = sim::plan_mix(std::move(progs), 8);

  sim::SystemConfig cfg;
  cfg.topology = noc::Topology::kDirectoryMesh;
  cfg.total_l2_bytes = 8 * 32 * KiB;
  cfg.l1.size_bytes = 8 * KiB;
  cfg.decay = decay::DecayConfig{decay::Technique::kSelectiveDecay, 2048, 4};
  plan.apply(cfg);
  ASSERT_EQ(cfg.num_cores, 8u);

  workload::Benchmark bench;
  bench.config.name = "mix_test";
  sim::RunMetrics first;
  for (int pass = 0; pass < 2; ++pass) {
    verify::DifferentialChecker checker(cfg.num_cores);
    sim::CmpSystem sys(cfg, bench, plan.streams);
    sys.set_observer(&checker);
    const sim::RunMetrics m = sys.run();
    sys.check_coherence_invariants();
    EXPECT_EQ(checker.total_divergences(), 0u);
    if (pass == 0) {
      first = m;
    } else {
      EXPECT_EQ(sim::first_difference(m, first), "");
    }
  }
}

TEST_F(ScenarioMix, RejectsEmptyAndBrokenMixes) {
  EXPECT_THROW(sim::plan_mix({}, 4), std::invalid_argument);
  auto progs = programs();
  progs[2].weight = 0.0;
  EXPECT_THROW(sim::plan_mix(std::move(progs), 4), std::invalid_argument);
  std::vector<sim::ProgramSpec> bad;
  bad.push_back({});
  EXPECT_THROW(sim::plan_mix(std::move(bad), 4), std::invalid_argument);
}

TEST_F(ScenarioMix, RejectsWeightsWhoseBudgetsDoNotFit) {
  // A budget must convert to 64 bits exactly: an infinite or NaN weight,
  // or one that scales a recorded budget past 2^64, names the program.
  for (const double w : {std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(), 1e30}) {
    auto progs = programs();
    progs[1].weight = w;
    try {
      (void)sim::plan_mix(std::move(progs), 4);
      ADD_FAILURE() << "weight " << w << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(paths_[1]), std::string::npos)
          << e.what();
    }
  }
  // A large weight that still fits plans normally.
  auto progs = programs();
  progs[1].weight = 1e12;
  EXPECT_EQ(sim::plan_mix(std::move(progs), 4).assignment[1].instructions,
            static_cast<std::uint64_t>(
                static_cast<double>(budgets_[1][0]) * 1e12));
}

// ---------------------------------------------------------------------------
// The fuzz matrix carries multi-program cells
// ---------------------------------------------------------------------------

TEST(TraceV2, FuzzMatrixIncludesMultiProgramCells) {
  verify::FuzzOptions opts;
  opts.scenarios = 64;
  std::size_t mix_cells = 0;
  bool skewed_budget_seen = false;
  for (verify::FuzzScenario sc : verify::fuzz_matrix(opts)) {
    if (sc.programs == 0) continue;
    ++mix_cells;
    sc.machine.instructions_per_core = 2000;
    EXPECT_NE(sc.label().find("progs="), std::string::npos);
    // Hot tenant: program 0's cores run a doubled budget. A core draws ops
    // until it has committed its budget, so the budget lies in (the
    // instructions before its last op, the instructions through it].
    const verify::ScenarioOutcome out = verify::run_scenario(sc);
    const std::uint32_t cores = sc.machine.num_cores;
    std::vector<std::uint64_t> before(cores, 0);
    std::vector<std::uint64_t> through(cores, 0);
    for (const TraceRecord& r : out.trace.records) {
      before[r.core] = through[r.core];
      through[r.core] += std::uint64_t{r.op.gap} + 1;
    }
    for (CoreId c = 0; c < cores; ++c) {
      const std::uint64_t budget = (c % sc.programs == 0 ? 2 : 1) *
                                   sc.machine.instructions_per_core;
      EXPECT_LT(before[c], budget) << sc.label() << " core " << c;
      EXPECT_GE(through[c], budget) << sc.label() << " core " << c;
    }
    skewed_budget_seen = true;
  }
  EXPECT_EQ(mix_cells, 16u);  // two 8-cell blocks of the 64-cell matrix
  EXPECT_TRUE(skewed_budget_seen);
}

TEST(TraceV2, MultiProgramFuzzCellCapturesAndReplaysBitIdentically) {
  // One mix cell end-to-end through the capture/replay contract.
  verify::FuzzOptions opts;
  opts.scenarios = 64;
  const auto matrix = verify::fuzz_matrix(opts);
  const auto it =
      std::find_if(matrix.begin(), matrix.end(),
                   [](const verify::FuzzScenario& s) { return s.programs > 0; });
  ASSERT_NE(it, matrix.end());
  verify::FuzzScenario sc = *it;
  sc.machine.instructions_per_core = 4000;

  const verify::ScenarioOutcome out = verify::run_scenario(sc);
  EXPECT_EQ(out.total_divergences, 0u);
  ASSERT_GT(out.trace.records.size(), 0u);

  const verify::ScenarioOutcome replay =
      verify::replay_scenario(sc, out.trace);
  EXPECT_EQ(replay.total_divergences, 0u);
  EXPECT_EQ(sim::first_difference(replay.metrics, out.metrics), "");
}

}  // namespace
