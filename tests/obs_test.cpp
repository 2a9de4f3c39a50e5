// Tests for cdsim::obs — the timeline recorder, the windowed time-series
// sampler, and the host profiler.
//
// The load-bearing property is in AttachedVsDetached*: attaching the full
// observability stack to a run must leave every RunMetrics field
// bit-identical to the detached run. Everything else here checks the
// artifacts themselves: a .cdtl capture renders to valid Chrome-trace JSON
// whose bytes are pinned (and truncation/corruption of the capture is
// *detected*, not shrugged at), the sampler's window arithmetic covers
// the run exactly, zero-event runs still produce valid files, and the
// series checksum for a pinned config is pinned like the golden hexfloat
// metrics.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cdsim/common/host_timer.hpp"
#include "cdsim/obs/interval_sampler.hpp"
#include "cdsim/obs/timeline_file.hpp"
#include "cdsim/obs/trace_recorder.hpp"
#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/workload/benchmarks.hpp"
#include "json_check.hpp"

namespace {

using namespace cdsim;

std::string tmp_path(const char* stem) {
  return ::testing::TempDir() + stem + "_" +
         std::to_string(static_cast<long>(::getpid()));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::uint64_t count_token(const std::string& text, const std::string& token) {
  std::uint64_t n = 0;
  for (std::size_t at = text.find(token); at != std::string::npos;
       at = text.find(token, at + token.size())) {
    ++n;
  }
  return n;
}

/// One small pinned run (FMM, 1 MiB, decay64K, 20k instr/core) used by
/// several tests below. Observability hooks attach to whatever the caller
/// passes; nullptr means detached.
sim::RunMetrics run_small(obs::TraceRecorder* rec, obs::IntervalSampler* s) {
  decay::DecayConfig d{decay::Technique::kDecay, 64 * 1024, 4};
  sim::SystemConfig cfg = sim::make_system_config(1 * MiB, d);
  cfg.instructions_per_core = 20000;
  const auto& bench = workload::benchmark_by_name("FMM");
  sim::CmpSystem sys(sim::normalized_run_config(cfg, bench), bench);
  if (rec != nullptr) sys.set_trace_recorder(rec);
  if (s != nullptr) sys.set_sampler(s);
  return sys.run();
}

// --- trace recorder ---------------------------------------------------------

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Renders a .cdtl capture and returns the JSON text (the JSON file is
/// removed again).
std::string render(const std::string& cdtl,
                   obs::TimelineTotals* totals = nullptr) {
  const std::string json = cdtl + ".json";
  std::string err;
  EXPECT_TRUE(obs::render_timeline_json(cdtl, json, &err, totals)) << err;
  std::string text = slurp(json);
  std::remove(json.c_str());
  return text;
}

/// Captures run_small into `path`.
void capture_small(const std::string& path, obs::TraceRecorder& rec) {
  ASSERT_TRUE(rec.open(path));
  run_small(&rec, nullptr);
  ASSERT_TRUE(rec.close());
}

// FNV-1a64 over the rendered JSON of run_small and of the kDram+TLB
// machine in DramMachineTracesAndStaysBitIdentical. Like the golden
// hexfloat metrics they fix every emission point's order, names and
// arguments plus the JSON layout; re-capture (the EXPECT_EQ message shows
// the live value) only in a commit that changes emission on purpose.
constexpr std::uint64_t kSmallRenderFnv = 0xbb968312dae8228bULL;
constexpr std::uint64_t kDramRenderFnv = 0xb3a0ac674410d9b4ULL;

TEST(TraceRecorder, RenderFormatIsPinned) {
  // Every event shape, a span whose end precedes its begin (dur clamps to
  // 0), and a track name that needs JSON escaping.
  const std::string path = tmp_path("obs_format") + ".cdtl";
  obs::TraceRecorder rec;
  ASSERT_TRUE(rec.open(path));
  const obs::TrackId a = rec.track("core0");
  const obs::TrackId b = rec.track("odd \"name\"\\\n\t\x01");
  rec.instant(a, "finish", 7);
  rec.instant(b, "toff.clean", 8, "line", 4096);
  rec.span(a, "miss", 10, 25);
  const std::string miss = "miss";  // same content, another pointer
  rec.span(b, miss.c_str(), 30, 42, "line", 64);
  rec.span(a, "stall.rob", 50, 40);
  char reused[8] = "wb.a";  // one pointer, two contents
  rec.instant(a, reused, 60);
  std::memcpy(reused, "wb.b", 5);
  rec.instant(a, reused, 61);
  ASSERT_TRUE(rec.close());
  EXPECT_EQ(rec.events(), 9u);
  EXPECT_EQ(rec.tracks(), 2u);

  obs::TimelineTotals totals;
  const std::string json = render(path, &totals);
  std::remove(path.c_str());
  const std::string expected =
      R"({"traceEvents":[)"
      R"({"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"core0"}},)"
      R"({"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"odd \"name\"\\\n\t\u0001"}},)"
      R"({"ph":"i","pid":1,"tid":0,"ts":7,"s":"t","name":"finish"},)"
      R"({"ph":"i","pid":1,"tid":1,"ts":8,"s":"t","name":"toff.clean","args":{"line":4096}},)"
      R"({"ph":"X","pid":1,"tid":0,"ts":10,"dur":15,"name":"miss"},)"
      R"({"ph":"X","pid":1,"tid":1,"ts":30,"dur":12,"name":"miss","args":{"line":64}},)"
      R"({"ph":"X","pid":1,"tid":0,"ts":50,"dur":0,"name":"stall.rob"},)"
      R"({"ph":"i","pid":1,"tid":0,"ts":60,"s":"t","name":"wb.a"},)"
      R"({"ph":"i","pid":1,"tid":0,"ts":61,"s":"t","name":"wb.b"})"
      "]}\n";
  EXPECT_EQ(json, expected);
  // Names are matched by content: "miss" and "line" are stored once each,
  // the reused buffer's two contents twice.
  EXPECT_EQ(totals.names, 9u);
  EXPECT_EQ(totals.events, 9u);
  EXPECT_EQ(totals.tracks, 2u);
}

TEST(TraceRecorder, EmitsWellFormedJson) {
  const std::string path = tmp_path("obs_trace") + ".cdtl";
  obs::TraceRecorder rec;
  capture_small(path, rec);
  EXPECT_GT(rec.events(), 0u);
  EXPECT_GT(rec.tracks(), 0u);

  obs::TimelineTotals totals;
  const std::string text = render(path, &totals);
  std::remove(path.c_str());
  ASSERT_FALSE(text.empty());
  const obs::JsonCheckResult r = obs::json_check(text);
  EXPECT_TRUE(r.ok) << "at byte " << r.error_at << ": " << r.error;

  // The trailer's totals match the recorder's, and so does the JSON: the
  // metadata events name exactly the registered tracks, and every
  // emitted event is accounted for.
  EXPECT_EQ(totals.events, rec.events());
  EXPECT_EQ(totals.tracks, rec.tracks());
  EXPECT_GT(totals.chunks, 1u);
  EXPECT_EQ(count_token(text, "\"ph\":\"M\""), rec.tracks());
  EXPECT_EQ(count_token(text, "\"ph\":"), rec.events());
  // The wiring registers one track per core plus the caches and fabric.
  EXPECT_NE(text.find("\"core0\""), std::string::npos);
  EXPECT_NE(text.find("\"L2.0\""), std::string::npos);
  EXPECT_NE(text.find("\"fabric\""), std::string::npos);
  EXPECT_EQ(fnv1a64(text), kSmallRenderFnv)
      << std::hex << "live value 0x" << fnv1a64(text);
}

TEST(TraceRecorder, CapturesAndRendersAreDeterministic) {
  std::string capture[2];
  std::string json[2];
  for (int i = 0; i < 2; ++i) {
    const std::string path =
        tmp_path("obs_det") + std::to_string(i) + ".cdtl";
    obs::TraceRecorder rec;
    capture_small(path, rec);
    capture[i] = slurp(path);
    json[i] = render(path);
    std::remove(path.c_str());
  }
  ASSERT_FALSE(capture[0].empty());
  EXPECT_TRUE(capture[0] == capture[1]) << "captures differ";
  EXPECT_TRUE(json[0] == json[1]) << "renders differ";
}

/// Writes `bytes` as a .cdtl file and expects rendering it to fail with an
/// error containing `where`, leaving no JSON behind.
void expect_render_fails(const std::string& bytes, const std::string& where) {
  const std::string path = tmp_path("obs_bad") + ".cdtl";
  const std::string json = path + ".json";
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  std::string err;
  EXPECT_FALSE(obs::render_timeline_json(path, json, &err));
  EXPECT_NE(err.find(where), std::string::npos) << err;
  EXPECT_FALSE(std::ifstream(json).good()) << "partial JSON left behind";
  std::remove(path.c_str());
}

std::uint32_t u32_at(const std::string& bytes, std::size_t off) {
  std::uint32_t v = 0;
  std::memcpy(&v, bytes.data() + off, sizeof v);
  return v;
}

TEST(TraceRecorder, TruncatedFileIsDetected) {
  const std::string path = tmp_path("obs_trunc") + ".cdtl";
  obs::TraceRecorder rec;
  capture_small(path, rec);
  const std::string bytes = slurp(path);
  std::remove(path.c_str());

  // Frame offsets: a 16-byte file header, then chunks of a 16-byte header
  // (payload_bytes first) plus payload. run_small spans several chunks.
  const std::size_t chunk0 = 16;
  const std::size_t chunk1 = chunk0 + 16 + u32_at(bytes, chunk0);
  const std::size_t chunk2 = chunk1 + 16 + u32_at(bytes, chunk1);
  ASSERT_LT(chunk2 + 16 + u32_at(bytes, chunk2), bytes.size() - 32);

  // A stream cut anywhere — what a killed run leaves — fails in the
  // reader with the failing frame's position, never summarizes half a
  // timeline.
  expect_render_fails(bytes.substr(0, chunk1),
                      "offset " + std::to_string(chunk1) + " after 1 chunk");
  expect_render_fails(bytes.substr(0, chunk1 + 16 + u32_at(bytes, chunk1) / 2),
                      "chunk 1 at offset " + std::to_string(chunk1));
  expect_render_fails(bytes.substr(0, bytes.size() - 10),
                      "trailer at offset " + std::to_string(bytes.size() - 32));

  // So is one flipped payload byte, by the chunk's checksum.
  std::string corrupt = bytes;
  corrupt[chunk2 + 16 + 100] ^= 0x01;
  expect_render_fails(corrupt, "chunk 2 at offset " + std::to_string(chunk2) +
                                   ": checksum mismatch");
}

TEST(TraceRecorder, RenderNeverOverwritesItsInput) {
  const std::string path = tmp_path("obs_self") + ".cdtl";
  obs::TraceRecorder rec;
  capture_small(path, rec);
  const std::string before = slurp(path);
  std::string err;
  EXPECT_FALSE(obs::render_timeline_json(path, path, &err));
  EXPECT_NE(err.find("is the input file"), std::string::npos) << err;
  EXPECT_TRUE(slurp(path) == before) << "capture was modified";
  std::remove(path.c_str());
}

TEST(TraceRecorder, ZeroEventRunIsValidEmptyFile) {
  const std::string path = tmp_path("obs_empty") + ".cdtl";
  obs::TraceRecorder rec;
  ASSERT_TRUE(rec.open(path));
  ASSERT_TRUE(rec.close());
  EXPECT_EQ(rec.events(), 0u);

  obs::TimelineTotals totals;
  const std::string text = render(path, &totals);
  std::remove(path.c_str());
  EXPECT_EQ(text, "{\"traceEvents\":[]}\n");
  EXPECT_TRUE(obs::json_check(text).ok);
  EXPECT_EQ(totals.events, 0u);
  EXPECT_EQ(totals.chunks, 0u);
}

TEST(TraceRecorder, OpenFailureLeavesRecorderInactive) {
  obs::TraceRecorder rec;
  std::string err;
  EXPECT_FALSE(rec.open("/nonexistent-dir/trace.cdtl", &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(rec.active());
  // Emission against an inactive recorder is a defined no-op.
  const obs::TrackId t = rec.track("t");
  rec.instant(t, "x", 1);
  rec.span(t, "y", 1, 2);
  EXPECT_EQ(rec.events(), 0u);
}

// --- interval sampler -------------------------------------------------------

TEST(IntervalSampler, WindowArithmeticCoversTheRunExactly) {
  // A period that does not divide the run length: the final partial window
  // must close at the end cycle, so rows == ceil(cycles / period) and the
  // windows tile [0, cycles) without gap or overlap.
  obs::IntervalSampler s(7777);
  const std::string path = tmp_path("obs_series") + ".csv";
  ASSERT_TRUE(s.open_csv(path));
  const sim::RunMetrics m = run_small(nullptr, &s);
  ASSERT_TRUE(s.finish());
  EXPECT_EQ(s.rows(), (m.cycles + 7776) / 7777);

  // The CSV mirrors the pushed rows: header + one line per row.
  const std::string text = slurp(path);
  std::remove(path.c_str());
  EXPECT_EQ(count_token(text, "\n"), s.rows() + 1);
  EXPECT_EQ(text.rfind("window_start,", 0), 0u);
}

TEST(IntervalSampler, ZeroRowRunIsValidHeaderOnlyFile) {
  obs::IntervalSampler s(100);
  const std::string path = tmp_path("obs_empty_series") + ".csv";
  ASSERT_TRUE(s.open_csv(path));
  ASSERT_TRUE(s.finish());
  EXPECT_EQ(s.rows(), 0u);
  const std::string text = slurp(path);
  std::remove(path.c_str());
  EXPECT_EQ(count_token(text, "\n"), 1u);
  EXPECT_EQ(text.rfind("window_start,", 0), 0u);
}

TEST(IntervalSampler, ChecksumCoversBitsNotText) {
  // Two samplers fed the same rows agree; flipping one low mantissa bit —
  // invisible at any printf precision — changes the checksum.
  obs::SampleRow row;
  row.window_start = 0;
  row.window_end = 100;
  row.instructions = 42;
  row.ipc = 0.42;
  obs::IntervalSampler a(100), b(100), c(100);
  a.push(row);
  b.push(row);
  EXPECT_EQ(a.checksum(), b.checksum());
  row.ipc = std::nextafter(row.ipc, 1.0);
  c.push(row);
  EXPECT_NE(a.checksum(), c.checksum());
}

/// The windows of a sampler CSV: the bounds of each row and the sums of
/// its count columns.
struct SeriesSums {
  std::uint64_t rows = 0;
  std::uint64_t instructions = 0;
  std::uint64_t l2_accesses = 0;
  std::uint64_t l2_misses = 0;
  bool tiles = true;    ///< Each row starts where the previous one ended.
  Cycle end = 0;        ///< The last row's window_end.
};

SeriesSums sum_series(const std::string& csv) {
  std::istringstream in(slurp(csv));
  std::string line;
  std::getline(in, line);  // header
  SeriesSums s;
  while (std::getline(in, line)) {
    unsigned long long ws = 0, we = 0, instr = 0, acc = 0, miss = 0;
    EXPECT_EQ(std::sscanf(line.c_str(), "%llu,%llu,%llu,%llu,%llu", &ws, &we,
                          &instr, &acc, &miss),
              5)
        << line;
    s.tiles = s.tiles && ws == s.end && we > ws;
    s.end = we;
    ++s.rows;
    s.instructions += instr;
    s.l2_accesses += acc;
    s.l2_misses += miss;
  }
  return s;
}

/// A 16-core three-level MOESI mesh with banked DRAM and TLBs, running
/// `d` at every level: perfbench's mesh16-dram shape, smaller and shorter.
sim::SystemConfig mesh16_3l_dram(const decay::DecayConfig& d) {
  sim::SystemConfig cfg = sim::make_system_config(4 * MiB, d);
  cfg.num_cores = 16;
  cfg.topology = noc::Topology::kDirectoryMesh;
  cfg.hierarchy = sim::Hierarchy::kThreeLevel;
  cfg.total_l3_bytes = 16 * MiB;
  cfg.protocol = coherence::Protocol::kMoesi;
  cfg.l1_decay = d;
  cfg.l3_decay = d;
  cfg.mem.model = mem::MemoryModel::kDram;
  cfg.mem.tlb.enabled = true;
  cfg.instructions_per_core = 5000;
  return cfg;
}

/// Runs `cfg` on FMM with a sampler of `period` writing `csv`.
sim::RunMetrics run_sampled(const sim::SystemConfig& cfg, Cycle period,
                            const std::string& csv) {
  const auto& bench = workload::benchmark_by_name("FMM");
  sim::CmpSystem sys(sim::normalized_run_config(cfg, bench), bench);
  obs::IntervalSampler s(period);
  EXPECT_TRUE(s.open_csv(csv));
  sys.set_sampler(&s);
  const sim::RunMetrics m = sys.run();
  EXPECT_TRUE(s.finish());
  return m;
}

TEST(IntervalSampler, SampledRowsSumToTheRun) {
  // A row is the difference of two machine snapshots, so the rows tile
  // [0, cycles) and their counts add up to the run's totals exactly —
  // including what the cores commit at cycle 0 as they start.
  const std::string csv = tmp_path("obs_rows") + ".csv";
  const auto expect_sums = [&csv](const sim::RunMetrics& m) {
    const SeriesSums sums = sum_series(csv);
    std::remove(csv.c_str());
    EXPECT_GT(sums.rows, 1u);
    EXPECT_TRUE(sums.tiles);
    EXPECT_EQ(sums.end, m.cycles);
    EXPECT_EQ(sums.instructions, m.instructions);
    EXPECT_EQ(sums.l2_accesses, m.l2_accesses);
    EXPECT_EQ(sums.l2_misses, m.l2_misses);
  };
  obs::IntervalSampler s(7777);
  ASSERT_TRUE(s.open_csv(csv));
  const sim::RunMetrics bus = run_small(nullptr, &s);
  ASSERT_TRUE(s.finish());
  expect_sums(bus);

  const decay::DecayConfig d{decay::Technique::kDecay, 64 * 1024, 4};
  expect_sums(run_sampled(mesh16_3l_dram(d), 10000, csv));
}

TEST(IntervalSampler, SecondViewLeavesTheSeriesUnchanged) {
  // The sampler reads the machine under the first view; books kept for a
  // second view change nothing it reports.
  const decay::DecayConfig baseline{decay::Technique::kBaseline, 0, 4};
  const decay::DecayConfig protocol{decay::Technique::kProtocol, 0, 4};
  sim::SystemConfig cfg = sim::make_system_config(1 * MiB, baseline);
  cfg.instructions_per_core = 20000;
  const auto& bench = workload::benchmark_by_name("FMM");
  const auto checksum = [&](const std::vector<sim::AccountingView>& views) {
    sim::CmpSystem sys(sim::normalized_run_config(cfg, bench), bench);
    obs::IntervalSampler s(7777);
    sys.set_sampler(&s);
    sys.run(views);
    EXPECT_GT(s.rows(), 1u);
    return s.checksum();
  };
  sim::AccountingView second = sim::AccountingView::of(cfg);
  second.l2 = protocol;
  EXPECT_EQ(checksum({sim::AccountingView::of(cfg)}),
            checksum({sim::AccountingView::of(cfg), second}));
}

TEST(IntervalSampler, WindowsCloseAtEventsOnGatedMachines) {
  // A period off the power-sample grid, so boundaries fall between events,
  // on a machine whose L1, L2 and L3 all gate lines: a window closes at the
  // first event at or after its boundary, so no powered-line integral is
  // read before its last change (which aborted), and the sampled run
  // equals the detached one.
  const decay::DecayConfig d{decay::Technique::kSelectiveDecay, 4096, 4};
  const sim::SystemConfig cfg = mesh16_3l_dram(d);
  const std::string csv = tmp_path("obs_gated") + ".csv";
  const sim::RunMetrics sampled = run_sampled(cfg, 2500, csv);
  const SeriesSums s = sum_series(csv);
  std::remove(csv.c_str());
  EXPECT_TRUE(s.tiles);
  EXPECT_EQ(s.end, sampled.cycles);
  EXPECT_EQ(s.instructions, sampled.instructions);

  const auto& bench = workload::benchmark_by_name("FMM");
  sim::CmpSystem plain(sim::normalized_run_config(cfg, bench), bench);
  EXPECT_EQ(sim::first_difference(plain.run(), sampled), "");
}

// --- the observer-only contract ---------------------------------------------

TEST(Observability, AttachedVsDetachedMetricsAreBitIdentical) {
  const sim::RunMetrics plain = run_small(nullptr, nullptr);

  const std::string path = tmp_path("obs_attached") + ".cdtl";
  obs::TraceRecorder rec;
  ASSERT_TRUE(rec.open(path));
  obs::IntervalSampler s(5000);
  const sim::RunMetrics traced = run_small(&rec, &s);
  ASSERT_TRUE(rec.close());
  std::remove(path.c_str());

  // Bit-for-bit across every leaf, doubles by their IEEE bits.
  EXPECT_EQ(sim::first_difference(plain, traced), "");
}

TEST(Observability, DramMachineTracesAndStaysBitIdentical) {
  // The memory-side emission points (bank access spans, refresh instants,
  // TLB walks) ride the kDram model; prove they are observer-only too and
  // that they actually show up in the file.
  decay::DecayConfig d{decay::Technique::kDecay, 64 * 1024, 4};
  sim::SystemConfig cfg = sim::make_system_config(1 * MiB, d);
  cfg.instructions_per_core = 20000;
  cfg.mem.model = mem::MemoryModel::kDram;
  cfg.mem.tlb.enabled = true;
  const auto& bench = workload::benchmark_by_name("mpeg2enc");

  sim::CmpSystem plain_sys(sim::normalized_run_config(cfg, bench), bench);
  const sim::RunMetrics plain = plain_sys.run();

  const std::string path = tmp_path("obs_dram") + ".cdtl";
  obs::TraceRecorder rec;
  ASSERT_TRUE(rec.open(path));
  sim::CmpSystem traced_sys(sim::normalized_run_config(cfg, bench), bench);
  traced_sys.set_trace_recorder(&rec);
  const sim::RunMetrics traced = traced_sys.run();
  ASSERT_TRUE(rec.close());

  EXPECT_EQ(sim::first_difference(plain, traced), "");

  const std::string text = render(path);
  std::remove(path.c_str());
  EXPECT_TRUE(obs::json_check(text).ok);
  EXPECT_NE(text.find("\"dram.c0\""), std::string::npos);
  EXPECT_NE(text.find("\"dram.c0.b0\""), std::string::npos);
  EXPECT_NE(text.find("\"tlb.0\""), std::string::npos);
  EXPECT_EQ(fnv1a64(text), kDramRenderFnv)
      << std::hex << "live value 0x" << fnv1a64(text);
}

// --- golden series pin ------------------------------------------------------

// The time-series analogue of the golden hexfloat metrics: the FNV-1a64
// checksum over every SampleRow's raw bit patterns for one pinned config.
// Captured by running this test and printing sampler.checksum() with
// "%016llx" (the EXPECT_EQ failure message shows the live value). If an
// intentional modeling change shifts it, re-capture in the same commit —
// never widen to a tolerance; the checksum has none.
TEST(Observability, GoldenSeriesChecksumIsPinned) {
  obs::IntervalSampler s(10000);  // checksum-only: no CSV sink needed
  const sim::RunMetrics m = run_small(nullptr, &s);
  EXPECT_EQ(m.instructions, 80000u);
  EXPECT_EQ(s.rows(), (m.cycles + 9999) / 10000);
  EXPECT_EQ(s.checksum(), 0x97068239618517edULL);
}

// --- host profiler ----------------------------------------------------------

TEST(HostProfiler, ScopedPhaseAccumulatesOnlyWhenEnabled) {
  using prof::HostProfiler;
  using prof::Phase;
  HostProfiler::reset();

  {  // Disabled (the default): a scope leaves no trace.
    const prof::ScopedPhase scope(Phase::kOracle);
  }
  EXPECT_EQ(HostProfiler::calls(Phase::kOracle), 0u);
  EXPECT_EQ(HostProfiler::nanos(Phase::kOracle), 0u);

  HostProfiler::set_enabled(true);
  {
    const prof::ScopedPhase scope(Phase::kOracle);
  }
  {
    const prof::ScopedPhase scope(Phase::kOracle);
  }
  HostProfiler::set_enabled(false);
  EXPECT_EQ(HostProfiler::calls(Phase::kOracle), 2u);

  HostProfiler::reset();
  EXPECT_EQ(HostProfiler::calls(Phase::kOracle), 0u);
}

TEST(HostProfiler, ProfiledRunIsStillBitIdentical) {
  // The profiler reads the wall clock, but its measurements flow only into
  // host-side counters — simulated results cannot move.
  const sim::RunMetrics plain = run_small(nullptr, nullptr);
  prof::HostProfiler::reset();
  prof::HostProfiler::set_enabled(true);
  const sim::RunMetrics profiled = run_small(nullptr, nullptr);
  prof::HostProfiler::set_enabled(false);
  EXPECT_EQ(sim::first_difference(plain, profiled), "");
  // The run loop was really measured.
  EXPECT_GT(prof::HostProfiler::calls(prof::Phase::kEventDispatch), 0u);
  EXPECT_GT(prof::HostProfiler::nanos(prof::Phase::kEventDispatch), 0u);
  prof::HostProfiler::reset();
}

}  // namespace
