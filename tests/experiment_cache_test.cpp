// ExperimentRunner disk-cache behavior: lossless round-trips across
// processes, graceful handling of corrupt, edited and truncated cache
// files, the append-only checksummed log, strict CDSIM_* env parsing, and
// run_config's CDSIM_VERIFY / CDSIM_VERIFY_TRACE path.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "cdsim/common/hash.hpp"
#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/workload/benchmarks.hpp"
#include "cdsim/workload/trace_source.hpp"
#include "cdsim/workload/trace_v2.hpp"

namespace {

using namespace cdsim;

constexpr std::uint64_t kInstr = 50'000;

const workload::Benchmark& bench() {
  return workload::benchmark_suite().front();
}

decay::DecayConfig protocol() {
  return decay::DecayConfig{decay::Technique::kProtocol, 0, 4};
}

// mpeg2enc / 1 MiB / protocol() at kPinInstr as the cache persists it:
// the key, then every RunMetrics leaf after the labels (kRunMetricsFields
// order), then the line's checksum. The payload was captured from the
// build that introduced cache v5; v6 re-pinned only the key, which now
// names every machine leaf, v7 only the key again, which names one machine
// line_bytes, and v8 only the version tag and the checksum suffix.
constexpr std::uint64_t kPinInstr = 5'000;
constexpr const char* kPinnedLine =
    "mpeg2enc/1048576/protocol/num_cores=4;topology=bus;hierarchy=2L;"
    "total_l2_bytes=1048576;total_l3_bytes=16777216;line_bytes=64;"
    "protocol=MESI;core.issue_width=4;core.max_outstanding_loads=48;"
    "core.rob_window=512;l1.size_bytes=32768;l1.ways=4;l1.hit_latency=2;"
    "l1.mshr_entries=16;l1.write_buffer_entries=12;l1.drain_interval=1;"
    "l1.max_drains_in_flight=8;l2.ways=8;l2.hit_latency=12;"
    "l2.mshr_entries=24;l2.retry_interval=4;l2.l1_inval_latency=2;"
    "l3.ways=16;l3.hit_latency=24;"
    "bus.arbitration_latency=2;bus.address_phase=2;bus.bytes_per_cycle=16;"
    "bus.cache_to_cache_latency=10;dmesh.noc.router_latency=1;"
    "dmesh.noc.link_latency=1;dmesh.noc.flit_bytes=16;"
    "dmesh.noc.header_bytes=8;dmesh.noc.link_credits=4;"
    "dmesh.directory_latency=3;dmesh.bank_occupancy=1;dmesh.ctrl_bytes=8;"
    "dmesh.mem_tile=0;mem.model=flat;"
    "mem.read_latency=130;mem.bytes_per_cycle=16;mem.posted_writes=true;"
    "mem.dram.channels=2;mem.dram.ranks_per_channel=2;"
    "mem.dram.banks_per_rank=8;mem.dram.row_bytes=2048;"
    "mem.dram.interleave_bytes=64;mem.dram.queue_depth=16;"
    "mem.dram.starvation_limit=4;mem.dram.t_rcd=40;mem.dram.t_rp=40;"
    "mem.dram.t_cas=35;mem.dram.t_refi=27300;mem.dram.t_rfc=1225;"
    "mem.tlb.enabled=false;mem.tlb.entries=64;mem.tlb.page_bytes=4096;"
    "mem.tlb.miss_walk_latency=60;decay.technique=protocol;"
    "decay.decay_time=0;decay.hierarchical_ticks=4;"
    "l1_decay.technique=baseline;l1_decay.decay_time=524288;"
    "l1_decay.hierarchical_ticks=4;l3_decay.technique=baseline;"
    "l3_decay.decay_time=524288;l3_decay.hierarchical_ticks=4;"
    "power.l2_leak_per_line_cycle=4e-05;power.gated_vdd_overhead=0.05;"
    "power.off_residual_frac=0.03;power.l2_dyn_per_access=0.12;"
    "power.l2_dyn_per_fill=0.25;power.decay_counter_leak_frac=0.01;"
    "power.decay_counter_dyn=0.002;power.core_leak_per_cycle=0.55;"
    "power.core_dyn_per_instr=0.4;power.l1_leak_per_cycle=0.06;"
    "power.l1_dyn_per_access=0.03;power.bus_dyn_per_byte=0.004;"
    "power.noc_dyn_per_flit_hop=0.05;power.l3_leak_per_line_cycle=2e-05;"
    "power.l3_dyn_per_access=0.2;power.l3_dyn_per_fill=0.35;"
    "power.dram_act_energy=1.2;power.dram_pre_energy=0.6;"
    "leakage.t0_kelvin=343;leakage.beta=0.014;thermal.ambient_kelvin=318;"
    "thermal.watts_per_eu_cycle=9;thermal.clock_hz=3e+09;"
    "thermal.sample_period=10000;thermal.lateral_r=4;thermal_feedback=true;"
    "instructions_per_core=5000;per_core_instructions=[];seed=42"
    "/v8|12481 20008 1.6030766765483535 "
    "0.031380848303483797 0.6739965095986038 2865 1931 0 0 0 0 "
    "108.8975988700565 4.8560211521512695 60608 32142.993739197933 "
    "329.78714193845644 0.45525198301418157 8003.2000000000007 "
    "20459.333562476651 235.80000000000001 2231.9272977247256 "
    "580.55000000000007 207.10253704653357 182.64834195002007 "
    "242.43200000000002 0 0 0 0 0 0 0 0 bus 0 0 0 0 0 2L 0 7860 1605 6255 0 "
    "0 0 1 2865 934 1931 0 0 0 0.031380848303483797 0 0 0 0 0 0 1 flat 0 0 0 "
    "0 0 0 0 0 0|699c7b5472c668be";

/// `body` ("<key>|<payload>") as a cache line with a valid checksum.
std::string checksummed(const std::string& body) {
  std::array<char, 17> hex{};
  std::snprintf(hex.data(), hex.size(), "%016llx",
                static_cast<unsigned long long>(fnv1a(body)));
  return body + '|' + hex.data();
}

/// kPinnedLine without its checksum suffix.
std::string pinned_body() {
  const std::string line = kPinnedLine;
  return line.substr(0, line.rfind('|'));
}

class ExperimentCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv("CDSIM_INSTR");
    ::unsetenv("CDSIM_CACHE_FILE");
    ::unsetenv("CDSIM_VERIFY");
    ::unsetenv("CDSIM_VERIFY_TRACE");
  }

  std::string cache_path(const std::string& tag) {
    const std::string p = ::testing::TempDir() + "cdsim_cache_" + tag + "_" +
                          ::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name() +
                          ".cache";
    std::remove(p.c_str());
    return p;
  }
};

TEST_F(ExperimentCacheTest, RoundTripIsLossless) {
  const std::string path = cache_path("roundtrip");

  sim::RunMetrics first;
  {
    sim::ExperimentRunner writer(kInstr, path);
    first = writer.run(bench(), 1 * MiB, protocol());
  }
  // A new runner on the same file must serve the result from disk without
  // re-simulating, and the deserialized metrics must match exactly (the
  // cache stores doubles with max_digits10 precision).
  sim::ExperimentRunner reader(kInstr, path);
  const sim::SweepStats sweep =
      reader.run_grid({bench()}, {1 * MiB}, {});  // baseline not cached yet
  EXPECT_EQ(sweep.reused, 0u);
  EXPECT_EQ(sweep.simulated, 1u);
  EXPECT_EQ(sim::first_difference(first,
                                  reader.run(bench(), 1 * MiB, protocol())),
            "");
}

TEST_F(ExperimentCacheTest, CachedEntriesAreNotResimulated) {
  const std::string path = cache_path("reuse");
  {
    sim::ExperimentRunner writer(kInstr, path);
    writer.run_grid({bench()}, {1 * MiB}, {protocol()});
  }
  sim::ExperimentRunner reader(kInstr, path);
  const sim::SweepStats sweep =
      reader.run_grid({bench()}, {1 * MiB}, {protocol()});
  EXPECT_EQ(sweep.simulated, 0u);
  EXPECT_EQ(sweep.reused, 2u);
}

TEST_F(ExperimentCacheTest, CorruptLinesAreIgnoredAndResimulated) {
  const std::string path = cache_path("corrupt");
  sim::RunMetrics reference;
  {
    sim::ExperimentRunner clean(kPinInstr, cache_path("corrupt_ref"));
    reference = clean.run(bench(), 1 * MiB, protocol());
  }
  // The pinned line with ledger.core_dyn negated: it parses, but energy
  // only accumulates, so loading it would trip EnergyLedger::add. It and
  // the line with a token too many carry valid checksums, so deserialize
  // is what rejects them.
  const std::string core_dyn = " 8003.2000000000007 ";
  std::string negative = pinned_body();
  negative.replace(negative.find(core_dyn), core_dyn.size(), " -1 ");

  {
    std::ofstream out(path);
    out << "this line has no separator\n"
        << "key/with/bar|but then garbage fields here\n"
        << "WATER-NS/1/protocol/50000/v2|1 2 3\n"  // truncated payload
        << "|\n"
        << "\n"
        << "\x01\x02\x03|\x04\x05\n"
        << checksummed(negative) << '\n'
        << checksummed(pinned_body() + " 7") << '\n';  // a token too many
  }

  // Loading must not crash, and none of the junk may masquerade as a
  // result: the real configuration gets re-simulated and matches the
  // clean-cache reference bit-for-bit.
  sim::ExperimentRunner runner(kPinInstr, path);
  const sim::SweepStats sweep =
      runner.run_grid({bench()}, {1 * MiB}, {protocol()});
  EXPECT_EQ(sweep.simulated, 2u);
  EXPECT_EQ(sweep.reused, 0u);
  EXPECT_EQ(sim::first_difference(reference,
                                  runner.run(bench(), 1 * MiB, protocol())),
            "");
}

TEST_F(ExperimentCacheTest, TruncatedTailIsIgnored) {
  const std::string path = cache_path("truncated");
  {
    sim::ExperimentRunner writer(kInstr, path);
    writer.run(bench(), 1 * MiB, protocol());
  }
  // Chop the file mid-line, as if a writer died partway through.
  const auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, 20u);
  std::filesystem::resize_file(path, size - 15);

  sim::ExperimentRunner runner(kInstr, path);
  const sim::SweepStats sweep =
      runner.run_grid({bench()}, {1 * MiB}, {protocol()});
  EXPECT_GE(sweep.simulated, 1u);  // the damaged entry ran again
  // And the repaired cache is complete again afterwards.
  sim::ExperimentRunner reader(kInstr, path);
  EXPECT_EQ(reader.run_grid({bench()}, {1 * MiB}, {protocol()}).simulated, 0u);
}

TEST_F(ExperimentCacheTest, StaleVersionEntriesAreNotLoaded) {
  // The pinned line in the v4 format: v4 key, 14 ledger components (no
  // DRAM ones), no memory-side tail and no checksum. Only the current
  // version loads.
  std::string v4 = pinned_body();
  v4.replace(v4.find("/v8|"), 4, "/v4|");
  v4.replace(v4.find(" 0 0 bus "), 9, " bus ");
  v4.erase(v4.find(" flat "));

  const std::string path = cache_path("stale");
  std::string v1 = "WATER-NS/1/protocol/50000/v1|1";
  for (int i = 2; i <= 27; ++i) {
    v1 += ' ';
    v1 += std::to_string(i);
  }
  {
    // Well-formed lines from older cache versions: the payloads parse, but
    // the keys' version tags are not current.
    std::ofstream out(path);
    out << v1 << '\n' << v4 << '\n';
  }

  sim::ExperimentRunner runner(kPinInstr, path);
  // Neither entry may satisfy a lookup...
  const sim::SweepStats sweep =
      runner.run_grid({bench()}, {1 * MiB}, {protocol()});
  EXPECT_EQ(sweep.simulated, 2u);
  EXPECT_EQ(sweep.reused, 0u);

  // ...and the file holds them as written, followed by the two appended
  // current-version lines.
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], v1);
  EXPECT_EQ(lines[1], v4);
  for (std::size_t i = 2; i < lines.size(); ++i) {
    EXPECT_TRUE(lines[i].find("/v8|") != std::string::npos) << lines[i];
  }
}

// An edited digit fails the line's checksum: the cell runs again and the
// true value is served, never the edited one.
TEST_F(ExperimentCacheTest, EditedLineIsNotServed) {
  const std::string path = cache_path("edited");
  sim::RunMetrics truth;
  {
    sim::ExperimentRunner writer(kPinInstr, path);
    truth = writer.run(bench(), 1 * MiB, protocol());
  }
  std::string line;
  {
    std::ifstream in(path);
    ASSERT_TRUE(std::getline(in, line));
  }
  // The first payload token is the cycle count.
  char& digit = line[line.find('|') + 1];
  ASSERT_TRUE(digit >= '1' && digit <= '8') << line;
  ++digit;
  std::ofstream(path) << line << '\n';

  sim::ExperimentRunner reader(kPinInstr, path);
  const sim::SweepStats sweep =
      reader.run_grid({bench()}, {1 * MiB}, {protocol()});
  EXPECT_EQ(sweep.simulated, 2u);  // the edited protocol cell ran again
  EXPECT_EQ(sweep.reused, 0u);
  EXPECT_EQ(sim::first_difference(truth,
                                  reader.run(bench(), 1 * MiB, protocol())),
            "");
}

// The persisted line, pinned byte for byte: a cache written by any build
// of this cache version must keep hitting. A schema change bumps
// kCacheVersion rather than editing kPinnedLine.
TEST_F(ExperimentCacheTest, PersistedLineIsPinned) {
  const std::string path = cache_path("pin");
  {
    sim::ExperimentRunner writer(kPinInstr, path);
    writer.run(bench(), 1 * MiB, protocol());
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, kPinnedLine);
  EXPECT_FALSE(std::getline(in, line));
}

TEST_F(ExperimentCacheTest, PersistLeavesNoTempFilesAndParsableLines) {
  const std::string path = cache_path("atomic");
  sim::ExperimentRunner runner(kInstr, path);
  runner.run_grid({bench()}, {1 * MiB}, {protocol()});

  const auto dir = std::filesystem::path(path).parent_path();
  const auto stem = std::filesystem::path(path).filename().string();
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_FALSE(name.rfind(stem + ".tmp.", 0) == 0)
        << "leftover temp file: " << name;
  }

  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NE(line.find('|'), std::string::npos) << line;
  }
  EXPECT_EQ(lines, 2u);  // baseline + protocol
}

// CDSIM_VERIFY attaches the oracle without moving a result, and
// CDSIM_VERIFY_TRACE captures the verified run as one .cdt file whose
// replay is the same run.
TEST_F(ExperimentCacheTest, VerifiedCaptureReplaysTheRun) {
  const workload::Benchmark& fmm = workload::benchmark_by_name("FMM");
  sim::SystemConfig cfg = sim::make_system_config(
      1 * MiB, decay::DecayConfig{decay::Technique::kDecay, 64 * 1024, 4});
  cfg.instructions_per_core = 30'000;
  const sim::RunMetrics plain = sim::run_config(cfg, fmm);

  const std::filesystem::path dir = cache_path("vcap") + ".d";
  std::filesystem::remove_all(dir);
  ::setenv("CDSIM_VERIFY", "1", 1);
  ::setenv("CDSIM_VERIFY_TRACE", dir.c_str(), 1);
  const sim::RunMetrics verified = sim::run_config(cfg, fmm);
  ::unsetenv("CDSIM_VERIFY");
  ::unsetenv("CDSIM_VERIFY_TRACE");
  EXPECT_EQ(sim::first_difference(plain, verified), "");

  std::vector<std::string> captures;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    captures.push_back(entry.path().string());
  }
  ASSERT_EQ(captures.size(), 1u);
  EXPECT_TRUE(captures[0].ends_with(".cdt")) << captures[0];

  const std::string path = captures[0];
  const workload::TraceOpener open = [path] {
    return workload::open_trace_source(path);
  };
  sim::SystemConfig replay = sim::normalized_run_config(cfg, fmm);
  replay.per_core_instructions = open()->per_core_instructions();
  sim::CmpSystem sys(replay, fmm, workload::replay_factory(open));
  EXPECT_EQ(sim::first_difference(plain, sys.run()), "");
  std::filesystem::remove_all(dir);
}

// A verified run the validator rejects (a decaying L2 with decay_time 0)
// throws before simulating, and leaves no capture behind: only a finished
// run's writer makes a .cdt.
TEST_F(ExperimentCacheTest, RejectedVerifiedRunLeavesNoCapture) {
  const workload::Benchmark& fmm = workload::benchmark_by_name("FMM");
  sim::SystemConfig cfg = sim::make_system_config(
      1 * MiB, decay::DecayConfig{decay::Technique::kDecay, 0, 4});
  cfg.instructions_per_core = 2'000;
  const std::filesystem::path dir = cache_path("vreject") + ".d";
  std::filesystem::remove_all(dir);
  ::setenv("CDSIM_VERIFY", "1", 1);
  ::setenv("CDSIM_VERIFY_TRACE", dir.c_str(), 1);
  EXPECT_THROW((void)sim::run_config(cfg, fmm), std::invalid_argument);
  ::unsetenv("CDSIM_VERIFY");
  ::unsetenv("CDSIM_VERIFY_TRACE");
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST_F(ExperimentCacheTest, ParsePositiveU64) {
  using sim::detail::parse_positive_u64;
  EXPECT_EQ(parse_positive_u64("1"), 1u);
  EXPECT_EQ(parse_positive_u64("4000000"), 4000000u);
  EXPECT_EQ(parse_positive_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());

  EXPECT_FALSE(parse_positive_u64(nullptr).has_value());
  EXPECT_FALSE(parse_positive_u64("").has_value());
  EXPECT_FALSE(parse_positive_u64("0").has_value());
  EXPECT_FALSE(parse_positive_u64("-5").has_value());
  EXPECT_FALSE(parse_positive_u64("+5").has_value());
  EXPECT_FALSE(parse_positive_u64(" 5").has_value());
  EXPECT_FALSE(parse_positive_u64("5 ").has_value());
  EXPECT_FALSE(parse_positive_u64("12x").has_value());
  EXPECT_FALSE(parse_positive_u64("0x10").has_value());
  EXPECT_FALSE(parse_positive_u64("1e6").has_value());
  // One past uint64 max, and something absurdly long.
  EXPECT_FALSE(parse_positive_u64("18446744073709551616").has_value());
  EXPECT_FALSE(parse_positive_u64("999999999999999999999999").has_value());
  // parse_u64 is the same syntax with zero allowed.
  EXPECT_EQ(sim::detail::parse_u64("0"), 0u);
  EXPECT_EQ(sim::detail::parse_u64("42"), 42u);
  EXPECT_FALSE(sim::detail::parse_u64("4x").has_value());
  EXPECT_FALSE(sim::detail::parse_u64("-1").has_value());
}

// The runner's constructor rejects a malformed CDSIM_INSTR and an empty
// CDSIM_CACHE_FILE by throwing std::invalid_argument naming the variable,
// so a binary can exit with a usage status instead of aborting.
void expect_rejected(const std::string& variable, std::uint64_t instr) {
  try {
    sim::ExperimentRunner runner(instr, "");
    ADD_FAILURE() << "no exception for " << variable;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(variable), std::string::npos)
        << e.what();
  }
}

TEST_F(ExperimentCacheTest, RejectsMalformedInstrEnv) {
  for (const char* bad : {"lots", "-3", "12x"}) {
    SCOPED_TRACE(bad);
    ::setenv("CDSIM_INSTR", bad, 1);
    expect_rejected("CDSIM_INSTR", 0);
  }
  ::unsetenv("CDSIM_INSTR");
}

TEST_F(ExperimentCacheTest, RejectsEmptyCacheFileEnv) {
  ::setenv("CDSIM_CACHE_FILE", "", 1);
  expect_rejected("CDSIM_CACHE_FILE", kInstr);
  ::unsetenv("CDSIM_CACHE_FILE");
}

}  // namespace
