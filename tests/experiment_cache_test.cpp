// ExperimentRunner disk-cache behavior: lossless round-trips across
// processes, graceful handling of corrupt/truncated cache files, atomic
// (temp + rename) persistence, and strict CDSIM_* env parsing.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "cdsim/sim/experiment.hpp"
#include "cdsim/workload/benchmarks.hpp"

namespace {

using namespace cdsim;

constexpr std::uint64_t kInstr = 50'000;

const workload::Benchmark& bench() {
  return workload::benchmark_suite().front();
}

decay::DecayConfig protocol() {
  return decay::DecayConfig{decay::Technique::kProtocol, 0, 4};
}

void expect_metrics_identical(const sim::RunMetrics& a,
                              const sim::RunMetrics& b) {
  EXPECT_EQ(a.benchmark, b.benchmark);
  EXPECT_EQ(a.technique, b.technique);
  EXPECT_EQ(a.total_l2_bytes, b.total_l2_bytes);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.l2_occupation, b.l2_occupation);
  EXPECT_EQ(a.l2_miss_rate, b.l2_miss_rate);
  EXPECT_EQ(a.amat, b.amat);
  EXPECT_EQ(a.mem_bandwidth, b.mem_bandwidth);
  EXPECT_EQ(a.mem_bytes, b.mem_bytes);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.avg_l2_temp_kelvin, b.avg_l2_temp_kelvin);
  EXPECT_EQ(a.bus_utilization, b.bus_utilization);
  for (std::size_t i = 0; i < power::kNumComponents; ++i) {
    const auto c = static_cast<power::Component>(i);
    EXPECT_EQ(a.ledger.get(c), b.ledger.get(c)) << to_string(c);
  }
}

class ExperimentCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv("CDSIM_INSTR");
    ::unsetenv("CDSIM_CACHE_FILE");
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
  expect_metrics_identical(first, reader.run(bench(), 1 * MiB, protocol()));
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
    sim::ExperimentRunner clean(kInstr, cache_path("corrupt_ref"));
    reference = clean.run(bench(), 1 * MiB, protocol());
  }

  {
    std::ofstream out(path);
    out << "this line has no separator\n"
        << "key/with/bar|but then garbage fields here\n"
        << "WATER-NS/1/protocol/50000/v2|1 2 3\n"  // truncated payload
        << "|\n"
        << "\n"
        << "\x01\x02\x03|\x04\x05\n";
  }

  // Loading must not crash, and none of the junk may masquerade as a
  // result: the real configuration gets re-simulated and matches the
  // clean-cache reference bit-for-bit.
  sim::ExperimentRunner runner(kInstr, path);
  const sim::SweepStats sweep =
      runner.run_grid({bench()}, {1 * MiB}, {protocol()});
  EXPECT_EQ(sweep.simulated, 2u);
  EXPECT_EQ(sweep.reused, 0u);
  expect_metrics_identical(reference, runner.run(bench(), 1 * MiB, protocol()));
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

TEST_F(ExperimentCacheTest, StaleVersionEntriesAreNeitherLoadedNorKept) {
  const std::string path = cache_path("stale");
  {
    // A well-formed line from an older cache version: the payload parses,
    // but the key's version tag is not current.
    std::ofstream out(path);
    out << "WATER-NS/1/protocol/50000/v1|";
    for (int i = 0; i < 27; ++i) out << (i ? " " : "") << i + 1;
    out << '\n';
  }

  sim::ExperimentRunner runner(kInstr, path);
  // The v1 entry must not satisfy any lookup...
  const sim::SweepStats sweep =
      runner.run_grid({bench()}, {1 * MiB}, {protocol()});
  EXPECT_EQ(sweep.simulated, 2u);
  EXPECT_EQ(sweep.reused, 0u);

  // ...and the rewritten file must have dropped it.
  std::ifstream in(path);
  std::string line;
  std::size_t v1_lines = 0;
  while (std::getline(in, line)) {
    if (line.find("/v1|") != std::string::npos) ++v1_lines;
  }
  EXPECT_EQ(v1_lines, 0u);
}

TEST_F(ExperimentCacheTest, V4EntriesLoadThroughTheShimAndAreRekeyed) {
  // Build a genuine v5 cache entry, then rewrite it in the v4 line format
  // (v4 key suffix, 14-component ledger, no memory-side tail). The runner
  // must serve it through the loader shim — no re-simulation — with the
  // per-level blocks preserved exactly and the memory block defaulting to
  // a flat channel, and persist it back re-keyed to v5.
  const std::string path = cache_path("v4shim");
  sim::RunMetrics reference;
  {
    sim::ExperimentRunner writer(kInstr, path);
    reference = writer.run(bench(), 1 * MiB, protocol());
  }

  std::string key, payload;
  {
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    const auto bar = line.find('|');
    ASSERT_NE(bar, std::string::npos);
    key = line.substr(0, bar);
    payload = line.substr(bar + 1);
  }
  ASSERT_NE(key.find("/v5"), std::string::npos);

  // v5 payload: 17 prefix + kNumComponents ledger + 6 interconnect +
  // per-level tail + 10 memory-side tokens; v4 was the same minus the
  // memory tail with a 14-component ledger (components are append-only,
  // so the first 14 ledger values are the v4 ledger).
  std::vector<std::string> tok;
  {
    std::istringstream is(payload);
    std::string t;
    while (is >> t) tok.push_back(t);
  }
  const std::size_t ic = 17 + power::kNumComponents;  // interconnect start
  ASSERT_GE(tok.size(), ic + 6u + 10u);
  std::ostringstream v4;
  for (std::size_t i = 0; i < 17; ++i) v4 << (i ? " " : "") << tok[i];
  for (std::size_t i = 17; i < 17 + 14; ++i) v4 << ' ' << tok[i];
  for (std::size_t i = ic; i < tok.size() - 10; ++i) v4 << ' ' << tok[i];
  {
    std::ofstream out(path, std::ios::trunc);
    std::string v4key = key;
    v4key.replace(v4key.find("/v5"), 3, "/v4");
    out << v4key << '|' << v4.str() << '\n';
  }

  sim::ExperimentRunner reader(kInstr, path);
  const sim::SweepStats sweep =
      reader.run_grid({bench()}, {1 * MiB}, {});  // the baseline cell
  EXPECT_EQ(sweep.simulated, 1u);  // only the baseline; protocol() shimmed
  const sim::RunMetrics& shimmed = reader.run(bench(), 1 * MiB, protocol());
  EXPECT_EQ(shimmed.cycles, reference.cycles);
  EXPECT_EQ(shimmed.energy, reference.energy);
  // The v4 per-level blocks survive the shim exactly...
  EXPECT_EQ(shimmed.l1.accesses, reference.l1.accesses);
  EXPECT_EQ(shimmed.l2.accesses, reference.l2_accesses);
  EXPECT_EQ(shimmed.l2.misses, reference.l2_misses);
  EXPECT_EQ(shimmed.l2.writebacks, reference.l2_writebacks);
  EXPECT_EQ(shimmed.hierarchy, reference.hierarchy);
  // ...while the memory block defaults to the flat channel every v4 run
  // actually simulated.
  EXPECT_EQ(shimmed.mem_model, "flat");
  EXPECT_EQ(shimmed.dram_row_hits, 0u);
  EXPECT_EQ(shimmed.dram_activates, 0u);
  EXPECT_EQ(shimmed.tlb_misses, 0u);

  // The rewritten file carries only current-version keys.
  std::ifstream in(path);
  std::string line;
  std::size_t v4_lines = 0, v5_lines = 0;
  while (std::getline(in, line)) {
    if (line.find("/v4|") != std::string::npos) ++v4_lines;
    if (line.find("/v5|") != std::string::npos) ++v5_lines;
  }
  EXPECT_EQ(v4_lines, 0u);
  EXPECT_GE(v5_lines, 2u);  // the shimmed entry + the fresh baseline
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

using ExperimentCacheDeathTest = ExperimentCacheTest;

TEST_F(ExperimentCacheDeathTest, RejectsMalformedInstrEnv) {
  ::setenv("CDSIM_INSTR", "lots", 1);
  EXPECT_DEATH(sim::ExperimentRunner runner(0, "unused.cache"),
               "CDSIM_INSTR");
  ::setenv("CDSIM_INSTR", "-3", 1);
  EXPECT_DEATH(sim::ExperimentRunner runner(0, "unused.cache"),
               "CDSIM_INSTR");
  ::unsetenv("CDSIM_INSTR");
}

TEST_F(ExperimentCacheDeathTest, RejectsEmptyCacheFileEnv) {
  ::setenv("CDSIM_CACHE_FILE", "", 1);
  EXPECT_DEATH(sim::ExperimentRunner runner(kInstr),
               "CDSIM_CACHE_FILE");
  ::unsetenv("CDSIM_CACHE_FILE");
}

}  // namespace
