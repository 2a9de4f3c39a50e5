// Parallel sweep engine: ThreadPool behavior, and the central determinism
// contract — a run_grid sweep sharded across >= 4 workers produces
// RunMetrics bit-identical to running the same configurations serially
// through ExperimentRunner::run().

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "cdsim/sim/experiment.hpp"
#include "cdsim/sim/parallel.hpp"
#include "cdsim/workload/benchmarks.hpp"

namespace {

using namespace cdsim;

class ParallelRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The runner reads these; keep the test hermetic.
    ::unsetenv("CDSIM_INSTR");
    ::unsetenv("CDSIM_CACHE_FILE");
  }

  // A fresh per-test cache path (the file must not pre-exist).
  std::string cache_path(const std::string& tag) {
    const std::string p = ::testing::TempDir() + "cdsim_parallel_" + tag +
                          "_" +
                          ::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name() +
                          ".cache";
    std::remove(p.c_str());
    return p;
  }

  static constexpr std::uint64_t kInstr = 60'000;
};

TEST_F(ParallelRunnerTest, PoolRunsEveryIndexExactlyOnce) {
  sim::ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);

  constexpr std::size_t kN = 257;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_F(ParallelRunnerTest, PoolWaitIdleIsABarrier) {
  sim::ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&done] { done.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 64);
  // The pool is reusable after a barrier.
  pool.parallel_for(16, [&done](std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 80);
}

TEST_F(ParallelRunnerTest, PoolRethrowsTaskExceptionAtBarrier) {
  sim::ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [](std::size_t i) {
                                   if (i == 3) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool survives a throwing task and remains usable.
  std::atomic<int> done{0};
  pool.parallel_for(4, [&done](std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 4);
}

TEST_F(ParallelRunnerTest, PoolDefaultsToAtLeastOneWorker) {
  sim::ThreadPool pool;  // workers = hardware_concurrency, floor 1
  EXPECT_GE(pool.worker_count(), 1u);
}

TEST_F(ParallelRunnerTest, ParallelGridIsBitIdenticalToSerial) {
  const auto& suite = workload::benchmark_suite();
  ASSERT_GE(suite.size(), 2u);
  const std::vector<workload::Benchmark> benches{suite[0], suite[3]};
  const std::vector<std::uint64_t> sizes{1 * MiB, 2 * MiB};
  // Decay-heavy mix on purpose: the expiry-wheel sweep, its gated-line
  // retries, and a non-default hierarchical tick count must all stay
  // bit-identical between the serial and the sharded engine.
  const std::vector<decay::DecayConfig> techs{
      {decay::Technique::kProtocol, 0, 4},
      {decay::Technique::kDecay, 128 * 1024, 4},
      {decay::Technique::kSelectiveDecay, 64 * 1024, 4},
      {decay::Technique::kDecay, 64 * 1024, 8},
  };
  const decay::DecayConfig baseline{decay::Technique::kBaseline, 0, 4};

  // Serial reference: plain run() calls, one configuration at a time.
  sim::ExperimentRunner serial(kInstr, cache_path("serial"));
  // Parallel: the same grid sharded across 4 workers.
  sim::ExperimentRunner parallel(kInstr, cache_path("parallel"));
  const sim::SweepStats sweep = parallel.run_grid(benches, sizes, techs, 4);
  EXPECT_EQ(sweep.workers, 4u);
  // 2 benchmarks x 2 sizes x (4 techniques + baseline), all fresh.
  EXPECT_EQ(sweep.simulated, 20u);
  EXPECT_EQ(sweep.reused, 0u);

  for (const auto& bench : benches) {
    for (const std::uint64_t bytes : sizes) {
      for (const auto* tech :
           {&baseline, &techs[0], &techs[1], &techs[2], &techs[3]}) {
        SCOPED_TRACE(bench.config.name + "/" + std::to_string(bytes / MiB) +
                     "MB/" + tech->label());
        EXPECT_EQ(sim::first_difference(serial.run(bench, bytes, *tech),
                                        parallel.run(bench, bytes, *tech)),
                  "");
      }
    }
  }
}

TEST_F(ParallelRunnerTest, GridIsMemoizedAcrossCalls) {
  const auto& suite = workload::benchmark_suite();
  const std::vector<workload::Benchmark> benches{suite[0]};
  const std::vector<std::uint64_t> sizes{1 * MiB};
  const std::vector<decay::DecayConfig> techs{
      {decay::Technique::kProtocol, 0, 4}};

  sim::ExperimentRunner runner(kInstr, cache_path("memo"));
  const sim::SweepStats first = runner.run_grid(benches, sizes, techs, 2);
  EXPECT_EQ(first.simulated, 2u);  // baseline + protocol
  EXPECT_EQ(first.reused, 0u);

  const sim::SweepStats second = runner.run_grid(benches, sizes, techs, 2);
  EXPECT_EQ(second.simulated, 0u);
  EXPECT_EQ(second.reused, 2u);
  EXPECT_EQ(second.workers, 0u);  // nothing ran, no pool spun up
}

TEST_F(ParallelRunnerTest, GridDeduplicatesRepeatedCells) {
  const auto& suite = workload::benchmark_suite();
  const std::vector<workload::Benchmark> benches{suite[0]};
  const std::vector<std::uint64_t> sizes{1 * MiB, 1 * MiB};  // duplicate
  const std::vector<decay::DecayConfig> techs{
      {decay::Technique::kProtocol, 0, 4},
      {decay::Technique::kProtocol, 0, 4},  // duplicate
      // Baseline listed explicitly collapses with the implicit one.
      {decay::Technique::kBaseline, 0, 4},
  };

  sim::ExperimentRunner runner(kInstr, cache_path("dedupe"));
  const sim::SweepStats sweep = runner.run_grid(benches, sizes, techs, 2);
  EXPECT_EQ(sweep.simulated, 2u);  // baseline + protocol, once each
}

TEST_F(ParallelRunnerTest, ConfigSeedIsStableAndPerKey) {
  const std::uint64_t a = sim::derive_config_seed("FMM/1/decay128K/60000/v2");
  const std::uint64_t b = sim::derive_config_seed("FMM/1/decay128K/60000/v2");
  const std::uint64_t c = sim::derive_config_seed("FMM/2/decay128K/60000/v2");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
