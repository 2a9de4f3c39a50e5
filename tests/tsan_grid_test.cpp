// tsan_grid_test — the ThreadSanitizer certification workload.
//
// parallel_runner_test pins the determinism contract (parallel == serial,
// bit-identical); this suite pins the *synchronization* contract that makes
// the parallel path sound. It deliberately provokes every cross-thread
// handoff in the sweep engine — slot-indexed result writes published by
// parallel_for's join, riders waiting on their drivers' latches,
// concurrent run() calls on one memo entry, run_grid racing concurrent
// run() calls, and four runners appending to one cache file at once — with
// small instruction counts so the whole suite stays fast under TSan's ~10x
// slowdown.
//
// Build with -DCDSIM_SANITIZE=thread and run this binary: any
// happens-before edge missing from parallel_for/ExperimentRunner shows up
// as a TSan report, and the assertions re-prove parallel == serial *in the
// instrumented build* (TSan changes timing radically, so the determinism
// contract must hold under it too, not just in the Release build the golden
// pins run in). .github/workflows/sanitizers.yml gates on exactly that.
// In an uninstrumented build this is just one more determinism suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cdsim/sim/experiment.hpp"
#include "cdsim/workload/benchmarks.hpp"

namespace {

using namespace cdsim;

class TsanGridTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv("CDSIM_INSTR");
    ::unsetenv("CDSIM_CACHE_FILE");
  }

  std::string cache_path(const std::string& tag) {
    const std::string p = ::testing::TempDir() + "cdsim_tsan_" + tag + "_" +
                          ::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name() +
                          ".cache";
    std::remove(p.c_str());
    return p;
  }

  // Small enough to keep a TSan-instrumented multi-config grid in seconds,
  // large enough that decay sweeps and writebacks actually happen.
  static constexpr std::uint64_t kInstr = 20'000;
};

// The tentpole assertion: a multi-config grid sharded across more workers
// than cells-per-wave, run in the instrumented build, is bit-identical to
// the same cells run serially. Decay techniques are included on purpose —
// the expiry wheel and gated-line retries are the paths where an ordering
// bug would first show up as a metrics diff.
TEST_F(TsanGridTest, ParallelGridMatchesSerialUnderInstrumentation) {
  const auto& suite = workload::benchmark_suite();
  ASSERT_GE(suite.size(), 4u);
  const std::vector<workload::Benchmark> benches{suite[0], suite[2]};
  const std::vector<std::uint64_t> sizes{1 * MiB, 2 * MiB};
  const std::vector<decay::DecayConfig> techs{
      {decay::Technique::kProtocol, 0, 4},
      {decay::Technique::kDecay, 64 * 1024, 4},
      {decay::Technique::kSelectiveDecay, 64 * 1024, 4},
  };
  const decay::DecayConfig baseline{decay::Technique::kBaseline, 0, 4};

  sim::ExperimentRunner serial(kInstr, cache_path("serial"));
  sim::ExperimentRunner parallel(kInstr, cache_path("parallel"));

  const sim::SweepStats sweep = parallel.run_grid(benches, sizes, techs, 8);
  EXPECT_EQ(sweep.simulated, 16u);  // 2 benches x 2 sizes x (3 techs + base)
  EXPECT_EQ(sweep.reused, 0u);

  for (const auto& bench : benches) {
    for (const std::uint64_t bytes : sizes) {
      for (const auto* tech : {&baseline, &techs[0], &techs[1], &techs[2]}) {
        SCOPED_TRACE(bench.config.name + "/" + std::to_string(bytes / MiB) +
                     "MB/" + tech->label());
        EXPECT_EQ(sim::first_difference(serial.run(bench, bytes, *tech),
                                        parallel.run(bench, bytes, *tech)),
                  "");
      }
    }
  }
}

// Riders waiting on their drivers: two machines on four workers, so the
// four leads (two drivers, two baselines) fill the first wave and every
// rider waits on its driver's latch. The 512K riders are served by the
// driver's run, written by the driver's thread and read after the rider's
// wait; the 4K ones are outlived, run on their own and write their own
// slots. Every cell equals its serial run.
TEST_F(TsanGridTest, CandidatesWaitingOnDriversMatchSerial) {
  const auto& suite = workload::benchmark_suite();
  const std::vector<workload::Benchmark> benches{suite[0], suite[2]};
  const std::vector<std::uint64_t> sizes{1 * MiB};
  using decay::Technique;
  const std::vector<decay::DecayConfig> techs{
      {Technique::kDecay, 512 * 1024, 4},
      {Technique::kSelectiveDecay, 512 * 1024, 4},
      {Technique::kDecay, 4 * 1024, 4},
      {Technique::kSelectiveDecay, 4 * 1024, 4},
  };

  sim::ExperimentRunner serial(kInstr, cache_path("serial"));
  sim::ExperimentRunner parallel(kInstr, cache_path("parallel"));
  const sim::SweepStats sweep = parallel.run_grid(benches, sizes, techs, 4);
  EXPECT_EQ(sweep.simulated, 10u);    // 2 machines x (4 techniques + base)
  EXPECT_EQ(sweep.timing_runs, 8u);   // sel_decay512K served on both

  std::vector<decay::DecayConfig> cells{sim::baseline_config()};
  cells.insert(cells.end(), techs.begin(), techs.end());
  for (const auto& bench : benches) {
    for (const auto& tech : cells) {
      SCOPED_TRACE(bench.config.name + "/" + tech.label());
      EXPECT_EQ(sim::first_difference(serial.run(bench, 1 * MiB, tech),
                                      parallel.run(bench, 1 * MiB, tech)),
                "");
    }
  }
}

// Memoization handoff: N threads request the SAME cell at once. Racing
// threads may each simulate it, but one entry is kept and everyone must
// read it. The handoff is the mu_ release by the inserting thread before
// the readers' acquire — if that edge were missing, TSan flags the map
// node reads here.
TEST_F(TsanGridTest, ConcurrentRunCallsShareOneMemoEntry) {
  const auto& suite = workload::benchmark_suite();
  const workload::Benchmark bench = suite[0];
  const decay::DecayConfig tech{decay::Technique::kDecay, 64 * 1024, 4};

  sim::ExperimentRunner runner(kInstr, cache_path("memo"));

  constexpr int kThreads = 8;
  std::vector<const sim::RunMetrics*> seen(kThreads, nullptr);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&runner, &bench, &tech, &seen, t] {
        seen[t] = &runner.run(bench, 1 * MiB, tech);
      });
    }
    for (auto& th : threads) th.join();
  }

  // std::map nodes are stable: every thread must have landed on the one
  // memoized entry, and its contents must match a fresh serial run.
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  sim::ExperimentRunner reference(kInstr, cache_path("memo_ref"));
  EXPECT_EQ(
      sim::first_difference(*seen[0], reference.run(bench, 1 * MiB, tech)),
      "");
}

// run_grid racing concurrent run() calls over an overlapping cell set: the
// grid's post-join merge detects cells a concurrent run() inserted first
// (counted as reused, not simulated) and every caller still sees identical
// metrics. This is the exact interleaving the merge's emplace-else-reused
// branch exists for.
TEST_F(TsanGridTest, GridRacingSerialRunsStaysCoherent) {
  const auto& suite = workload::benchmark_suite();
  const std::vector<workload::Benchmark> benches{suite[0]};
  const std::vector<std::uint64_t> sizes{1 * MiB};
  const std::vector<decay::DecayConfig> techs{
      {decay::Technique::kProtocol, 0, 4},
      {decay::Technique::kDecay, 64 * 1024, 4},
  };

  sim::ExperimentRunner runner(kInstr, cache_path("race"));

  sim::SweepStats sweep;
  std::thread grid([&] { sweep = runner.run_grid(benches, sizes, techs, 4); });
  // Meanwhile, request one of the grid's own cells serially.
  const sim::RunMetrics& direct =
      runner.run(benches[0], 1 * MiB, techs[1]);
  grid.join();

  // Whoever lost the race reused the winner's entry; either way the cell
  // count adds up and both views of the cell are the same object.
  EXPECT_EQ(sweep.simulated + sweep.reused, 3u);  // baseline + 2 techniques
  EXPECT_EQ(sim::first_difference(
                direct, runner.run(benches[0], 1 * MiB, techs[1])),
            "");
}

// Four runners sharing one cache FILE, each filling its own cells on its
// own thread at the same time. Every fill appends its lines in one write
// and nothing rewrites the file, so a fresh runner must reuse every cell,
// round after round on fresh files, and agree bit for bit with what the
// writers made.
TEST_F(TsanGridTest, ConcurrentFillsIntoOneFileLoseNothing) {
  const workload::Benchmark& bench = workload::benchmark_suite()[0];
  const decay::DecayConfig protocol{decay::Technique::kProtocol, 0, 4};
  constexpr std::size_t kRunners = 4;
  constexpr int kRounds = 4;

  // Runner r fills the baseline and protocol cells at 2^r MiB: one timing
  // run each, all about equally long, so the appends coincide.
  std::vector<std::vector<sim::MachineCell>> cells(kRunners);
  std::vector<sim::MachineCell> every;
  for (std::size_t r = 0; r < kRunners; ++r) {
    for (const decay::DecayConfig& d : {sim::baseline_config(), protocol}) {
      sim::SystemConfig cfg = sim::make_system_config(MiB << r, d);
      cfg.instructions_per_core = kInstr;
      cells[r].push_back({cfg, &bench});
      every.push_back(cells[r].back());
    }
  }

  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::string shared = cache_path("shared" + std::to_string(round));
    std::vector<std::unique_ptr<sim::ExperimentRunner>> runners;
    for (std::size_t r = 0; r < kRunners; ++r) {
      runners.push_back(
          std::make_unique<sim::ExperimentRunner>(kInstr, shared));
    }
    std::vector<sim::RunMetrics> made(every.size());
    {
      std::vector<std::thread> threads;
      threads.reserve(kRunners);
      for (std::size_t r = 0; r < kRunners; ++r) {
        threads.emplace_back([&, r] {
          const std::vector<sim::RunMetrics> ms =
              runners[r]->run_machines(cells[r], 1).metrics;
          std::copy(ms.begin(), ms.end(), made.begin() + 2 * r);
        });
      }
      for (auto& th : threads) th.join();
    }

    sim::ExperimentRunner fresh(kInstr, shared);
    const sim::MachineResults read = fresh.run_machines(every, 1);
    EXPECT_EQ(read.stats.simulated, 0u);
    EXPECT_EQ(read.stats.reused, every.size());
    for (std::size_t i = 0; i < every.size(); ++i) {
      EXPECT_EQ(sim::first_difference(made[i], read.metrics[i]), "") << i;
    }
  }
}

}  // namespace
