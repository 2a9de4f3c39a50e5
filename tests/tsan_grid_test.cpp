// tsan_grid_test — the ThreadSanitizer certification workload.
//
// parallel_runner_test pins the determinism contract (parallel == serial,
// bit-identical); this suite pins the *synchronization* contract that makes
// the parallel path sound. It deliberately provokes every cross-thread
// handoff in the sweep engine — slot-indexed result writes published by
// parallel_for's join, concurrent run() calls on one memo entry, run_grid
// racing concurrent run() calls, and two runners persisting through the
// same temp+rename cache file — with small instruction counts so the whole
// suite stays fast under TSan's ~10x slowdown.
//
// Build with -DCDSIM_SANITIZE=thread and run this binary: any
// happens-before edge missing from parallel_for/ExperimentRunner shows up
// as a TSan report, and the assertions re-prove parallel == serial *in the
// instrumented build* (TSan changes timing radically, so the determinism
// contract must hold under it too, not just in the Release build the golden
// pins run in). .github/workflows/sanitizers.yml gates on exactly that.
// In an uninstrumented build this is just one more determinism suite.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
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

// Two runners sharing one cache FILE, persisting concurrently: temp+rename
// means readers never observe a torn file, and the merge-on-persist keeps
// both writers' entries available for a third runner. (Cross-process loss
// of the newest entries is documented best-effort; corruption never is.)
TEST_F(TsanGridTest, SharedCacheFileSurvivesConcurrentPersist) {
  const auto& suite = workload::benchmark_suite();
  const std::string shared = cache_path("shared");
  const decay::DecayConfig protocol{decay::Technique::kProtocol, 0, 4};
  const decay::DecayConfig decay64{decay::Technique::kDecay, 64 * 1024, 4};

  {
    sim::ExperimentRunner a(kInstr, shared);
    sim::ExperimentRunner b(kInstr, shared);
    std::thread ta([&] { a.run(suite[0], 1 * MiB, protocol); });
    std::thread tb([&] { b.run(suite[0], 1 * MiB, decay64); });
    ta.join();
    tb.join();
  }  // both destructors persist (temp + rename) into the same path

  // A fresh runner must reuse at least the surviving writer's entries and
  // agree bit-for-bit with an isolated reference runner on every cell.
  sim::ExperimentRunner fresh(kInstr, shared);
  sim::ExperimentRunner reference(kInstr, cache_path("shared_ref"));
  for (const auto* tech : {&protocol, &decay64}) {
    EXPECT_EQ(sim::first_difference(fresh.run(suite[0], 1 * MiB, *tech),
                                    reference.run(suite[0], 1 * MiB, *tech)),
              "");
  }
}

}  // namespace
