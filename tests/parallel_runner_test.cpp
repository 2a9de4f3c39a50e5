// Parallel sweep engine: the parallel_for fork-join loop, and the central
// determinism contract — a run_grid sweep sharded across >= 4 workers, one
// simulation per timing class with baseline and protocol as two accounting
// views of one run, produces RunMetrics bit-identical to running the same
// configurations serially through ExperimentRunner::run(). Also the views
// themselves: they reproduce the three-level golden pins of other
// techniques, and a view outside the run's timing class comes back only
// when the run ends before the two could differ. So a decaying class rides
// on its driver's run, is served only before its horizon, and a failing
// driver releases the riders waiting on it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/sim/parallel.hpp"
#include "cdsim/workload/benchmarks.hpp"
#include "three_level_pins.hpp"

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

TEST_F(ParallelRunnerTest, ParallelForRunsEveryIndexExactlyOnce) {
  // More workers than indices too: the surplus never starts.
  for (const auto& [n, workers] : {std::pair<std::size_t, unsigned>{257, 2},
                                   {257, 4}, {3, 8}}) {
    std::vector<std::atomic<int>> hits(n);
    sim::parallel_for(n, workers, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n << ", "
                                   << workers << " workers";
    }
  }
  bool ran = false;
  sim::parallel_for(0, 4, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST_F(ParallelRunnerTest, ParallelForRethrowsAfterEveryIndexHasRun) {
  constexpr std::size_t kN = 64;
  for (const unsigned workers : {1u, 4u}) {
    std::atomic<std::size_t> done{0};
    try {
      sim::parallel_for(kN, workers, [&](std::size_t i) {
        if (i == 40 || i == 3) throw std::runtime_error(std::to_string(i));
        done.fetch_add(1);
      });
      ADD_FAILURE() << "no exception with " << workers << " workers";
    } catch (const std::runtime_error& e) {
      // Every other index ran first, and the lowest throwing index wins
      // whichever worker reached it.
      EXPECT_EQ(done.load(), kN - 2) << workers << " workers";
      EXPECT_STREQ(e.what(), "3") << workers << " workers";
    }
  }
}

TEST_F(ParallelRunnerTest, ParallelForWithOneWorkerRunsOnTheCaller) {
  for (const unsigned workers : {1u, 0u}) {  // zero workers means one
    std::vector<std::size_t> order;
    std::vector<std::thread::id> ran_on;
    sim::parallel_for(8, workers, [&](std::size_t i) {
      order.push_back(i);
      ran_on.push_back(std::this_thread::get_id());
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
    for (const std::thread::id id : ran_on) {
      EXPECT_EQ(id, std::this_thread::get_id()) << workers << " workers";
    }
  }
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
  // 2 benchmarks x 2 sizes x (4 techniques + baseline), all fresh, from
  // 4 timing classes per cell: baseline and protocol share one run.
  EXPECT_EQ(sweep.simulated, 20u);
  EXPECT_EQ(sweep.timing_runs, 16u);
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
  EXPECT_EQ(first.timing_runs, 1u);  // ... as two views of one run
  EXPECT_EQ(first.reused, 0u);

  const sim::SweepStats second = runner.run_grid(benches, sizes, techs, 2);
  EXPECT_EQ(second.simulated, 0u);
  EXPECT_EQ(second.reused, 2u);
  EXPECT_EQ(second.workers, 0u);  // nothing ran, no thread started
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

// The whole paper grid at a short budget: every one of the 192 cells from
// 58 timing runs equals its serial run() on all 75 leaves.
TEST_F(ParallelRunnerTest, PaperGridFromTimingRunsMatchesSerialRuns) {
  constexpr std::uint64_t kGridInstr = 20'000;
  const auto& suite = workload::benchmark_suite();
  const auto sizes = sim::paper_cache_sizes();
  const auto techs = sim::paper_technique_set();

  sim::ExperimentRunner parallel(kGridInstr, cache_path("parallel"));
  const sim::SweepStats sweep = parallel.run_grid(suite, sizes, techs, 4);
  EXPECT_EQ(sweep.simulated, 192u);   // 6 presets x 4 sizes x (7 + 1)
  // Protocol rides on the baseline, and the five other decaying techniques
  // ride on decay512K's run as extra views. Those 24 runs end before 64K
  // cycles on every machine but five (facerec at every size, FMM at 2 MB),
  // whose two 64K riders run on their own: 24 x 2 + 5 x 2.
  EXPECT_EQ(sweep.timing_runs, 58u);
  EXPECT_EQ(sweep.reused, 0u);

  std::vector<decay::DecayConfig> cells{sim::baseline_config()};
  cells.insert(cells.end(), techs.begin(), techs.end());
  sim::ExperimentRunner serial(kGridInstr, cache_path("serial"));
  for (const auto& bench : suite) {
    for (const std::uint64_t bytes : sizes) {
      for (const auto& tech : cells) {
        SCOPED_TRACE(bench.config.name + "/" + std::to_string(bytes / MiB) +
                     "MB/" + tech.label());
        EXPECT_EQ(sim::first_difference(serial.run(bench, bytes, tech),
                                        parallel.run(bench, bytes, tech)),
                  "");
      }
    }
  }
}

// Whole machines through one fill: bench_hierarchy's six (bus-2L, dmesh-2L
// and dmesh-3L at 16 cores, baseline and decay 64K, at every level on the
// three-level mesh), plus a
// 4-core three-level mesh with baseline at every level and the same mesh
// with protocol at every level. Each result equals run_config of its cell
// on every leaf, and the baseline/protocol pair shares one timing run.
TEST_F(ParallelRunnerTest, WholeMachineFillMatchesRunConfig) {
  constexpr std::uint64_t kMachineInstr = 5'000;
  const workload::Benchmark& fmm = workload::benchmark_by_name("FMM");
  const auto every_level = [](sim::SystemConfig& cfg) {
    cfg.l1_decay = cfg.decay;
    cfg.l3_decay = cfg.decay;
  };
  std::vector<sim::MachineCell> cells;
  for (const auto& [topo, depth] :
       {std::pair{noc::Topology::kSnoopBus, sim::Hierarchy::kTwoLevel},
        {noc::Topology::kDirectoryMesh, sim::Hierarchy::kTwoLevel},
        {noc::Topology::kDirectoryMesh, sim::Hierarchy::kThreeLevel}}) {
    for (const decay::DecayConfig& tech :
         {sim::baseline_config(),
          decay::DecayConfig{decay::Technique::kDecay, 64 * 1024, 4}}) {
      sim::SystemConfig cfg = sim::make_system_config(16 * MiB, tech);
      cfg.num_cores = 16;
      cfg.topology = topo;
      cfg.hierarchy = depth;
      cfg.instructions_per_core = kMachineInstr;
      if (depth == sim::Hierarchy::kThreeLevel) {
        cfg.total_l3_bytes = 64 * MiB;
        every_level(cfg);
      }
      cells.push_back({cfg, &fmm});
    }
  }
  for (const decay::DecayConfig& tech :
       {sim::baseline_config(),
        decay::DecayConfig{decay::Technique::kProtocol, 0, 4}}) {
    sim::SystemConfig cfg = sim::make_system_config(4 * MiB, tech);
    cfg.topology = noc::Topology::kDirectoryMesh;
    cfg.hierarchy = sim::Hierarchy::kThreeLevel;
    cfg.instructions_per_core = kMachineInstr;
    every_level(cfg);
    cells.push_back({cfg, &fmm});
  }

  sim::ExperimentRunner runner(0, cache_path("machines"));
  const sim::MachineResults runs = runner.run_machines(cells, 4);
  EXPECT_EQ(runs.stats.workers, 4u);
  EXPECT_EQ(runs.stats.simulated, 8u);
  EXPECT_EQ(runs.stats.timing_runs, 7u);  // protocol rides on the baseline
  ASSERT_EQ(runs.metrics.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(sim::first_difference(
                  runs.metrics[i], sim::run_config(cells[i].config, fmm)),
              "");
  }
}

// The key is the whole machine: a leaf the run never reads (the DRAM
// channel count of a flat machine) still keys its own result, and so does
// one it does (thermal feedback). Neither shares a run with the others.
TEST_F(ParallelRunnerTest, MachinesThatDifferInOneLeafRunApart) {
  const workload::Benchmark& bench = workload::benchmark_suite().front();
  sim::SystemConfig cfg =
      sim::make_system_config(1 * MiB, sim::baseline_config());
  cfg.instructions_per_core = 2'000;
  sim::SystemConfig pinned_t0 = cfg;
  pinned_t0.thermal_feedback = false;
  sim::SystemConfig one_channel = cfg;
  one_channel.mem.dram.channels = 1;
  const std::vector<sim::MachineCell> cells{
      {cfg, &bench}, {pinned_t0, &bench}, {one_channel, &bench}};

  const std::string path = cache_path("apart");
  {
    sim::ExperimentRunner runner(0, path);
    const sim::SweepStats first = runner.run_machines(cells, 2).stats;
    EXPECT_EQ(first.simulated, 3u);
    EXPECT_EQ(first.timing_runs, 3u);
    EXPECT_EQ(runner.run_machines(cells, 2).stats.reused, 3u);
  }
  std::ifstream in(path);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  EXPECT_EQ(lines, 3u);
}

// One 4 MB bus machine at 250K instr/core, where the decaying runs end
// between 128K and 512K cycles. Kept as views of decay512K's run,
// sel_decay512K comes back and equals its standalone run; the 64K and 128K
// views are outlived and come back empty. Through the runner the eight
// cells take six timing runs, or seven when every class gets a worker of
// its own.
TEST_F(ParallelRunnerTest, CandidatesAreServedOnlyBeforeTheirHorizon) {
  constexpr std::uint64_t kInstr250K = 250'000;
  const workload::Benchmark& fmm = workload::benchmark_by_name("FMM");
  const auto techs = sim::paper_technique_set();
  const auto machine = [](const decay::DecayConfig& d) {
    sim::SystemConfig cfg = sim::make_system_config(4 * MiB, d);
    cfg.instructions_per_core = kInstr250K;
    return cfg;
  };
  ASSERT_EQ(techs[1].label(), "decay512K");
  std::vector<sim::AccountingView> views;
  for (std::size_t t = 1; t < techs.size(); ++t) {
    views.push_back(sim::AccountingView::of(machine(techs[t])));
  }
  const std::vector<std::optional<sim::RunMetrics>> ms =
      sim::run_config(machine(techs[1]), fmm, views);
  ASSERT_EQ(ms.size(), 6u);
  ASSERT_TRUE(ms[0].has_value());  // the run's own view
  EXPECT_GT(ms[0]->cycles, 128u * 1024);
  EXPECT_LT(ms[0]->cycles, 512u * 1024);
  for (std::size_t t = 2; t < techs.size(); ++t) {
    SCOPED_TRACE(techs[t].label());
    const std::optional<sim::RunMetrics>& m = ms[t - 1];
    ASSERT_EQ(m.has_value(), techs[t].decay_time == 512u * 1024);
    if (m) {
      EXPECT_EQ(sim::first_difference(*m, sim::run_config(machine(techs[t]),
                                                          fmm)),
                "");
    }
  }

  std::vector<decay::DecayConfig> cells{sim::baseline_config()};
  cells.insert(cells.end(), techs.begin(), techs.end());
  sim::ExperimentRunner serial(kInstr250K, cache_path("serial"));
  // One worker: every rider waits for its driver. Four: the 64K pair
  // fills the first wave's idle workers, outlived either way. Eight: each
  // of the seven classes runs at once, as with no riders at all.
  for (const auto& [workers, runs] :
       {std::pair<unsigned, std::size_t>{1, 6}, {4, 6}, {8, 7}}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    sim::ExperimentRunner parallel(
        kInstr250K, cache_path("parallel" + std::to_string(workers)));
    const sim::SweepStats sweep =
        parallel.run_grid({fmm}, {4 * MiB}, techs, workers);
    EXPECT_EQ(sweep.simulated, 8u);
    EXPECT_EQ(sweep.timing_runs, runs);
    for (const auto& tech : cells) {
      SCOPED_TRACE(tech.label());
      EXPECT_EQ(sim::first_difference(serial.run(fmm, 4 * MiB, tech),
                                      parallel.run(fmm, 4 * MiB, tech)),
                "");
    }
  }
}

// An invalid decaying cell still fails by name: its horizon is 0, so it
// rides on no run and none rides on it. A machine no class can build fails
// in its driver, which releases the riders waiting on it; each then
// runs on its own and fails too, and the fill rethrows.
TEST_F(ParallelRunnerTest, InvalidCellsFailByNameAndReleaseTheirCandidates) {
  const workload::Benchmark& bench = workload::benchmark_suite().front();
  using decay::Technique;
  const std::vector<decay::DecayConfig> techs{
      sim::baseline_config(),
      {Technique::kDecay, 512 * 1024, 4},
      {Technique::kDecay, 64 * 1024, 0},  // no tick period
      {Technique::kSelectiveDecay, 512 * 1024, 4},
      {Technique::kSelectiveDecay, 128 * 1024, 4}};
  const auto cells_of = [&](std::uint32_t num_cores) {
    std::vector<sim::MachineCell> cells;
    for (const decay::DecayConfig& d : techs) {
      sim::SystemConfig cfg = sim::make_system_config(1 * MiB, d);
      cfg.instructions_per_core = 2'000;
      cfg.num_cores = num_cores;
      cells.push_back({cfg, &bench});
    }
    return cells;
  };
  for (const unsigned workers : {1u, 2u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    sim::ExperimentRunner runner(0, cache_path(std::to_string(workers)));
    try {
      runner.run_machines(cells_of(4), workers);
      ADD_FAILURE() << "no exception for hierarchical_ticks = 0";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("hierarchical_ticks"),
                std::string::npos)
          << e.what();
    }
    // 65 cores: no machine of these cells can be built.
    EXPECT_THROW(runner.run_machines(cells_of(65), workers),
                 std::invalid_argument);
  }
}

// Rows 3 and 2 of GoldenMetricsTest.ThreeLevelConfigIsPinned, each kept as
// a view of a run under other techniques of its timing class: the view
// meets the standalone row's pins bit for bit.
TEST_F(ParallelRunnerTest, ViewsReproduceTheThreeLevelPins) {
  using decay::Technique;
  struct Case {
    std::size_t row;   ///< Index into kThreeLevel.
    Technique l1, l2, l3;  ///< The run the row is a view of.
  };
  for (const Case& c :
       {Case{2, Technique::kSelectiveDecay, Technique::kProtocol,
             Technique::kBaseline},
        Case{1, Technique::kBaseline, Technique::kBaseline,
             Technique::kSelectiveDecay}}) {
    const ThreeLevelCase& g = kThreeLevel[c.row];
    const sim::SystemConfig run_cfg = three_level_pin_config(c.l1, c.l2, c.l3);
    const sim::SystemConfig row_cfg = three_level_pin_config(g.l1, g.l2, g.l3);
    SCOPED_TRACE("row " + std::to_string(c.row + 1) + " as a view of L1 " +
                 run_cfg.l1_decay.label() + " / L2 " + run_cfg.decay.label() +
                 " / L3 " + run_cfg.l3_decay.label());
    const std::vector<std::optional<sim::RunMetrics>> ms =
        sim::run_config(run_cfg, workload::benchmark_by_name("FMM"),
                        {sim::AccountingView::of(run_cfg),
                         sim::AccountingView::of(row_cfg)});
    ASSERT_EQ(ms.size(), 2u);
    ASSERT_TRUE(ms[0].has_value() && ms[1].has_value());
    const sim::RunMetrics& m = *ms[1];
    EXPECT_EQ(m.technique, row_cfg.decay.label());
    EXPECT_EQ(m.energy, g.energy);
    EXPECT_EQ(m.l1.occupation, g.l1_occupation);
    EXPECT_EQ(m.l2_occupation, g.l2_occupation);
    EXPECT_EQ(m.l2.occupation, g.l2_occupation);
    EXPECT_EQ(m.l3.occupation, g.l3_occupation);
    for (std::size_t i = 0; i < power::kNumComponents; ++i) {
      const auto comp = static_cast<power::Component>(i);
      EXPECT_EQ(m.ledger.get(comp), g.ledger[i]) << to_string(comp);
    }
    // The run's own view is its standalone run, and the two views share
    // every timing field.
    EXPECT_EQ(sim::first_difference(
                  *ms[0], sim::run_config(run_cfg,
                                          workload::benchmark_by_name("FMM"))),
              "");
    EXPECT_EQ(m.cycles, ms[0]->cycles);
    EXPECT_EQ(m.l2_misses, ms[0]->l2_misses);
    EXPECT_EQ(m.mem_bytes, ms[0]->mem_bytes);
  }
}

// Views outside the run's timing class on a 1000-instr decay64K run, which
// ends long before its first possible turn-off: decay128K agrees with it
// until 64K cycles and comes back equal to its standalone run; baseline,
// without the Gated-Vdd penalty, differs from the first access (horizon 0)
// and comes back empty.
TEST_F(ParallelRunnerTest, ViewOutsideTheTimingClassComesBackBeforeItsHorizon) {
  const decay::DecayConfig decay64k{decay::Technique::kDecay, 64 * 1024, 4};
  const decay::DecayConfig decay128k{decay::Technique::kDecay, 128 * 1024, 4};
  const auto& bench = workload::benchmark_suite().front();
  const auto machine = [](const decay::DecayConfig& l2) {
    sim::SystemConfig cfg = sim::make_system_config(1 * MiB, l2);
    cfg.instructions_per_core = 1000;
    return cfg;
  };
  const auto view_of = [&](const decay::DecayConfig& l2) {
    return sim::AccountingView::of(machine(l2));
  };
  ASSERT_EQ(sim::agree_until(view_of(decay128k), view_of(decay64k)),
            64u * 1024);
  ASSERT_EQ(sim::agree_until(view_of(sim::baseline_config()),
                             view_of(decay64k)),
            0u);

  const std::vector<std::optional<sim::RunMetrics>> ms = sim::run_config(
      machine(decay64k), bench,
      {view_of(decay64k), view_of(decay128k), view_of(sim::baseline_config())});
  ASSERT_EQ(ms.size(), 3u);
  ASSERT_TRUE(ms[0].has_value());
  EXPECT_LT(ms[0]->cycles, 64u * 1024);
  ASSERT_TRUE(ms[1].has_value());
  EXPECT_EQ(sim::first_difference(*ms[1],
                                  sim::run_config(machine(decay128k), bench)),
            "");
  EXPECT_FALSE(ms[2].has_value());

  // A view must be given, and a rejected call leaves the system runnable.
  sim::CmpSystem sys(sim::normalized_run_config(machine(decay64k), bench),
                     bench);
  EXPECT_THROW(sys.run(std::vector<sim::AccountingView>{}),
               std::invalid_argument);
  const std::vector<std::optional<sim::RunMetrics>> own =
      sys.run({view_of(decay64k)});
  ASSERT_EQ(own.size(), 1u);
  ASSERT_TRUE(own[0].has_value());
  EXPECT_EQ(sim::first_difference(*own[0], *ms[0]), "");
}

// The timing class is per level: on a 3L mesh with a decaying L2, the L1
// and L3 may each be baseline or protocol, which never decay, so the four
// cells are one class and fill in one timing run. Each equals run_config
// of its cell on every leaf.
TEST_F(ParallelRunnerTest, TimingClassSpansL1AndL3TechniquesUnderADecayingL2) {
  const workload::Benchmark& fmm = workload::benchmark_by_name("FMM");
  const decay::DecayConfig protocol{decay::Technique::kProtocol, 0, 4};
  std::vector<sim::MachineCell> cells;
  for (const decay::DecayConfig& l1 : {sim::baseline_config(), protocol}) {
    for (const decay::DecayConfig& l3 : {sim::baseline_config(), protocol}) {
      sim::SystemConfig cfg = sim::make_system_config(
          4 * MiB, {decay::Technique::kDecay, 64 * 1024, 4});
      cfg.topology = noc::Topology::kDirectoryMesh;
      cfg.hierarchy = sim::Hierarchy::kThreeLevel;
      cfg.instructions_per_core = 5'000;
      cfg.l1_decay = l1;
      cfg.l3_decay = l3;
      cells.push_back({cfg, &fmm});
    }
  }

  sim::ExperimentRunner runner(0, cache_path("levels"));
  const sim::MachineResults runs = runner.run_machines(cells, 2);
  EXPECT_EQ(runs.stats.simulated, 4u);
  EXPECT_EQ(runs.stats.timing_runs, 1u);
  ASSERT_EQ(runs.metrics.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE("L1 " + cells[i].config.l1_decay.label() + " / L3 " +
                 cells[i].config.l3_decay.label());
    EXPECT_EQ(sim::first_difference(
                  runs.metrics[i], sim::run_config(cells[i].config, fmm)),
              "");
  }
}

TEST_F(ParallelRunnerTest, ConfigSeedIsStableAndPerKey) {
  const std::uint64_t a = sim::derive_config_seed("FMM/1/decay128K/60000/v2");
  const std::uint64_t b = sim::derive_config_seed("FMM/1/decay128K/60000/v2");
  const std::uint64_t c = sim::derive_config_seed("FMM/2/decay128K/60000/v2");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
