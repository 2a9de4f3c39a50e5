// Differential-verification suite: the reference-model oracle against the
// full hierarchy.
//
// Three layers:
//  1. Unit tests drive DifferentialChecker with hand-scripted event
//     sequences to pin its shadow/oracle semantics (clean propagation
//     passes; a lost write-back's stale refetch diverges; MOESI's
//     deferred-memory flush chain stays consistent).
//  2. The acceptance sweep runs >= 200 seeded hostile scenarios spanning
//     {MESI, MOESI} x all four leakage techniques x three decay times x
//     {4-core snoop bus, 8/16-core directory mesh} and requires ZERO
//     divergences — every load's returned version matches the flat
//     last-writer model, including loads that hit lines that were turned
//     off and refetched, on both interconnect topologies.
//  3. The injected-bug test flips the L2's test-only lost-write-back fault
//     and requires the oracle to CATCH it and the shrinker to minimize the
//     captured trace to a tiny (<= 50 op) replayable repro.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "cdsim/verify/fuzz.hpp"
#include "cdsim/verify/oracle.hpp"
#include "cdsim/verify/shrink.hpp"
#include "cdsim/workload/trace_v2.hpp"

namespace {

using namespace cdsim;
using verify::DifferentialChecker;

// ---------------------------------------------------------------------------
// Checker unit semantics (hand-scripted event sequences)
// ---------------------------------------------------------------------------

TEST(DifferentialChecker, CleanWritebackPropagationPasses) {
  DifferentialChecker chk(/*num_cores=*/2);
  const Addr line = 0x1000;

  // Core 0: write-allocate fill from pristine memory, then serialize.
  chk.on_fill(0, line, 10, /*from_cache=*/false, /*for_write=*/true);
  chk.on_write_serialized(0, line, 10);
  // Eviction write-back reaches memory; the copy dies.
  chk.on_writeback_initiated(0, line, 20);
  chk.on_invalidate(0, line, 20);
  chk.on_writeback_resolved(0, line, 25, /*cancelled=*/false, /*to_l3=*/false);
  // Core 1 refetches from memory: must see the written version.
  chk.on_fill(1, line, 30, /*from_cache=*/false, /*for_write=*/false);
  chk.on_load_hit(1, line, 31, /*l1=*/false);

  EXPECT_EQ(chk.total_divergences(), 0u);
  EXPECT_EQ(chk.loads_checked(), 1u);
  EXPECT_EQ(chk.fills_checked(), 2u);
  EXPECT_EQ(chk.writes_serialized(), 1u);
}

TEST(DifferentialChecker, LostWritebackRefetchDiverges) {
  DifferentialChecker chk(2);
  const Addr line = 0x2000;

  chk.on_fill(0, line, 10, false, true);
  chk.on_write_serialized(0, line, 10);
  // BUG under test: the dirty copy dies with NO write-back.
  chk.on_invalidate(0, line, 20);
  // The refetch reads stale memory (version 0, not the write).
  chk.on_fill(1, line, 30, false, false);

  ASSERT_EQ(chk.total_divergences(), 1u);
  const verify::Divergence& d = chk.divergences().front();
  EXPECT_EQ(d.core, 1u);
  EXPECT_EQ(d.line, line);
  EXPECT_EQ(d.observed, 0u);
  EXPECT_EQ(d.expected, 1u);
  EXPECT_EQ(d.context, "fill-mem");
  EXPECT_FALSE(verify::to_string(d).empty());
}

TEST(DifferentialChecker, MesiFlushUpdatesMemory) {
  DifferentialChecker chk(2);
  const Addr line = 0x3000;

  chk.on_fill(0, line, 5, false, true);
  chk.on_write_serialized(0, line, 5);
  // Remote BusRd: MESI owner flushes (memory updated), downgrades to S —
  // both copies now hold the written version; later memory fills do too.
  chk.on_flush_supply(0, line, 9, /*memory_update=*/true);
  chk.on_fill(1, line, 9, /*from_cache=*/true, false);
  chk.on_load_hit(0, line, 11, false);
  chk.on_load_hit(1, line, 12, true);
  chk.on_invalidate(0, line, 20);
  chk.on_invalidate(1, line, 21);
  chk.on_fill(0, line, 30, false, false);  // memory was updated by the flush

  EXPECT_EQ(chk.total_divergences(), 0u);
}

TEST(DifferentialChecker, MoesiDeferredFlushKeepsMemoryStale) {
  DifferentialChecker chk(2);
  const Addr line = 0x4000;

  chk.on_fill(0, line, 5, false, true);
  chk.on_write_serialized(0, line, 5);
  // MOESI: owner supplies WITHOUT memory update (M -> O).
  chk.on_flush_supply(0, line, 9, /*memory_update=*/false);
  chk.on_fill(1, line, 9, true, false);
  EXPECT_EQ(chk.total_divergences(), 0u);

  // If both copies now die without a write-back, memory is genuinely stale
  // and a refetch must diverge — the checker models the deferral exactly.
  chk.on_invalidate(1, line, 20);
  chk.on_invalidate(0, line, 21);  // owner dies silently: the bug
  chk.on_fill(0, line, 30, false, false);
  EXPECT_EQ(chk.total_divergences(), 1u);
}

TEST(DifferentialChecker, CancelledWritebackDoesNotTouchMemory) {
  DifferentialChecker chk(2);
  const Addr line = 0x5000;

  chk.on_fill(0, line, 5, false, true);
  chk.on_write_serialized(0, line, 5);   // v1
  // TD turn-off queues a write-back of v1...
  chk.on_writeback_initiated(0, line, 10);
  // ...but a snoop flush-and-cancel moves v1 to memory first (BusRdX).
  chk.on_flush_supply(0, line, 12, true);
  chk.on_invalidate(0, line, 12);
  chk.on_fill(1, line, 12, true, true);
  chk.on_write_serialized(1, line, 12);  // v2 at the new owner
  // The queued write-back resolves cancelled: memory must stay at v1, not
  // regress anything, and the new owner's copy stays authoritative.
  chk.on_writeback_resolved(0, line, 15, /*cancelled=*/true, /*to_l3=*/false);
  chk.on_load_hit(1, line, 16, false);

  EXPECT_EQ(chk.total_divergences(), 0u);
}

TEST(DifferentialChecker, HitOnUntrackedCopyDiverges) {
  DifferentialChecker chk(1);
  chk.on_load_hit(0, 0x6000, 5, /*l1=*/true);
  ASSERT_EQ(chk.total_divergences(), 1u);
  EXPECT_EQ(chk.divergences().front().context, "l1-hit-untracked");
}

// ---------------------------------------------------------------------------
// The fuzz matrix
// ---------------------------------------------------------------------------

TEST(FuzzMatrix, SpansProtocolsTechniquesTopologiesAndHierarchies) {
  verify::FuzzOptions opts;
  opts.scenarios = 240;
  const auto matrix = verify::fuzz_matrix(opts);
  ASSERT_EQ(matrix.size(), 240u);

  int protocols[2] = {};
  int techniques[4] = {};
  int topologies[2] = {};
  int hierarchies[2] = {};
  std::set<std::uint32_t> mesh_core_counts;
  std::set<std::uint32_t> three_level_core_counts;
  std::set<Cycle> decay_times;
  std::set<std::uint64_t> seeds;
  for (const auto& sc : matrix) {
    protocols[static_cast<int>(sc.protocol)]++;
    techniques[static_cast<int>(sc.decay.technique)]++;
    topologies[static_cast<int>(sc.topology)]++;
    hierarchies[static_cast<int>(sc.hierarchy)]++;
    if (decay::uses_decay(sc.decay.technique)) {
      decay_times.insert(sc.decay.decay_time);
    }
    if (sc.topology == noc::Topology::kDirectoryMesh) {
      mesh_core_counts.insert(sc.num_cores);
      // NoC stressor armed: hot-home contention targets one bank.
      EXPECT_GT(sc.fuzz.w_hot_home, 0.0);
      EXPECT_EQ(sc.fuzz.home_tiles, sc.num_cores);
    }
    if (sc.hierarchy == sim::Hierarchy::kThreeLevel) {
      // Three-level cells are mesh-only with a real L3 behind the L2s.
      EXPECT_EQ(sc.topology, noc::Topology::kDirectoryMesh);
      EXPECT_GT(sc.total_l3_bytes, sc.total_l2_bytes);
      three_level_core_counts.insert(sc.num_cores);
    } else {
      EXPECT_EQ(sc.total_l3_bytes, 0u);
    }
    seeds.insert(sc.seed);
  }
  EXPECT_GT(protocols[0], 50);  // MESI
  EXPECT_GT(protocols[1], 50);  // MOESI
  EXPECT_GT(topologies[0], 50);  // snoop bus
  EXPECT_GT(topologies[1], 50);  // directory mesh
  // The hierarchy axis: {two-level bus, two-level dmesh, three-level
  // dmesh} all present in force.
  EXPECT_GT(hierarchies[0], 100);  // two-level (bus + dmesh)
  EXPECT_GT(hierarchies[1], 50);   // three-level dmesh
  // Mesh cells cover a square 4x4 and an asymmetric 4x2 grid, in both
  // hierarchies.
  EXPECT_TRUE(mesh_core_counts.count(16));
  EXPECT_TRUE(mesh_core_counts.count(8));
  EXPECT_TRUE(three_level_core_counts.count(16));
  EXPECT_TRUE(three_level_core_counts.count(8));
  for (int t = 0; t < 4; ++t) EXPECT_GT(techniques[t], 0) << "technique " << t;
  EXPECT_GE(decay_times.size(), 3u);
  EXPECT_EQ(seeds.size(), matrix.size());  // every scenario a fresh seed
}

// The acceptance criterion: >= 200 seeded hostile scenarios, both
// protocols, all techniques, every hierarchy cell ({two-level bus,
// two-level dmesh, three-level dmesh}), zero value divergences.
TEST(FuzzAcceptance, TwoHundredScenariosZeroDivergences) {
  verify::FuzzOptions opts;
  opts.scenarios = 240;  // 5 full passes over the 48-cell matrix
  opts.shrink_failures = false;  // a failure here fails the test anyway
  const verify::FuzzReport rep = verify::run_fuzz(opts);

  EXPECT_EQ(rep.scenarios_run, 240u);
  EXPECT_EQ(rep.divergences, 0u) << "first failure: "
                                 << (rep.failures.empty()
                                         ? std::string("<none recorded>")
                                         : verify::to_string(
                                               rep.failures[0].divergences[0]));
  // The sweep must actually check things, and MOESI must actually reach O.
  EXPECT_GT(rep.loads_checked, 10000u);
  EXPECT_GT(rep.fills_checked, 50000u);
  EXPECT_GT(rep.writes_serialized, 20000u);
  EXPECT_GT(rep.owned_downgrades, 500u);
}

TEST(FuzzScenarios, MoesiScenarioExercisesOwnedState) {
  verify::FuzzScenario sc;
  sc.protocol = coherence::Protocol::kMoesi;
  sc.decay = decay::DecayConfig{decay::Technique::kDecay, 2048, 4};
  sc.seed = 424242;
  sc.fuzz.decay_window = 2048;
  const verify::ScenarioOutcome out = verify::run_scenario(sc);
  EXPECT_EQ(out.total_divergences, 0u);
  EXPECT_GT(out.owned_downgrades, 0u);
  // Dirty decay turn-offs occurred (write-backs under full decay).
  EXPECT_GT(out.metrics.l2_decay_turnoffs, 0u);
}

TEST(FuzzScenarios, ThreeLevelScenarioDecaysAtEveryLevel) {
  verify::FuzzScenario sc;
  sc.protocol = coherence::Protocol::kMoesi;
  sc.topology = noc::Topology::kDirectoryMesh;
  sc.hierarchy = sim::Hierarchy::kThreeLevel;
  sc.num_cores = 8;
  sc.total_l2_bytes = 8 * 32 * KiB;
  sc.total_l3_bytes = 4 * sc.total_l2_bytes;
  sc.decay = decay::DecayConfig{decay::Technique::kDecay, 2048, 4};
  sc.seed = 31337;
  sc.fuzz.num_cores = 8;
  sc.fuzz.decay_window = 2048;
  sc.fuzz.w_hot_home = 0.18;
  sc.fuzz.home_tiles = 8;
  const verify::ScenarioOutcome out = verify::run_scenario(sc);
  EXPECT_EQ(out.total_divergences, 0u)
      << verify::to_string(out.divergences.front());
  // Decay really ran at all three levels, and the shared L3 really served
  // fills (write-versions threaded through every level).
  EXPECT_EQ(out.metrics.hierarchy, "3L");
  EXPECT_GT(out.metrics.l1.decay_turnoffs, 0u);
  EXPECT_GT(out.metrics.l2.decay_turnoffs, 0u);
  EXPECT_GT(out.metrics.l3.decay_turnoffs, 0u);
  EXPECT_GT(out.metrics.l3.hits, 0u);
  EXPECT_GT(out.metrics.l3.accesses, out.metrics.l3.hits);
  EXPECT_GT(out.owned_downgrades, 0u);  // MOESI's O state in the mix too
}

TEST(FuzzScenarios, MesiScenarioIsMoesiFreeAndDeterministic) {
  verify::FuzzScenario sc;
  sc.seed = 7;
  const verify::ScenarioOutcome a = verify::run_scenario(sc);
  const verify::ScenarioOutcome b = verify::run_scenario(sc);
  EXPECT_EQ(a.owned_downgrades, 0u);  // MESI never reaches O
  EXPECT_EQ(sim::first_difference(a.metrics, b.metrics), "");
  EXPECT_EQ(a.trace.records.size(), b.trace.records.size());
  EXPECT_EQ(a.loads_checked, b.loads_checked);
}

// ---------------------------------------------------------------------------
// Injected wrong-data bug: caught, shrunk, replayable
// ---------------------------------------------------------------------------

TEST(InjectedBug, LostDecayWritebackIsCaughtAndShrunk) {
  verify::FuzzScenario sc;
  sc.protocol = coherence::Protocol::kMesi;
  sc.decay = decay::DecayConfig{decay::Technique::kDecay, 1024, 4};
  sc.seed = 777;
  sc.fuzz.decay_window = 1024;
  sc.inject_writeback_loss = true;

  // The bug keeps every internal invariant intact (run_scenario asserts
  // check_coherence_invariants) yet the oracle must catch the stale data.
  const verify::ScenarioOutcome out = verify::run_scenario(sc);
  ASSERT_GT(out.total_divergences, 0u);
  ASSERT_FALSE(out.divergences.empty());

  // Greedy shrink to a small replayable repro (acceptance bound: <= 50).
  verify::ShrinkStats st;
  const workload::Trace shrunk = verify::shrink_trace(
      out.trace,
      [&sc](const workload::Trace& t) {
        return verify::replay_scenario(sc, t).total_divergences != 0;
      },
      &st);
  EXPECT_TRUE(st.reproduced);
  EXPECT_LE(shrunk.records.size(), 50u);
  EXPECT_LT(shrunk.records.size(), out.trace.records.size());

  // The shrunken trace still reproduces on a fresh replay.
  const verify::ScenarioOutcome replay = verify::replay_scenario(sc, shrunk);
  EXPECT_GT(replay.total_divergences, 0u);

  // And with the fault off, the same trace replays cleanly — the repro
  // pins the bug, not some checker artifact.
  verify::FuzzScenario fixed = sc;
  fixed.inject_writeback_loss = false;
  const verify::ScenarioOutcome clean = verify::replay_scenario(fixed, shrunk);
  EXPECT_EQ(clean.total_divergences, 0u);
}

TEST(InjectedBug, LostWritebackIsCaughtThroughThreeLevels) {
  // The same wrong-data fault, but under the three-level hierarchy: the
  // dropped dirty turn-off means the shared L3 (and memory behind it)
  // keeps a stale version, and the refetch — served by the L3 bank — must
  // diverge. This is the proof that the oracle threads write-versions
  // through all three levels, not just past the L2.
  verify::FuzzScenario sc;
  sc.protocol = coherence::Protocol::kMesi;
  sc.topology = noc::Topology::kDirectoryMesh;
  sc.hierarchy = sim::Hierarchy::kThreeLevel;
  sc.num_cores = 8;
  sc.total_l2_bytes = 8 * 32 * KiB;
  sc.total_l3_bytes = 4 * sc.total_l2_bytes;
  sc.decay = decay::DecayConfig{decay::Technique::kDecay, 1024, 4};
  sc.seed = 777;
  sc.fuzz.num_cores = 8;
  sc.fuzz.decay_window = 1024;
  sc.inject_writeback_loss = true;

  const verify::ScenarioOutcome out = verify::run_scenario(sc);
  EXPECT_GT(out.total_divergences, 0u);

  // With the fault off, the identical trace replays cleanly through all
  // three levels.
  verify::FuzzScenario fixed = sc;
  fixed.inject_writeback_loss = false;
  const verify::ScenarioOutcome clean =
      verify::replay_scenario(fixed, out.trace);
  EXPECT_EQ(clean.total_divergences, 0u);
}

TEST(InjectedBug, RunFuzzPipelineReportsAndShrinksFailures) {
  // The full pipeline through run_fuzz with the fault armed in every
  // scenario: the report must carry failures with shrunken repros, and the
  // report directory must receive the .cdt traces CI uploads on failure.
  const std::string dir = ::testing::TempDir() + "fuzz_report_" +
                          std::to_string(static_cast<long>(::getpid()));
  verify::FuzzOptions opts;
  opts.scenarios = 4;  // cells 0..3: baseline, protocol, decay1K, decay2K
  opts.inject_writeback_loss = true;
  opts.report_dir = dir;
  opts.max_failures = 2;
  const verify::FuzzReport rep = verify::run_fuzz(opts);

  // The fault only bites configurations that decay dirty lines; at least
  // the full-decay cells must have caught it.
  ASSERT_GT(rep.divergences, 0u);
  ASSERT_FALSE(rep.failures.empty());
  for (const verify::FuzzFailure& f : rep.failures) {
    EXPECT_FALSE(f.divergences.empty());
    EXPECT_GT(f.trace.records.size(), 0u);
    EXPECT_GT(f.shrunk.records.size(), 0u);
    EXPECT_LT(f.shrunk.records.size(), f.trace.records.size());

    const std::string stem =
        dir + "/fuzz_" + std::to_string(f.scenario.index);
    std::string err;
    const auto full = workload::open_trace_source(stem + ".cdt", &err);
    EXPECT_NE(full, nullptr) << err;
    const auto min = workload::open_trace_source(stem + ".min.cdt", &err);
    ASSERT_NE(min, nullptr) << err;
    std::size_t min_records = 0;
    workload::TraceRecord rec;
    while (min->next(rec)) ++min_records;
    EXPECT_EQ(min_records, f.shrunk.records.size());
    std::ifstream report(stem + ".report.txt");
    EXPECT_TRUE(report.good());
    // Clean up.
    std::remove((stem + ".cdt").c_str());
    std::remove((stem + ".min.cdt").c_str());
    std::remove((stem + ".report.txt").c_str());
  }
  std::error_code ec;
  std::filesystem::remove(dir, ec);
}

}  // namespace
