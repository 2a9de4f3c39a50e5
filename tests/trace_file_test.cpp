// In-memory traces: capture -> .cdt -> replay determinism, per-core
// budgets, and idle-core replay.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "cdsim/verify/fuzz.hpp"
#include "cdsim/workload/fuzzer.hpp"
#include "cdsim/workload/trace_v2.hpp"

namespace {

using namespace cdsim;
using workload::Trace;
using workload::TraceRecord;

/// Unique temp path per test (tests run in one process; the pid suffix
/// keeps parallel ctest invocations of this binary apart).
std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "cdt_" + tag + "_" +
         std::to_string(static_cast<long>(::getpid())) + ".cdt";
}

Trace small_trace() {
  Trace t;
  t.num_cores = 2;
  t.records.push_back({0, {AccessType::kLoad, 0x1040, 3, false, 0}});
  t.records.push_back({1, {AccessType::kStore, 0x2080, 0, false, 2}});
  t.records.push_back({0, {AccessType::kLoad, 0x10c0, 7, true, 5}});
  t.records.push_back({1, {AccessType::kIFetch, 0x3000, 2, false, 0}});
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

// ---------------------------------------------------------------------------
// Round trip
// ---------------------------------------------------------------------------

TEST(TraceFile, CaptureReadReplayIsBitIdentical) {
  // Capture a hostile scenario, write it to disk, read it back, replay it
  // through replay_scenario — the RunMetrics must match the original run
  // exactly (doubles compared bit-for-bit via EXPECT_EQ).
  verify::FuzzScenario sc;
  sc.machine = verify::fuzz_machine(
      coherence::Protocol::kMesi,
      decay::DecayConfig{decay::Technique::kDecay, 2048, 4});
  sc.machine.seed = 31415;
  sc.machine.instructions_per_core = 12000;
  sc.fuzz.decay_window = 2048;

  const verify::ScenarioOutcome original = verify::run_scenario(sc);
  ASSERT_EQ(original.total_divergences, 0u);
  ASSERT_GT(original.trace.records.size(), 0u);

  const std::string path = temp_path("capture");
  std::string err;
  ASSERT_TRUE(workload::save_v2(original.trace, path, &err)) << err;
  const auto src = workload::open_trace_source(path, &err);
  ASSERT_NE(src, nullptr) << err;
  Trace loaded;
  loaded.num_cores = src->num_cores();
  TraceRecord rec;
  while (src->next(rec)) loaded.append(rec);
  std::remove(path.c_str());
  expect_traces_equal(original.trace, loaded);

  const verify::ScenarioOutcome replay = verify::replay_scenario(sc, loaded);
  EXPECT_EQ(replay.total_divergences, 0u);
  EXPECT_EQ(sim::first_difference(replay.metrics, original.metrics), "");
}

// ---------------------------------------------------------------------------
// Budgets and idle cores
// ---------------------------------------------------------------------------

TEST(TraceFile, PerCoreInstructionsSumGapPlusOne) {
  const Trace t = small_trace();
  const auto budget = t.per_core_instructions();
  ASSERT_EQ(budget.size(), 2u);
  EXPECT_EQ(budget[0], (3u + 1) + (7u + 1));
  EXPECT_EQ(budget[1], (0u + 1) + (2u + 1));
}

TEST(TraceFile, IdleCoreGetsUnitBudgetAndFillerStream) {
  Trace t;
  t.num_cores = 4;  // cores 1..3 never scheduled
  t.records.push_back({0, {AccessType::kLoad, 0x40, 2, false, 0}});
  const auto budget = t.per_core_instructions();
  ASSERT_EQ(budget.size(), 4u);
  EXPECT_EQ(budget[0], 3u);
  EXPECT_EQ(budget[1], 1u);

  const workload::StreamFactory factory = workload::replay_factory(t);
  const workload::StreamPtr s = factory(3, 0);
  ASSERT_NE(s, nullptr);
  const workload::MemOp op = s->next(0);
  EXPECT_EQ(op.type, AccessType::kLoad);
  EXPECT_EQ(op.gap, 0u);

  // A trace with idle cores must also replay end-to-end.
  verify::FuzzScenario sc;
  sc.machine.instructions_per_core = 1;  // overridden by per-core budgets
  const verify::ScenarioOutcome out = verify::replay_scenario(sc, t);
  EXPECT_EQ(out.total_divergences, 0u);
  EXPECT_EQ(out.metrics.instructions, 3u + 1 + 1 + 1);
}

}  // namespace
