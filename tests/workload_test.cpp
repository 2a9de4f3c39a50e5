// Unit tests for the synthetic workload generators: determinism, mix
// statistics, region partitioning, generational migration, time-paced
// streaming, and the benchmark suite presets; the scripted loop; and the
// tail rule both trace-replay factories share.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>
#include <unordered_set>

#include "cdsim/workload/benchmarks.hpp"
#include "cdsim/workload/scripted.hpp"
#include "cdsim/workload/synthetic.hpp"
#include "cdsim/workload/trace_file.hpp"

namespace cdsim::workload {
namespace {

SyntheticConfig small_config() {
  SyntheticConfig c;
  c.name = "test";
  c.mem_fraction = 0.40;
  c.store_fraction = 0.50;
  c.p_private = 0.40;
  c.p_shared_rw = 0.20;
  c.p_shared_ro = 0.10;
  c.p_stream2 = 0.05;
  c.gen_lines = 256;
  c.gen_accesses = 5000;
  c.num_generations = 4;
  c.shared_rw_lines = 128;
  c.shared_chunk_lines = 16;
  c.shared_run = 500;
  c.shared_ro_lines = 512;
  c.shared_ro_hot_lines = 64;
  c.stream_lines = 64;
  c.stream_wrap_cycles = 4096;
  c.stream2_lines = 32;
  c.stream2_wrap_cycles = 8192;
  return c;
}

TEST(Synthetic, DeterministicForSeedAndCore) {
  SyntheticWorkload a(small_config(), 0, 7), b(small_config(), 0, 7);
  SyntheticWorkload other_core(small_config(), 1, 7);
  SyntheticWorkload other_seed(small_config(), 0, 8);
  bool same = true, core_differs = false, seed_differs = false;
  Cycle t = 0;
  for (int i = 0; i < 2000; ++i) {
    t += 3;
    const MemOp oa = a.next(t), ob = b.next(t);
    same = same && oa.addr == ob.addr && oa.type == ob.type &&
           oa.gap == ob.gap;
    core_differs = core_differs || other_core.next(t).addr != oa.addr;
    seed_differs = seed_differs || other_seed.next(t).addr != oa.addr;
  }
  EXPECT_TRUE(same);
  EXPECT_TRUE(core_differs);
  EXPECT_TRUE(seed_differs);
}

TEST(Synthetic, MemFractionMatchesConfig) {
  SyntheticWorkload w(small_config(), 0, 1);
  std::uint64_t gap_sum = 0;
  const int n = 50000;
  Cycle t = 0;
  for (int i = 0; i < n; ++i) gap_sum += w.next(t += 3).gap;
  const double mem_frac =
      static_cast<double>(n) / static_cast<double>(n + gap_sum);
  EXPECT_NEAR(mem_frac, small_config().mem_fraction, 0.01);
}

TEST(Synthetic, RegionOpSharesMatchConfig) {
  const SyntheticConfig cfg = small_config();
  SyntheticWorkload w(cfg, 0, 1);
  std::uint64_t counts[5] = {};
  const int n = 200000;
  Cycle t = 0;
  for (int i = 0; i < n; ++i) {
    const MemOp op = w.next(t += 3);
    const auto region = (op.addr >> 40) & 7;  // 1=priv 2=rw 3=ro 4=stream
    ASSERT_GE(region, 1u);
    ASSERT_LE(region, 4u);
    counts[region] += 1;
  }
  const double total = n;
  EXPECT_NEAR(counts[1] / total, cfg.p_private, 0.02);
  EXPECT_NEAR(counts[2] / total, cfg.p_shared_rw, 0.02);
  EXPECT_NEAR(counts[3] / total, cfg.p_shared_ro, 0.02);
  // Streams share one region tag; both buffers land in region 4.
  EXPECT_NEAR(counts[4] / total, cfg.p_stream() + cfg.p_stream2, 0.02);
}

TEST(Synthetic, SharedRegionsAreCommonPrivateArePartitioned) {
  const SyntheticConfig cfg = small_config();
  SyntheticWorkload w0(cfg, 0, 1), w1(cfg, 1, 1);
  EXPECT_EQ(w0.shared_rw_base(), w1.shared_rw_base());
  EXPECT_EQ(w0.shared_ro_base(), w1.shared_ro_base());
  EXPECT_NE(w0.private_base(), w1.private_base());
  EXPECT_NE(w0.stream_base(), w1.stream_base());
}

TEST(Synthetic, ReadOnlyRegionNeverStores) {
  SyntheticConfig cfg = small_config();
  cfg.p_shared_ro = 0.80;
  cfg.p_private = 0.10;
  cfg.p_shared_rw = 0.05;
  cfg.p_stream2 = 0.0;
  SyntheticWorkload w(cfg, 0, 3);
  Cycle t = 0;
  for (int i = 0; i < 20000; ++i) {
    const MemOp op = w.next(t += 3);
    if (((op.addr >> 40) & 7) == 3) {
      EXPECT_EQ(op.type, AccessType::kLoad);
    }
  }
}

TEST(Synthetic, GenerationalMigrationMovesFootprint) {
  SyntheticConfig cfg = small_config();
  cfg.p_private = 1.0;
  cfg.p_shared_rw = 0.0;
  cfg.p_shared_ro = 0.0;
  cfg.p_stream2 = 0.0;
  // All ops private: generation advances every gen_accesses ops.
  SyntheticWorkload w(cfg, 0, 1);
  std::set<std::uint64_t> first_gen_lines, second_gen_lines;
  Cycle t = 0;
  for (std::uint64_t i = 0; i < cfg.gen_accesses; ++i) {
    first_gen_lines.insert((w.next(t += 3).addr >> 6) % (cfg.gen_lines * 8));
  }
  for (std::uint64_t i = 0; i < cfg.gen_accesses; ++i) {
    second_gen_lines.insert((w.next(t += 3).addr >> 6) % (cfg.gen_lines * 8));
  }
  // The two generations occupy disjoint line ranges.
  for (const auto l : second_gen_lines) {
    EXPECT_EQ(first_gen_lines.count(l), 0u) << l;
  }
}

TEST(Synthetic, StreamPositionIsTimePaced) {
  SyntheticConfig cfg = small_config();
  cfg.p_private = 0.0;
  cfg.p_shared_rw = 0.0;
  cfg.p_shared_ro = 0.0;
  cfg.p_stream2 = 0.0;    // everything from stream 1
  cfg.stream_burst = 1;   // every op samples the clock
  const Cycle period = cfg.stream_wrap_cycles / cfg.stream_lines;

  // The streamed address is a pure function of time: independent of seed
  // and of how many ops were drawn before.
  const Addr a = SyntheticWorkload(cfg, 0, 1).next(10 * period).addr;
  const Addr b = SyntheticWorkload(cfg, 0, 99).next(10 * period).addr;
  EXPECT_EQ(a, b);

  // The position advances one line per period and wraps exactly at the
  // configured wrap interval.
  const Addr next_line =
      SyntheticWorkload(cfg, 0, 1).next(11 * period).addr;
  EXPECT_EQ(next_line, a + cfg.line_bytes);
  const Addr wrapped =
      SyntheticWorkload(cfg, 0, 1).next(10 * period + cfg.stream_wrap_cycles)
          .addr;
  EXPECT_EQ(wrapped, a);
}

TEST(Synthetic, FootprintBytesAccountsAllRegions) {
  const SyntheticConfig cfg = small_config();
  const std::uint64_t lines = cfg.gen_lines * cfg.num_generations +
                              cfg.shared_rw_lines + cfg.shared_ro_lines +
                              cfg.stream_lines + cfg.stream2_lines;
  EXPECT_EQ(cfg.footprint_bytes(), lines * cfg.line_bytes);
}

// --- benchmark suite ----------------------------------------------------------

TEST(BenchmarkSuite, HasThePaperSixInOrder) {
  const auto& suite = benchmark_suite();
  ASSERT_EQ(suite.size(), 6u);
  EXPECT_EQ(suite[0].config.name, "mpeg2enc");
  EXPECT_EQ(suite[1].config.name, "mpeg2dec");
  EXPECT_EQ(suite[2].config.name, "facerec");
  EXPECT_EQ(suite[3].config.name, "WATER-NS");
  EXPECT_EQ(suite[4].config.name, "FMM");
  EXPECT_EQ(suite[5].config.name, "VOLREND");
  for (std::size_t i = 0; i < 3; ++i) EXPECT_FALSE(suite[i].scientific);
  for (std::size_t i = 3; i < 6; ++i) EXPECT_TRUE(suite[i].scientific);
}

TEST(BenchmarkSuite, LookupByName) {
  EXPECT_EQ(benchmark_by_name("FMM").config.name, "FMM");
  EXPECT_TRUE(benchmark_by_name("WATER-NS").scientific);
  try {
    (void)benchmark_by_name("fmm");  // names are case-sensitive
    ADD_FAILURE() << "unknown name accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unknown benchmark \"fmm\" (mpeg2enc|mpeg2dec|facerec|"
                 "WATER-NS|FMM|VOLREND)");
  }
}

TEST(BenchmarkSuite, ConfigsAreInternallyConsistent) {
  for (const auto& b : benchmark_suite()) {
    const auto& c = b.config;
    EXPECT_GT(c.p_stream(), 0.0) << c.name;
    EXPECT_LE(c.p_private + c.p_shared_rw + c.p_shared_ro + c.p_stream2, 1.0)
        << c.name;
    EXPECT_GE(c.shared_rw_lines, c.shared_chunk_lines) << c.name;
    EXPECT_LE(c.shared_ro_hot_lines, c.shared_ro_lines) << c.name;
    // Streams must be constructible and their wrap periods resolvable.
    EXPECT_GE(c.stream_wrap_cycles / c.stream_lines, 1u) << c.name;
    // Footprint stays within a sane band (DESIGN.md §6 calibration).
    EXPECT_GT(c.footprint_bytes(), 512 * KiB) << c.name;
    EXPECT_LT(c.footprint_bytes(), 4 * MiB) << c.name;
  }
}

TEST(BenchmarkSuite, StreamsInstantiateForEveryCore) {
  for (const auto& b : benchmark_suite()) {
    for (CoreId c = 0; c < 4; ++c) {
      auto s = make_stream(b, c, 42);
      ASSERT_NE(s, nullptr);
      EXPECT_EQ(s->name(), b.config.name);
      Cycle t = 0;
      for (int i = 0; i < 100; ++i) {
        const MemOp op = s->next(t += 3);
        EXPECT_NE(op.addr, 0u);
      }
    }
  }
}

// --- scripted ---------------------------------------------------------------------

TEST(Scripted, LoopsByDefault) {
  std::vector<MemOp> ops = {
      {AccessType::kLoad, 0x40, 1, false, 0},
      {AccessType::kStore, 0x80, 2, false, 0},
  };
  ScriptedWorkload w(ops);
  EXPECT_EQ(w.next(0).addr, 0x40u);
  EXPECT_EQ(w.next(0).addr, 0x80u);
  EXPECT_EQ(w.next(0).addr, 0x40u);  // wrapped
}

TEST(Scripted, LoopModeNeverRestamps) {
  std::vector<MemOp> ops = {
      {AccessType::kLoad, 0x40, 1, true, 2},
  };
  ScriptedWorkload w(ops);
  for (int i = 0; i < 4; ++i) {
    const MemOp op = w.next(0);
    EXPECT_TRUE(op.dependent) << i;
    EXPECT_EQ(op.chain, 2u) << i;
  }
}

// --- replay tail ------------------------------------------------------------

/// Both replay factories over one in-memory trace: the shared cursor
/// demultiplexed per core, and a private cursor per core.
std::vector<StreamFactory> replay_factories(Trace trace) {
  const auto shared = std::make_shared<const Trace>(std::move(trace));
  const TraceOpener open = [shared]() -> TraceSourcePtr {
    return std::make_unique<InMemoryTraceSource>(shared);
  };
  return {replay_factory(open), streaming_replay_factory(open)};
}

TEST(ReplayTail, HoldsFinalOpOnBothFactories) {
  // Core 1's records interleave with core 0's; core 2 recorded none.
  Trace trace;
  trace.num_cores = 3;
  trace.append({0, {AccessType::kLoad, 0x40, 1, false, 0}});
  trace.append({1, {AccessType::kStore, 0x1000, 1, false, 0}});
  trace.append({0, {AccessType::kLoad, 0x80, 1, false, 0}});
  const std::vector<StreamFactory> factories = replay_factories(trace);
  for (std::size_t f = 0; f < factories.size(); ++f) {
    SCOPED_TRACE(f);
    const StreamPtr s0 = factories[f](0, 0);
    const StreamPtr s1 = factories[f](1, 0);
    const StreamPtr s2 = factories[f](2, 0);
    EXPECT_EQ(s0->next(0).addr, 0x40u);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(s0->next(0).addr, 0x80u);
      EXPECT_EQ(s1->next(0).addr, 0x1000u);
      // The core the trace never scheduled replays the idle filler.
      const MemOp idle = s2->next(0);
      EXPECT_EQ(idle.addr, replay_idle_op(2).addr);
      EXPECT_FALSE(idle.dependent);
    }
  }
}

TEST(ReplayTail, RestampsDependenceOnBothFactories) {
  // The final op is a dependent pointer-chase load. It must be returned
  // verbatim once (it is part of the trace); every repeat after that is
  // the same op re-stamped independent — a repeated dependent load would
  // chain on its own previous issue and serialize the filler tail, making
  // replay timing depend on the repeat count instead of the trace.
  Trace trace;
  trace.num_cores = 2;
  trace.append({0, {AccessType::kLoad, 0x40, 2, false, 1}});
  trace.append({1, {AccessType::kLoad, 0x2000, 1, true, 2}});
  trace.append({0, {AccessType::kLoad, 0x80, 5, true, 3}});
  const std::vector<StreamFactory> factories = replay_factories(trace);
  for (std::size_t f = 0; f < factories.size(); ++f) {
    SCOPED_TRACE(f);
    const StreamPtr s = factories[f](0, 0);
    (void)s->next(0);

    const MemOp last = s->next(0);  // the recorded final op, verbatim
    EXPECT_EQ(last.addr, 0x80u);
    EXPECT_TRUE(last.dependent);
    EXPECT_EQ(last.gap, 5u);
    EXPECT_EQ(last.chain, 3u);

    for (int i = 0; i < 3; ++i) {
      const MemOp rep = s->next(0);  // tail filler: re-stamped
      EXPECT_EQ(rep.addr, 0x80u);
      EXPECT_EQ(rep.type, AccessType::kLoad);
      EXPECT_FALSE(rep.dependent);
      EXPECT_EQ(rep.gap, 5u);    // pacing preserved
      EXPECT_EQ(rep.chain, 3u);  // identity preserved
    }
  }
}

}  // namespace
}  // namespace cdsim::workload
