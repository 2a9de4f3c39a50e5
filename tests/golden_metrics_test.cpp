// Golden-metrics regression guard for the simulation kernel.
//
// Pins four configurations (three decay techniques across cache sizes and
// hierarchical-tick settings, plus one baseline) and asserts EXACT RunMetrics
// equality — integers with EXPECT_EQ, doubles bit-for-bit via hexfloat
// constants. The expectations were captured from the kernel immediately
// before the expiry-wheel / calendar-queue / SmallFn rewrite (after the
// write-stats and decay-attribution fixes of the same PR), so this suite
// is the proof that the performance work preserved simulated behavior
// exactly: turn-off schedules, event interleaving, power integrals,
// everything.
//
// If an intentional modeling change shifts these numbers, re-capture them
// in the same commit — never loosen the comparisons. A failing pinned test
// prints every live leaf (sim::format_metrics, doubles in hexfloat) to copy.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "cdsim/power/energy.hpp"
#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/workload/benchmarks.hpp"
#include "cdsim/workload/fuzzer.hpp"
#include "cdsim/workload/trace_v2.hpp"
#include "three_level_pins.hpp"

namespace {

using namespace cdsim;

/// The re-capture printout, once the current test has failed.
void print_live_metrics_on_failure(const sim::RunMetrics& m) {
  if (!::testing::Test::HasFailure()) return;
  std::printf("live metrics:\n%s", sim::format_metrics(m).c_str());
}

struct GoldenCase {
  const char* bench;
  std::uint64_t total_mib;
  decay::Technique technique;
  Cycle decay_time;
  std::uint32_t hierarchical_ticks;
  std::uint64_t instr_per_core;

  Cycle cycles;
  std::uint64_t instructions;
  double ipc;
  double l2_occupation;
  double l2_miss_rate;
  std::uint64_t l2_accesses;
  std::uint64_t l2_misses;
  std::uint64_t l2_decay_turnoffs;
  std::uint64_t l2_decay_induced_misses;
  std::uint64_t l2_coherence_invals;
  std::uint64_t l2_writebacks;
  double amat;
  double mem_bandwidth;
  std::uint64_t mem_bytes;
  double energy;
  double avg_l2_temp_kelvin;
  double bus_utilization;
  double ledger[power::kNumComponents];
};

// Captured by running each configuration through sim::run_config and
// printing every field with "%a" / exact integers, as a failing test does
// (the 8 MiB decay64K cell is also in bench_kernel's JSON). Hexfloat
// constants are exact — no rounding on re-parse.
constexpr GoldenCase kGolden[] = {
    // mpeg2enc 4MiB decay64K ticks=4 instr=200000
    {"mpeg2enc", 4, decay::Technique::kDecay, 64 * 1024, 4, 200000,
     160844u, 800008u, 0x1.3e52f454924cep+2, 0x1.bc5f2ddb78311p-5,
     0x1.32eaccf8018dp-3, 89796u, 13457u, 1703u, 400u, 1123u, 783u,
     0x1.a6d57904c21dap+4, 0x1.c1ac3b0e0cf99p+1, 565056u,
     0x1.4611521388846p+19, 0x1.49b220c819294p+8, 0x1.5bbf1687df405p-2,
     {0x1.3880ccccccccdp+18, 0x1.017fc058fb134p+18, 0x1.214beb851eb84p+13,
      0x1.c173edfd0ead2p+14, 0x1.8f9828f5c28f5p+13, 0x1.2005bcd90d6ap+14,
      0x1.1f045c5160962p+13, 0x1.1a872b020c49bp+11, 0x1.ab153bc09fd76p+11}},
    // FMM 8MiB sel_decay64K ticks=4 instr=200000
    {"FMM", 8, decay::Technique::kSelectiveDecay, 64 * 1024, 4, 200000,
     411619u, 800000u, 0x1.f18c2842516f5p+0, 0x1.5236ba75abd56p-5,
     0x1.f6b47007850a1p-3, 102949u, 25270u, 3671u, 1815u, 2653u, 0u,
     0x1.4fe989f54ffa1p+4, 0x1.2c84c871c8bd1p+1, 966400u,
     0x1.2cb0af0345b2ap+20, 0x1.498a472494b73p+8, 0x1.d3049a088261ep-3,
     {0x1.388p+18, 0x1.48f9af555731ep+19, 0x1.06b2666666664p+13,
      0x1.1f1b120950c05p+16, 0x1.f8070a3d70a3fp+13, 0x1.17eb6ef3f4a19p+16,
      0x1.73b4b5af75239p+15, 0x1.e333333333335p+11, 0x1.05af481a34b17p+14}},
    // WATER-NS 2MiB decay128K ticks=8 instr=300000
    {"WATER-NS", 2, decay::Technique::kDecay, 128 * 1024, 8, 300000,
     412161u, 1200012u, 0x1.74ac73036d3c3p+1, 0x1.ecadeb7fda8ddp-4,
     0x1.8b72a55726327p-3, 140603u, 27149u, 7228u, 2717u, 6178u, 2303u,
     0x1.2477f25405a5ap+4, 0x1.894d086125c88p+1, 1266432u,
     0x1.45b736eb30357p+20, 0x1.498a590729906p+8, 0x1.38bc11b11f36dp-2,
     {0x1.d4c1333333333p+18, 0x1.4998fee5c8141p+19, 0x1.6886666666662p+13,
      0x1.1fa61af715035p+16, 0x1.4bee70a3d70a5p+14, 0x1.9866f615dec72p+15,
      0x1.5587404721b0bp+13, 0x1.3c9ba5e353f7ep+12, 0x1.1460959157e71p+12}},
    // mpeg2enc 4MiB baseline instr=200000
    {"mpeg2enc", 4, decay::Technique::kBaseline, 0, 4, 200000,
     150133u, 800008u, 0x1.5508cc01350e5p+2, 0x1p+0, 0x1.1e802cd580851p-3,
     92821u, 12985u, 0u, 0u, 1115u, 0u, 0x1.848baf494991dp+4,
     0x1.a0b6691f6f3d4p+1, 488768u, 0x1.c104eb44f4748p+19,
     0x1.49c54c98e4eep+8, 0x1.4395748213767p-2,
     {0x1.3880cccccccccp+18, 0x1.e0b53556d8de9p+17, 0x1.20f1ae147ae14p+13,
      0x1.a386df6c602d4p+14, 0x1.97be28f5c28f3p+13, 0x1.2747bdc6f1db4p+18,
      0x0p+0, 0x1.e8c49ba5e354p+10, 0x0p+0}},
};

class GoldenMetricsTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenMetricsTest, RunMetricsAreBitIdentical) {
  const GoldenCase& g = kGolden[GetParam()];
  decay::DecayConfig d{g.technique, g.decay_time, g.hierarchical_ticks};
  const std::string trace = std::string(g.bench) + "/" +
                            std::to_string(g.total_mib) + "MiB/" + d.label();
  SCOPED_TRACE(trace);
  sim::SystemConfig cfg = sim::make_system_config(g.total_mib * MiB, d);
  cfg.instructions_per_core = g.instr_per_core;
  const sim::RunMetrics m =
      sim::run_config(cfg, workload::benchmark_by_name(g.bench));

  EXPECT_EQ(m.cycles, g.cycles);
  EXPECT_EQ(m.instructions, g.instructions);
  EXPECT_EQ(m.l2_accesses, g.l2_accesses);
  EXPECT_EQ(m.l2_misses, g.l2_misses);
  EXPECT_EQ(m.l2_decay_turnoffs, g.l2_decay_turnoffs);
  EXPECT_EQ(m.l2_decay_induced_misses, g.l2_decay_induced_misses);
  EXPECT_EQ(m.l2_coherence_invals, g.l2_coherence_invals);
  EXPECT_EQ(m.l2_writebacks, g.l2_writebacks);
  EXPECT_EQ(m.mem_bytes, g.mem_bytes);

  // Doubles: exact binary equality, not a tolerance. The kernel is fully
  // deterministic; any drift here means simulated behavior changed.
  EXPECT_EQ(m.ipc, g.ipc);
  EXPECT_EQ(m.l2_occupation, g.l2_occupation);
  EXPECT_EQ(m.l2_miss_rate, g.l2_miss_rate);
  EXPECT_EQ(m.amat, g.amat);
  EXPECT_EQ(m.mem_bandwidth, g.mem_bandwidth);
  EXPECT_EQ(m.energy, g.energy);
  EXPECT_EQ(m.avg_l2_temp_kelvin, g.avg_l2_temp_kelvin);
  EXPECT_EQ(m.bus_utilization, g.bus_utilization);
  for (std::size_t i = 0; i < power::kNumComponents; ++i) {
    const auto c = static_cast<power::Component>(i);
    EXPECT_EQ(m.ledger.get(c), g.ledger[i]) << to_string(c);
  }
  print_live_metrics_on_failure(m);
}

INSTANTIATE_TEST_SUITE_P(PinnedConfigs, GoldenMetricsTest,
                         ::testing::Range<std::size_t>(0, std::size(kGolden)));

// The .cdt trace-replay path, pinned the same way: a deterministic
// fuzzer-generated trace is written to disk, read back, and replayed
// through ScriptedWorkload with per-core budgets — every metric must come
// out bit-identical to the values captured when the path was introduced.
// This puts the whole capture -> serialize -> parse -> replay pipeline
// under the exact-hexfloat regression guard.
TEST(GoldenMetricsTest, TraceReplayCdtPathIsPinned) {
  workload::FuzzerConfig fc;
  fc.num_cores = 2;
  fc.decay_window = 2048;
  workload::Trace t;
  t.num_cores = 2;
  for (CoreId c = 0; c < 2; ++c) {
    workload::FuzzerWorkload w(fc, c, /*seed=*/99);
    Cycle now = 0;
    for (int i = 0; i < 1200; ++i) t.records.push_back({c, w.next(now += 2)});
  }

  const std::string path = ::testing::TempDir() + "golden_replay_" +
                           std::to_string(static_cast<long>(::getpid())) +
                           ".cdt";
  std::string err;
  ASSERT_TRUE(workload::save_v2(t, path, &err)) << err;
  const auto loaded = workload::open_trace_source(path, &err);
  ASSERT_NE(loaded, nullptr) << err;

  sim::SystemConfig cfg;
  cfg.num_cores = 2;
  cfg.total_l2_bytes = 128 * KiB;
  cfg.decay = decay::DecayConfig{decay::Technique::kDecay, 2048, 4};
  cfg.l1.size_bytes = 8 * KiB;
  cfg.per_core_instructions = loaded->per_core_instructions();
  ASSERT_EQ(cfg.per_core_instructions[0], 207251u);
  ASSERT_EQ(cfg.per_core_instructions[1], 286103u);
  workload::Benchmark bench;
  bench.config.name = "trace-replay";
  sim::CmpSystem sys(cfg, bench, workload::replay_factory([&path] {
                       return workload::open_trace_source(path);
                     }));
  const sim::RunMetrics m = sys.run();
  std::remove(path.c_str());

  EXPECT_EQ(m.cycles, 93395u);
  EXPECT_EQ(m.instructions, 493354u);
  EXPECT_EQ(m.l2_accesses, 1985u);
  EXPECT_EQ(m.l2_misses, 1765u);
  EXPECT_EQ(m.l2_decay_turnoffs, 1372u);
  EXPECT_EQ(m.l2_decay_induced_misses, 776u);
  EXPECT_EQ(m.l2_coherence_invals, 66u);
  EXPECT_EQ(m.l2_writebacks, 415u);
  EXPECT_EQ(m.mem_bytes, 119424u);
  EXPECT_EQ(m.ipc, 0x1.5213966768a0ep+2);
  EXPECT_EQ(m.l2_occupation, 0x1.2ace7608f0f88p-6);
  EXPECT_EQ(m.l2_miss_rate, 0x1.c74120e2fb7c7p-1);
  EXPECT_EQ(m.amat, 0x1.040db33747356p+7);
  EXPECT_EQ(m.mem_bandwidth, 0x1.4758c098cbffep+0);
  EXPECT_EQ(m.energy, 0x1.152adee424fddp+18);
  print_live_metrics_on_failure(m);
}

// The three-level rows (kThreeLevel, tests/three_level_pins.hpp), each a
// standalone run; ParallelRunnerTest reproduces two of them as views.
TEST(GoldenMetricsTest, ThreeLevelConfigIsPinned) {
  for (std::size_t row = 0; row < std::size(kThreeLevel); ++row) {
    const ThreeLevelCase& g = kThreeLevel[row];
    const sim::SystemConfig cfg = three_level_pin_config(g.l1, g.l2, g.l3);
    SCOPED_TRACE("L1 " + cfg.l1_decay.label() + " / L2 " +
                 cfg.decay.label() + " / L3 " + cfg.l3_decay.label());
    const sim::RunMetrics m =
        sim::run_config(cfg, workload::benchmark_by_name("FMM"));

    EXPECT_EQ(m.energy, g.energy);
    EXPECT_EQ(m.l1.occupation, g.l1_occupation);
    EXPECT_EQ(m.l2_occupation, g.l2_occupation);
    EXPECT_EQ(m.l2.occupation, g.l2_occupation);
    EXPECT_EQ(m.l3.occupation, g.l3_occupation);
    for (std::size_t i = 0; i < power::kNumComponents; ++i) {
      const auto c = static_cast<power::Component>(i);
      EXPECT_EQ(m.ledger.get(c), g.ledger[i]) << to_string(c);
    }
    if (row == 0) {
      EXPECT_EQ(m.cycles, 243368u);
      EXPECT_EQ(m.instructions, 800000u);
      EXPECT_EQ(m.ipc, 0x1.a4c310b449c05p+1);
      EXPECT_EQ(m.l2_miss_rate, 0x1.29f3cd1fc15f1p-2);
      EXPECT_EQ(m.l2_accesses, 103334u);
      EXPECT_EQ(m.l2_misses, 30067u);
      EXPECT_EQ(m.l2_decay_turnoffs, 9004u);
      EXPECT_EQ(m.l2_decay_induced_misses, 1310u);
      EXPECT_EQ(m.l2_coherence_invals, 2903u);
      EXPECT_EQ(m.l2_writebacks, 5792u);
      EXPECT_EQ(m.amat, 0x1.a65fa165cfe6dp+4);
      EXPECT_EQ(m.mem_bandwidth, 0x1.7ba0d7292cff1p+1);
      EXPECT_EQ(m.mem_bytes, 721792u);
      EXPECT_EQ(m.avg_l2_temp_kelvin, 0x1.49a1534742d7ap+8);
      EXPECT_EQ(m.bus_utilization, 0x1.93add566ed426p-3);
      EXPECT_EQ(m.noc_flit_hops, 301983u);
      EXPECT_EQ(m.noc_avg_packet_latency, 0x1.b937deb1c228dp+5);
      EXPECT_EQ(m.dir_directed_snoops, 19007u);
      EXPECT_EQ(m.dir_recalls, 41u);  // MOESI O turn-offs as directed recalls
      EXPECT_EQ(m.dir_deferrals, 0u);

      // Per-level attribution: decay fired at all three levels, and the L3
      // banks really served fills.
      EXPECT_EQ(m.hierarchy, "3L");
      EXPECT_EQ(m.l1.accesses, 280457u);
      EXPECT_EQ(m.l1.hits, 224194u);
      EXPECT_EQ(m.l1.misses, 56263u);
      EXPECT_EQ(m.l1.decay_turnoffs, 193u);
      EXPECT_EQ(m.l1.decay_induced_misses, 11u);
      EXPECT_EQ(m.l1.writebacks, 0u);  // write-through front end
      EXPECT_EQ(m.l2.accesses, m.l2_accesses);
      EXPECT_EQ(m.l2.hits, 73267u);
      EXPECT_EQ(m.l2.decay_turnoffs, m.l2_decay_turnoffs);
      EXPECT_EQ(m.l3.accesses, 19194u);
      EXPECT_EQ(m.l3.hits, 8671u);
      EXPECT_EQ(m.l3.misses, 10523u);
      EXPECT_EQ(m.l3.decay_turnoffs, 1579u);
      // 0 is correct, not a regression: every L3 access that lands on a
      // decayed line in this run is an absorbed write-back (55 of them),
      // and absorbs deliberately skip note_miss — writing fresh data into a
      // dead frame costs no refetch, so charging decay_induced_misses would
      // double-count. The demand-access path still attributes decay misses
      // (L1/L2 pins above are non-zero); this config simply never
      // demand-hits a decayed L3 line.
      EXPECT_EQ(m.l3.decay_induced_misses, 0u);
      EXPECT_EQ(m.l3.writebacks, 179u);
    }
    print_live_metrics_on_failure(m);
  }
}

// The banked-DRAM memory model, pinned the same way: the mpeg2enc decay64K
// configuration re-run with mem.model = kDram and the per-core TLBs on.
// Captured with "%a" when the DRAM controller was introduced (a failing
// run prints the live values); any drift means the DRAM scheduler's
// simulated behavior (row-buffer policy, FR-FCFS order, refresh, TLB
// walks) changed. The flat-mode pins above are untouched by construction —
// kFlat timing is the historical channel, bit for bit.
TEST(GoldenMetricsTest, DramConfigIsPinned) {
  decay::DecayConfig d{decay::Technique::kDecay, 64 * 1024, 4};
  sim::SystemConfig cfg = sim::make_system_config(4 * MiB, d);
  cfg.instructions_per_core = 200000;
  cfg.mem.model = mem::MemoryModel::kDram;
  cfg.mem.tlb.enabled = true;
  const sim::RunMetrics m =
      sim::run_config(cfg, workload::benchmark_by_name("mpeg2enc"));

  EXPECT_EQ(m.cycles, 1236401u);
  EXPECT_EQ(m.instructions, 800008u);
  EXPECT_EQ(m.ipc, 0x1.4b499448c2546p-1);
  EXPECT_EQ(m.l2_occupation, 0x1.7b9ef4f3ae8bdp-6);
  EXPECT_EQ(m.l2_miss_rate, 0x1.72837eee06dfap-2);
  EXPECT_EQ(m.l2_accesses, 88865u);
  EXPECT_EQ(m.l2_misses, 32154u);
  EXPECT_EQ(m.l2_decay_turnoffs, 17079u);
  EXPECT_EQ(m.l2_decay_induced_misses, 11663u);
  EXPECT_EQ(m.l2_coherence_invals, 456u);
  EXPECT_EQ(m.l2_writebacks, 8860u);
  EXPECT_EQ(m.amat, 0x1.18260e43af70dp+8);
  EXPECT_EQ(m.mem_bandwidth, 0x1.72f2084e0c835p+0);
  EXPECT_EQ(m.mem_bytes, 1791552u);
  EXPECT_EQ(m.energy, 0x1.51fa98ad29b67p+21);
  EXPECT_EQ(m.avg_l2_temp_kelvin, 0x1.4901819e49a1ep+8);
  EXPECT_EQ(m.bus_utilization, 0x1.176bec9e0d9c1p-3);

  // The DRAM service mix: mostly hits and conflicts (streaming rows vs
  // decay write-back interleave), refresh really ticking, forwarding
  // really firing, and the TLBs nearly always hitting on these footprints.
  EXPECT_EQ(m.mem_model, "dram");
  EXPECT_EQ(m.dram_row_hits, 12895u);
  EXPECT_EQ(m.dram_row_misses, 753u);
  EXPECT_EQ(m.dram_row_conflicts, 14289u);
  EXPECT_EQ(m.dram_activates, 15042u);
  EXPECT_EQ(m.dram_precharges, 14289u);
  EXPECT_EQ(m.dram_refreshes, 90u);
  EXPECT_EQ(m.dram_write_forwards, 56u);
  EXPECT_EQ(m.tlb_hits, 316243u);
  EXPECT_EQ(m.tlb_misses, 129u);

  const double ledger[power::kNumComponents] = {
      0x1.3880cccccccc8p+18, 0x1.eb745b74635d8p+20, 0x1.289947ae147b2p+13,
      0x1.ace7e01b1a357p+17, 0x1.e2b8666666665p+13, 0x1.d57e085f4b993p+15,
      0x1.1adbd708b681ap+16, 0x1.bfe353f7ced95p+12, 0x1.84dd5fb98fd7fp+14,
      0x0p+0,                0x0p+0,                0x0p+0,
      0x0p+0,                0x0p+0,                0x1.1a0999999999ap+14,
      0x1.0beb333333335p+13};
  for (std::size_t i = 0; i < power::kNumComponents; ++i) {
    const auto c = static_cast<power::Component>(i);
    EXPECT_EQ(m.ledger.get(c), ledger[i]) << to_string(c);
  }
  print_live_metrics_on_failure(m);
}

// The kernel must also be self-deterministic: two runs of the same config
// in one process give identical results (guards accidental global state).
TEST(GoldenMetricsTest, RepeatRunsAreIdentical) {
  decay::DecayConfig d{decay::Technique::kDecay, 64 * 1024, 4};
  sim::SystemConfig cfg = sim::make_system_config(1 * MiB, d);
  cfg.instructions_per_core = 50000;
  const auto& bench = workload::benchmark_by_name("FMM");
  const sim::RunMetrics a = sim::run_config(cfg, bench);
  const sim::RunMetrics b = sim::run_config(cfg, bench);
  EXPECT_EQ(sim::first_difference(a, b), "");
}

}  // namespace
