// bench_memory — the memory-side datapoint: the same workload run against
// the banked DRAM model (per-core TLBs on) under increasingly aggressive
// cache decay. The interesting quantity is the row-buffer hit rate,
// dram_row_hits / (dram_row_hits + dram_row_misses + dram_row_conflicts):
// decay turn-offs eject dirty lines in bursts, and those write-backs
// interleave with demand reads at the DRAM banks, replacing streaming row
// hits with row conflicts. A flat-model reference cell anchors the IPC
// comparison.
//
// Emits BENCH_memory.json (CI uploads it as an artifact): one row per
// machine, its name and then every RunMetrics leaf. The machines fill
// through the ExperimentRunner, so a rerun reads them from the results
// cache.
//
// Usage: bench_memory [output.json]   (default: BENCH_memory.json)
//        CDSIM_INSTR=<n> overrides the 120000 instructions/core default
//        (CI uses a small value: this is a datapoint generator, not a
//        statistically rigorous benchmark harness).

#include <cstdio>
#include <string>
#include <vector>

#include "cdsim/sim/experiment.hpp"
#include "cdsim/workload/benchmarks.hpp"
#include "figure_common.hpp"

using namespace cdsim;

namespace {

constexpr const char* kBenchmark = "mpeg2enc";  // streaming + working set
constexpr std::uint64_t kTotalL2MiB = 4;

}  // namespace

int main(int argc, char** argv) try {
  // Read first, so a malformed CDSIM_INSTR exits 1 before the runner.
  const auto env_instr =
      sim::detail::instructions_from_env(120000, "bench_memory");
  if (!env_instr) return 1;
  sim::ExperimentRunner runner(*env_instr);
  const std::uint64_t instr = runner.instructions_per_core();

  struct Shape {
    const char* name;
    mem::MemoryModel model;
    decay::DecayConfig technique;
  };
  const Shape shapes[] = {
      {"flat/decay64K", mem::MemoryModel::kFlat,
       decay::DecayConfig{decay::Technique::kDecay, 64 * 1024, 4}},
      {"dram/baseline", mem::MemoryModel::kDram, sim::baseline_config()},
      {"dram/decay256K", mem::MemoryModel::kDram,
       decay::DecayConfig{decay::Technique::kDecay, 256 * 1024, 4}},
      {"dram/decay64K", mem::MemoryModel::kDram,
       decay::DecayConfig{decay::Technique::kDecay, 64 * 1024, 4}},
      {"dram/decay16K", mem::MemoryModel::kDram,
       decay::DecayConfig{decay::Technique::kDecay, 16 * 1024, 4}},
  };

  const workload::Benchmark& bench = workload::benchmark_by_name(kBenchmark);
  std::printf("bench_memory: %s, %llu MiB L2, %llu instr/core, "
              "flat reference + DRAM x decay aggressiveness\n",
              kBenchmark, static_cast<unsigned long long>(kTotalL2MiB),
              static_cast<unsigned long long>(instr));

  std::vector<sim::MachineCell> cells;
  std::vector<std::vector<bench::JsonField>> labels;
  for (const Shape& shape : shapes) {
    sim::SystemConfig cfg =
        sim::make_system_config(kTotalL2MiB * MiB, shape.technique);
    cfg.instructions_per_core = instr;
    cfg.mem.model = shape.model;
    cfg.mem.tlb.enabled = shape.model == mem::MemoryModel::kDram;
    // One channel: with the default fine-grained channel interleave the
    // cores' streams already shred row locality and the decay effect is
    // buried; a single channel keeps the baseline row-hit rate high so
    // the write-back bursts' damage is measurable.
    cfg.mem.dram.channels = 1;
    cells.push_back({cfg, &bench});
    labels.push_back({{"name", shape.name}});
  }
  const sim::MachineResults runs = runner.run_machines(cells);
  bench::report_sweep(runs.stats);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const sim::RunMetrics& m = runs.metrics[i];
    const auto rows = static_cast<double>(
        m.dram_row_hits + m.dram_row_misses + m.dram_row_conflicts);
    std::printf("  %-14s ipc=%6.3f mem=%8llu B rowhit%%=%5.1f "
                "conflicts=%7llu wb=%6llu fwd=%4llu\n",
                shapes[i].name, m.ipc,
                static_cast<unsigned long long>(m.mem_bytes),
                rows > 0.0 ? 100.0 * static_cast<double>(m.dram_row_hits) / rows
                           : 0.0,
                static_cast<unsigned long long>(m.dram_row_conflicts),
                static_cast<unsigned long long>(m.l2_writebacks),
                static_cast<unsigned long long>(m.dram_write_forwards));
  }

  const char* out = argc > 1 ? argv[1] : "BENCH_memory.json";
  if (!bench::write_datapoints("bench_memory", out,
                               {{"benchmark", kBenchmark},
                                {"total_l2_mib", kTotalL2MiB},
                                {"instructions_per_core", instr}},
                               labels, runs.metrics)) {
    return 1;
  }
  std::printf("bench_memory: wrote %s (%zu configs)\n", out, cells.size());
  return 0;
} catch (const std::invalid_argument& e) {
  // The runner rejects a malformed CDSIM_INSTR or an empty CDSIM_CACHE_FILE.
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
