// bench_memory — the memory-side datapoint: the same workload run against
// the banked DRAM model (per-core TLBs on) under increasingly aggressive
// cache decay. The interesting column is the row-buffer hit rate: decay
// turn-offs eject dirty lines in bursts, and those write-backs interleave
// with demand reads at the DRAM banks, replacing streaming row hits with
// row conflicts. A flat-model reference cell anchors the IPC comparison.
//
// Emits BENCH_memory.json (CI uploads it as an artifact).
//
// Usage: bench_memory [output.json]   (default: BENCH_memory.json)
//        CDSIM_INSTR=<n> overrides the 120000 instructions/core default
//        (CI uses a small value: this is a datapoint generator, not a
//        statistically rigorous benchmark harness).

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "cdsim/common/version.hpp"
#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/workload/benchmarks.hpp"
#include "figure_common.hpp"

using namespace cdsim;

namespace {

constexpr const char* kBenchmark = "mpeg2enc";  // streaming + working set
constexpr std::uint64_t kTotalL2MiB = 4;

struct Cell {
  const char* name;
  mem::MemoryModel model;
  decay::DecayConfig technique;
  sim::RunMetrics m;
  double wall_ms = 0.0;
};

double row_hit_rate(const sim::RunMetrics& m) {
  const double total = static_cast<double>(
      m.dram_row_hits + m.dram_row_misses + m.dram_row_conflicts);
  return total > 0.0 ? static_cast<double>(m.dram_row_hits) / total : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto env_instr =
      sim::detail::instructions_from_env(120000, "bench_memory");
  if (!env_instr) return 1;
  const std::uint64_t instr = *env_instr;

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
  std::vector<Cell> cells;
  std::printf("bench_memory: %s, %llu MiB L2, %llu instr/core, "
              "flat reference + DRAM x decay aggressiveness\n",
              kBenchmark, static_cast<unsigned long long>(kTotalL2MiB),
              static_cast<unsigned long long>(instr));

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

    const auto t0 = std::chrono::steady_clock::now();
    Cell cell{shape.name, shape.model, shape.technique,
              sim::run_config(cfg, bench), 0.0};
    cell.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    const sim::RunMetrics& m = cell.m;
    std::printf("  %-14s ipc=%6.3f mem=%8llu B rowhit%%=%5.1f "
                "conflicts=%7llu wb=%6llu fwd=%4llu  (%.0f ms)\n",
                cell.name, m.ipc,
                static_cast<unsigned long long>(m.mem_bytes),
                100.0 * row_hit_rate(m),
                static_cast<unsigned long long>(m.dram_row_conflicts),
                static_cast<unsigned long long>(m.l2_writebacks),
                static_cast<unsigned long long>(m.dram_write_forwards),
                cell.wall_ms);
    cells.push_back(std::move(cell));
  }

  const char* out = argc > 1 ? argv[1] : "BENCH_memory.json";
  std::FILE* f = std::fopen(out, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_memory: cannot write %s\n", out);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_memory\",\n");
  std::fprintf(f, "  \"version\": \"%s\",\n", version());
  std::fprintf(f, "  \"benchmark\": \"%s\",\n  \"total_l2_mib\": %llu,\n",
               kBenchmark, static_cast<unsigned long long>(kTotalL2MiB));
  std::fprintf(f, "  \"instructions_per_core\": %llu,\n  \"configs\": [\n",
               static_cast<unsigned long long>(instr));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const sim::RunMetrics& m = c.m;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"mem_model\": \"%s\", "
                 "\"technique\": \"%s\",\n"
                 "     \"cycles\": %llu, \"ipc\": %.6f, "
                 "\"mem_bytes\": %llu, \"l2_writebacks\": %llu, "
                 "\"energy\": %.6e,\n"
                 "     \"dram\": {\"row_hits\": %llu, \"row_misses\": %llu, "
                 "\"row_conflicts\": %llu, \"row_hit_rate\": %.6f,\n"
                 "              \"activates\": %llu, \"precharges\": %llu, "
                 "\"refreshes\": %llu, \"write_forwards\": %llu},\n"
                 "     \"tlb\": {\"hits\": %llu, \"misses\": %llu},\n"
                 "     \"wall_ms\": %.3f}%s\n",
                 c.name, m.mem_model.c_str(), c.technique.label().c_str(),
                 static_cast<unsigned long long>(m.cycles), m.ipc,
                 static_cast<unsigned long long>(m.mem_bytes),
                 static_cast<unsigned long long>(m.l2_writebacks), m.energy,
                 static_cast<unsigned long long>(m.dram_row_hits),
                 static_cast<unsigned long long>(m.dram_row_misses),
                 static_cast<unsigned long long>(m.dram_row_conflicts),
                 row_hit_rate(m),
                 static_cast<unsigned long long>(m.dram_activates),
                 static_cast<unsigned long long>(m.dram_precharges),
                 static_cast<unsigned long long>(m.dram_refreshes),
                 static_cast<unsigned long long>(m.dram_write_forwards),
                 static_cast<unsigned long long>(m.tlb_hits),
                 static_cast<unsigned long long>(m.tlb_misses), c.wall_ms,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  if (!bench::close_output(f, "bench_memory", out)) return 1;
  std::printf("bench_memory: wrote %s (%zu configs)\n", out, cells.size());
  return 0;
}
