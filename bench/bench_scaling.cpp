// bench_scaling — the first many-core datapoint: 4 -> 32 cores, snoop bus
// vs. directory mesh, baseline and decay, one shared workload per cell
// pair so bus and mesh face identical streams (paired comparison).
//
// Emits BENCH_scaling.json (CI uploads it as an artifact). The interesting
// columns: aggregate IPC (does the fabric scale?), fabric utilization (the
// bus saturates, the mesh's bottleneck link does not), memory bandwidth,
// and the directory/NoC counters that only exist past the bus.
//
// Usage: bench_scaling [output.json]   (default: BENCH_scaling.json)
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

constexpr std::uint32_t kCoreCounts[] = {4, 8, 16, 32};
constexpr noc::Topology kTopologies[] = {noc::Topology::kSnoopBus,
                                         noc::Topology::kDirectoryMesh};
constexpr const char* kBenchmark = "FMM";  // sharing-heavy scientific code

struct Cell {
  std::uint32_t cores;
  noc::Topology topology;
  decay::DecayConfig technique;
  sim::RunMetrics m;
  double wall_ms = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto env_instr =
      sim::detail::instructions_from_env(120000, "bench_scaling");
  if (!env_instr) return 1;
  const std::uint64_t instr = *env_instr;

  const std::vector<decay::DecayConfig> techniques = {
      sim::baseline_config(),
      decay::DecayConfig{decay::Technique::kDecay, 64 * 1024, 4},
  };

  const workload::Benchmark& bench = workload::benchmark_by_name(kBenchmark);
  std::vector<Cell> cells;
  std::printf("bench_scaling: %s, %llu instr/core, 4->32 cores, "
              "bus vs. directory mesh\n",
              kBenchmark, static_cast<unsigned long long>(instr));

  for (const std::uint32_t cores : kCoreCounts) {
    for (const noc::Topology topo : kTopologies) {
      for (const decay::DecayConfig& tech : techniques) {
        sim::SystemConfig cfg = sim::make_system_config(
            static_cast<std::uint64_t>(cores) * MiB, tech);
        cfg.num_cores = cores;
        cfg.topology = topo;
        cfg.instructions_per_core = instr;

        const auto t0 = std::chrono::steady_clock::now();
        Cell cell{cores, topo, tech, sim::run_config(cfg, bench), 0.0};
        cell.wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
        std::printf(
            "  %2u cores %-5s %-9s ipc=%6.3f util=%5.3f bw=%6.3f "
            "energy=%.3e  (%.0f ms)\n",
            cores, std::string(noc::to_string(topo)).c_str(),
            tech.label().c_str(), cell.m.ipc, cell.m.bus_utilization,
            cell.m.mem_bandwidth, cell.m.energy, cell.wall_ms);
        cells.push_back(std::move(cell));
      }
    }
  }

  const char* out = argc > 1 ? argv[1] : "BENCH_scaling.json";
  std::FILE* f = std::fopen(out, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_scaling: cannot write %s\n", out);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_scaling\",\n");
  std::fprintf(f, "  \"version\": \"%s\",\n", version());
  std::fprintf(f, "  \"benchmark\": \"%s\",\n", kBenchmark);
  std::fprintf(f, "  \"instructions_per_core\": %llu,\n  \"configs\": [\n",
               static_cast<unsigned long long>(instr));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const sim::RunMetrics& m = c.m;
    std::fprintf(f,
                 "    {\"cores\": %u, \"topology\": \"%s\", "
                 "\"technique\": \"%s\",\n"
                 "     \"cycles\": %llu, \"instructions\": %llu, "
                 "\"ipc\": %.6f, \"l2_miss_rate\": %.6f,\n"
                 "     \"l2_occupation\": %.6f, "
                 "\"fabric_utilization\": %.6f, \"mem_bandwidth\": %.6f,\n"
                 "     \"energy\": %.6e, \"noc_flit_hops\": %llu, "
                 "\"noc_avg_packet_latency\": %.3f,\n"
                 "     \"dir_directed_snoops\": %llu, "
                 "\"dir_recalls\": %llu, \"dir_deferrals\": %llu, "
                 "\"wall_ms\": %.3f}%s\n",
                 c.cores, std::string(noc::to_string(c.topology)).c_str(),
                 c.technique.label().c_str(),
                 static_cast<unsigned long long>(m.cycles),
                 static_cast<unsigned long long>(m.instructions), m.ipc,
                 m.l2_miss_rate, m.l2_occupation, m.bus_utilization,
                 m.mem_bandwidth, m.energy,
                 static_cast<unsigned long long>(m.noc_flit_hops),
                 m.noc_avg_packet_latency,
                 static_cast<unsigned long long>(m.dir_directed_snoops),
                 static_cast<unsigned long long>(m.dir_recalls),
                 static_cast<unsigned long long>(m.dir_deferrals), c.wall_ms,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  if (!bench::close_output(f, "bench_scaling", out)) return 1;
  std::printf("bench_scaling: wrote %s (%zu configs)\n", out, cells.size());
  return 0;
}
