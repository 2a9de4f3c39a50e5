// bench_scaling — the first many-core datapoint: 4 -> 32 cores, snoop bus
// vs. directory mesh, baseline and decay, one shared workload per cell
// pair so bus and mesh face identical streams (paired comparison).
//
// Emits BENCH_scaling.json (CI uploads it as an artifact): one row per
// machine, its core count and then every RunMetrics leaf. The interesting
// columns: aggregate IPC (does the fabric scale?), fabric utilization
// (bus_utilization: the bus saturates, the mesh's bottleneck link does
// not), memory bandwidth, and the directory/NoC counters that only exist
// past the bus. The machines fill through the ExperimentRunner, so a rerun
// reads them from the results cache.
//
// Usage: bench_scaling [output.json]   (default: BENCH_scaling.json)
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

constexpr std::uint32_t kCoreCounts[] = {4, 8, 16, 32};
constexpr noc::Topology kTopologies[] = {noc::Topology::kSnoopBus,
                                         noc::Topology::kDirectoryMesh};
constexpr const char* kBenchmark = "FMM";  // sharing-heavy scientific code

}  // namespace

int main(int argc, char** argv) try {
  // Read first, so a malformed CDSIM_INSTR exits 1 before the runner.
  const auto env_instr =
      sim::detail::instructions_from_env(120000, "bench_scaling");
  if (!env_instr) return 1;
  sim::ExperimentRunner runner(*env_instr);
  const std::uint64_t instr = runner.instructions_per_core();

  const std::vector<decay::DecayConfig> techniques = {
      sim::baseline_config(),
      decay::DecayConfig{decay::Technique::kDecay, 64 * 1024, 4},
  };

  const workload::Benchmark& bench = workload::benchmark_by_name(kBenchmark);
  std::printf("bench_scaling: %s, %llu instr/core, 4->32 cores, "
              "bus vs. directory mesh\n",
              kBenchmark, static_cast<unsigned long long>(instr));

  std::vector<sim::MachineCell> cells;
  std::vector<std::vector<bench::JsonField>> labels;
  for (const std::uint32_t cores : kCoreCounts) {
    for (const noc::Topology topo : kTopologies) {
      for (const decay::DecayConfig& tech : techniques) {
        sim::SystemConfig cfg = sim::make_system_config(
            static_cast<std::uint64_t>(cores) * MiB, tech);
        cfg.num_cores = cores;
        cfg.topology = topo;
        cfg.instructions_per_core = instr;
        cells.push_back({cfg, &bench});
        labels.push_back({{"cores", cores}});
      }
    }
  }
  const sim::MachineResults runs = runner.run_machines(cells);
  bench::report_sweep(runs.stats);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const sim::RunMetrics& m = runs.metrics[i];
    std::printf("  %2u cores %-5s %-9s ipc=%6.3f util=%5.3f bw=%6.3f "
                "energy=%.3e\n",
                cells[i].config.num_cores, m.topology.c_str(),
                m.technique.c_str(), m.ipc, m.bus_utilization,
                m.mem_bandwidth, m.energy);
  }

  const char* out = argc > 1 ? argv[1] : "BENCH_scaling.json";
  if (!bench::write_datapoints(
          "bench_scaling", out,
          {{"benchmark", kBenchmark}, {"instructions_per_core", instr}},
          labels, runs.metrics)) {
    return 1;
  }
  std::printf("bench_scaling: wrote %s (%zu configs)\n", out, cells.size());
  return 0;
} catch (const std::invalid_argument& e) {
  // The runner rejects a malformed CDSIM_INSTR or an empty CDSIM_CACHE_FILE.
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
