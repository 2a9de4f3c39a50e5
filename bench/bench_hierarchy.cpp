// bench_hierarchy — the hierarchy-family datapoint: the same cores and
// workload run as {two-level bus, two-level dmesh, three-level dmesh},
// baseline vs. decay-at-every-level, with per-level hit/miss/turn-off
// attribution in the output. The interesting columns: how much off-chip
// traffic the shared L3 filters (mem_bytes, l3 hit share), what decay at
// each level contributes (per-level turn-offs and occupations), and the
// IPC cost of the deeper hierarchy.
//
// Emits BENCH_hierarchy.json (CI uploads it as an artifact): one row per
// machine, its shape and then every RunMetrics leaf (the per-level blocks
// as "l1.accesses", ...). The machines fill through the ExperimentRunner,
// so a rerun reads them from the results cache.
//
// Usage: bench_hierarchy [output.json]   (default: BENCH_hierarchy.json)
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

constexpr const char* kBenchmark = "FMM";  // sharing-heavy scientific code
constexpr std::uint32_t kCores = 16;

struct Shape {
  const char* name;
  noc::Topology topology;
  sim::Hierarchy hierarchy;
};

constexpr Shape kShapes[] = {
    {"bus-2L", noc::Topology::kSnoopBus, sim::Hierarchy::kTwoLevel},
    {"dmesh-2L", noc::Topology::kDirectoryMesh, sim::Hierarchy::kTwoLevel},
    {"dmesh-3L", noc::Topology::kDirectoryMesh, sim::Hierarchy::kThreeLevel},
};

}  // namespace

int main(int argc, char** argv) try {
  sim::ExperimentRunner runner(120000);
  const std::uint64_t instr = runner.instructions_per_core();

  const std::vector<decay::DecayConfig> techniques = {
      sim::baseline_config(),
      decay::DecayConfig{decay::Technique::kDecay, 64 * 1024, 4},
  };

  const workload::Benchmark& bench = workload::benchmark_by_name(kBenchmark);
  std::printf("bench_hierarchy: %s, %u cores, %llu instr/core, "
              "{bus-2L, dmesh-2L, dmesh-3L}\n",
              kBenchmark, kCores, static_cast<unsigned long long>(instr));

  std::vector<sim::MachineCell> cells;
  std::vector<std::vector<bench::JsonField>> labels;
  for (const Shape& shape : kShapes) {
    for (const decay::DecayConfig& tech : techniques) {
      // The bus machine caps out at 4 cores of scaling interest but runs
      // 16 here too so every shape faces the identical workload grid.
      sim::SystemConfig cfg = sim::make_system_config(
          static_cast<std::uint64_t>(kCores) * MiB, tech);
      cfg.num_cores = kCores;
      cfg.topology = shape.topology;
      cfg.instructions_per_core = instr;
      // On three levels the technique decays at every level.
      sim::set_hierarchy(cfg, shape.hierarchy);
      cells.push_back({cfg, &bench});
      labels.push_back({{"shape", shape.name}});
    }
  }
  const sim::MachineResults runs = runner.run_machines(cells);
  bench::report_sweep(runs.stats);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const sim::RunMetrics& m = runs.metrics[i];
    std::printf(
        "  %-8s %-9s ipc=%6.3f mem=%8llu B l3hit%%=%5.1f "
        "toffs=[%llu,%llu,%llu]\n",
        kShapes[i / techniques.size()].name, m.technique.c_str(), m.ipc,
        static_cast<unsigned long long>(m.mem_bytes),
        m.l3.accesses ? 100.0 * static_cast<double>(m.l3.hits) /
                            static_cast<double>(m.l3.accesses)
                      : 0.0,
        static_cast<unsigned long long>(m.l1.decay_turnoffs),
        static_cast<unsigned long long>(m.l2.decay_turnoffs),
        static_cast<unsigned long long>(m.l3.decay_turnoffs));
  }

  const char* out = argc > 1 ? argv[1] : "BENCH_hierarchy.json";
  if (!bench::write_datapoints("bench_hierarchy", out,
                               {{"benchmark", kBenchmark},
                                {"cores", kCores},
                                {"instructions_per_core", instr}},
                               labels, runs.metrics)) {
    return 1;
  }
  std::printf("bench_hierarchy: wrote %s (%zu configs)\n", out,
              cells.size());
  return 0;
} catch (const std::invalid_argument& e) {
  // The runner rejects a malformed CDSIM_INSTR or an empty CDSIM_CACHE_FILE.
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
