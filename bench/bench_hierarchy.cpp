// bench_hierarchy — the hierarchy-family datapoint: the same cores and
// workload run as {two-level bus, two-level dmesh, three-level dmesh},
// baseline vs. decay-at-every-level, with per-level hit/miss/turn-off
// attribution in the output. The interesting columns: how much off-chip
// traffic the shared L3 filters (mem_bytes, l3 hit share), what decay at
// each level contributes (per-level turn-offs and occupations), and the
// IPC cost of the deeper hierarchy.
//
// Emits BENCH_hierarchy.json (CI uploads it as an artifact).
//
// Usage: bench_hierarchy [output.json]   (default: BENCH_hierarchy.json)
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

struct Cell {
  const Shape* shape;
  decay::DecayConfig technique;
  sim::RunMetrics m;
  double wall_ms = 0.0;
};

void print_level_json(std::FILE* f, const char* name,
                      const sim::LevelMetrics& l, const char* tail) {
  std::fprintf(f,
               "     \"%s\": {\"accesses\": %llu, \"hits\": %llu, "
               "\"misses\": %llu, \"decay_turnoffs\": %llu, "
               "\"decay_induced_misses\": %llu, \"writebacks\": %llu, "
               "\"occupation\": %.6f}%s\n",
               name, static_cast<unsigned long long>(l.accesses),
               static_cast<unsigned long long>(l.hits),
               static_cast<unsigned long long>(l.misses),
               static_cast<unsigned long long>(l.decay_turnoffs),
               static_cast<unsigned long long>(l.decay_induced_misses),
               static_cast<unsigned long long>(l.writebacks), l.occupation,
               tail);
}

}  // namespace

int main(int argc, char** argv) {
  const auto env_instr =
      sim::detail::instructions_from_env(120000, "bench_hierarchy");
  if (!env_instr) return 1;
  const std::uint64_t instr = *env_instr;

  const std::vector<decay::DecayConfig> techniques = {
      sim::baseline_config(),
      decay::DecayConfig{decay::Technique::kDecay, 64 * 1024, 4},
  };

  const workload::Benchmark& bench = workload::benchmark_by_name(kBenchmark);
  std::vector<Cell> cells;
  std::printf("bench_hierarchy: %s, %u cores, %llu instr/core, "
              "{bus-2L, dmesh-2L, dmesh-3L}\n",
              kBenchmark, kCores, static_cast<unsigned long long>(instr));

  for (const Shape& shape : kShapes) {
    for (const decay::DecayConfig& tech : techniques) {
      // The bus machine caps out at 4 cores of scaling interest but runs
      // 16 here too so every shape faces the identical workload grid.
      sim::SystemConfig cfg = sim::make_system_config(
          static_cast<std::uint64_t>(kCores) * MiB, tech);
      cfg.num_cores = kCores;
      cfg.topology = shape.topology;
      cfg.hierarchy = shape.hierarchy;
      cfg.instructions_per_core = instr;
      if (shape.hierarchy == sim::Hierarchy::kThreeLevel) {
        cfg.total_l3_bytes = 4 * cfg.total_l2_bytes;
        // Decay at every level: the technique runs in the L1 front ends
        // and the shared L3 banks too.
        cfg.l1_decay = cfg.decay;
        cfg.l3_decay = cfg.decay;
      }

      const auto t0 = std::chrono::steady_clock::now();
      Cell cell{&shape, tech, sim::run_config(cfg, bench), 0.0};
      cell.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
      std::printf(
          "  %-8s %-9s ipc=%6.3f mem=%8llu B l3hit%%=%5.1f "
          "toffs=[%llu,%llu,%llu]  (%.0f ms)\n",
          shape.name, tech.label().c_str(), cell.m.ipc,
          static_cast<unsigned long long>(cell.m.mem_bytes),
          cell.m.l3.accesses
              ? 100.0 * static_cast<double>(cell.m.l3.hits) /
                    static_cast<double>(cell.m.l3.accesses)
              : 0.0,
          static_cast<unsigned long long>(cell.m.l1.decay_turnoffs),
          static_cast<unsigned long long>(cell.m.l2.decay_turnoffs),
          static_cast<unsigned long long>(cell.m.l3.decay_turnoffs),
          cell.wall_ms);
      cells.push_back(std::move(cell));
    }
  }

  const char* out = argc > 1 ? argv[1] : "BENCH_hierarchy.json";
  std::FILE* f = std::fopen(out, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_hierarchy: cannot write %s\n", out);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_hierarchy\",\n");
  std::fprintf(f, "  \"version\": \"%s\",\n", version());
  std::fprintf(f, "  \"benchmark\": \"%s\",\n  \"cores\": %u,\n", kBenchmark,
               kCores);
  std::fprintf(f, "  \"instructions_per_core\": %llu,\n  \"configs\": [\n",
               static_cast<unsigned long long>(instr));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const sim::RunMetrics& m = c.m;
    std::fprintf(f,
                 "    {\"shape\": \"%s\", \"topology\": \"%s\", "
                 "\"hierarchy\": \"%s\", \"technique\": \"%s\",\n"
                 "     \"cycles\": %llu, \"ipc\": %.6f, "
                 "\"mem_bytes\": %llu, \"mem_bandwidth\": %.6f, "
                 "\"energy\": %.6e,\n"
                 "     \"fabric_utilization\": %.6f, "
                 "\"total_l3_bytes\": %llu,\n",
                 c.shape->name,
                 std::string(noc::to_string(c.shape->topology)).c_str(),
                 m.hierarchy.c_str(), c.technique.label().c_str(),
                 static_cast<unsigned long long>(m.cycles), m.ipc,
                 static_cast<unsigned long long>(m.mem_bytes),
                 m.mem_bandwidth, m.energy, m.bus_utilization,
                 static_cast<unsigned long long>(m.total_l3_bytes));
    print_level_json(f, "l1", m.l1, ",");
    print_level_json(f, "l2", m.l2, ",");
    print_level_json(f, "l3", m.l3, ",");
    std::fprintf(f, "     \"wall_ms\": %.3f}%s\n", c.wall_ms,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  if (!bench::close_output(f, "bench_hierarchy", out)) return 1;
  std::printf("bench_hierarchy: wrote %s (%zu configs)\n", out,
              cells.size());
  return 0;
}
