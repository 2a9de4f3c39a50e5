// bench_datapoints — the scaling, memory-side and hierarchy datapoints from
// one fill.
//
// Each sweep writes its machines to the working directory as a datapoint
// file (bench::write_datapoints; CI uploads all three): one row per
// machine, its labels and then every RunMetrics leaf.
//
//   BENCH_scaling.json    FMM on 4 -> 32 cores, snoop bus vs. directory
//                         mesh, baseline and decay 64K, bus and mesh facing
//                         one workload per core count (a paired
//                         comparison). The interesting columns: aggregate
//                         IPC (does the fabric scale?), fabric utilization
//                         (bus_utilization: the bus saturates, the mesh's
//                         bottleneck link does not), memory bandwidth, and
//                         the directory/NoC counters that only exist past
//                         the bus.
//   BENCH_memory.json     mpeg2enc on a 4 MB L2 against the banked DRAM
//                         model (per-core TLBs on) under increasingly
//                         aggressive decay, plus a flat-model reference
//                         that anchors the IPC comparison. The interesting
//                         quantity is the row-buffer hit rate,
//                         dram_row_hits / (dram_row_hits + dram_row_misses
//                         + dram_row_conflicts): decay turn-offs eject dirty
//                         lines in bursts, and those write-backs interleave
//                         with demand reads at the DRAM banks, replacing
//                         streaming row hits with row conflicts.
//   BENCH_hierarchy.json  FMM on 16 cores as {bus-2L, dmesh-2L, dmesh-3L},
//                         baseline vs. decay at every level: how much
//                         off-chip traffic the shared L3 filters (mem_bytes,
//                         l3 hit share), what decay at each level
//                         contributes (per-level turn-offs and
//                         occupations), and the IPC cost of the deeper
//                         hierarchy.
//
// One run_machines call fills all three sweeps, so a machine two of them
// share (the 16-core two-level ones) runs once, and a rerun reads every
// machine from the results cache.
//
// Usage: bench_datapoints   (CDSIM_INSTR=<n> overrides the 120000
//                            instructions/core default; CI uses a small
//                            value: this is a datapoint generator, not a
//                            statistically rigorous benchmark harness)

#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "cdsim/sim/experiment.hpp"
#include "cdsim/workload/benchmarks.hpp"
#include "figure_common.hpp"

using namespace cdsim;

namespace {

/// One datapoint sweep: its machines with the labels of their rows, and the
/// file and stdout lines it makes of their results.
struct Sweep {
  const char* tool;  ///< The file's "bench" name; prefixes its stdout lines.
  const char* path;
  std::string banner;
  std::vector<bench::JsonField> header;
  std::vector<sim::MachineCell> cells;
  std::vector<std::vector<bench::JsonField>> labels;
  /// Prints the summary line of cell `i`.
  void (*summary)(std::size_t i, const sim::MachineCell& cell,
                  const sim::RunMetrics& m);
};

constexpr decay::DecayConfig kDecay64K{decay::Technique::kDecay, 64 * 1024, 4};
/// The techniques of the scaling and hierarchy sweeps.
const decay::DecayConfig kTechniques[] = {sim::baseline_config(), kDecay64K};

/// FMM (sharing-heavy scientific code) on 4 -> 32 cores, bus vs. mesh.
Sweep scaling(std::uint64_t instr) {
  Sweep s{
      "bench_scaling", "BENCH_scaling.json",
      "FMM, " + std::to_string(instr) +
          " instr/core, 4->32 cores, bus vs. directory mesh",
      {{"benchmark", "FMM"}, {"instructions_per_core", instr}}, {}, {},
      [](std::size_t, const sim::MachineCell& cell, const sim::RunMetrics& m) {
        std::printf("  %2u cores %-5s %-9s ipc=%6.3f util=%5.3f bw=%6.3f "
                    "energy=%.3e\n",
                    cell.config.num_cores, m.topology.c_str(),
                    m.technique.c_str(), m.ipc, m.bus_utilization,
                    m.mem_bandwidth, m.energy);
      }};
  for (const std::uint32_t cores : {4u, 8u, 16u, 32u}) {
    for (const noc::Topology topo :
         {noc::Topology::kSnoopBus, noc::Topology::kDirectoryMesh}) {
      for (const decay::DecayConfig& tech : kTechniques) {
        sim::SystemConfig cfg = sim::make_system_config(cores * MiB, tech);
        cfg.num_cores = cores;
        cfg.topology = topo;
        cfg.instructions_per_core = instr;
        s.cells.push_back({cfg, &workload::benchmark_by_name("FMM")});
        s.labels.push_back({{"cores", cores}});
      }
    }
  }
  return s;
}

constexpr std::uint64_t kMemoryL2MiB = 4;

struct MemoryShape {
  const char* name;
  mem::MemoryModel model;
  decay::DecayConfig technique;
};

const MemoryShape kMemoryShapes[] = {
    {"flat/decay64K", mem::MemoryModel::kFlat, kDecay64K},
    {"dram/baseline", mem::MemoryModel::kDram, sim::baseline_config()},
    {"dram/decay256K", mem::MemoryModel::kDram,
     {decay::Technique::kDecay, 256 * 1024, 4}},
    {"dram/decay64K", mem::MemoryModel::kDram, kDecay64K},
    {"dram/decay16K", mem::MemoryModel::kDram,
     {decay::Technique::kDecay, 16 * 1024, 4}},
};

/// mpeg2enc (streaming + working set): a flat-memory reference, then DRAM
/// under increasingly aggressive decay.
Sweep memory(std::uint64_t instr) {
  Sweep s{"bench_memory", "BENCH_memory.json",
          "mpeg2enc, " + std::to_string(kMemoryL2MiB) + " MiB L2, " +
              std::to_string(instr) +
              " instr/core, flat reference + DRAM x decay aggressiveness",
          {{"benchmark", "mpeg2enc"},
           {"total_l2_mib", kMemoryL2MiB},
           {"instructions_per_core", instr}},
          {}, {},
          [](std::size_t i, const sim::MachineCell&, const sim::RunMetrics& m) {
            const auto rows = static_cast<double>(
                m.dram_row_hits + m.dram_row_misses + m.dram_row_conflicts);
            std::printf(
                "  %-14s ipc=%6.3f mem=%8llu B rowhit%%=%5.1f "
                "conflicts=%7llu wb=%6llu fwd=%4llu\n",
                kMemoryShapes[i].name, m.ipc,
                static_cast<unsigned long long>(m.mem_bytes),
                rows > 0.0 ? 100.0 * static_cast<double>(m.dram_row_hits) / rows
                           : 0.0,
                static_cast<unsigned long long>(m.dram_row_conflicts),
                static_cast<unsigned long long>(m.l2_writebacks),
                static_cast<unsigned long long>(m.dram_write_forwards));
          }};
  for (const MemoryShape& shape : kMemoryShapes) {
    sim::SystemConfig cfg =
        sim::make_system_config(kMemoryL2MiB * MiB, shape.technique);
    cfg.instructions_per_core = instr;
    cfg.mem.model = shape.model;
    cfg.mem.tlb.enabled = shape.model == mem::MemoryModel::kDram;
    // One channel: with the default fine-grained channel interleave the
    // cores' streams already shred row locality and the decay effect is
    // buried; a single channel keeps the baseline row-hit rate high so
    // the write-back bursts' damage is measurable.
    cfg.mem.dram.channels = 1;
    s.cells.push_back({cfg, &workload::benchmark_by_name("mpeg2enc")});
    s.labels.push_back({{"name", shape.name}});
  }
  return s;
}

constexpr std::uint32_t kHierarchyCores = 16;

struct HierarchyShape {
  const char* name;
  noc::Topology topology;
  sim::Hierarchy hierarchy;
};

constexpr HierarchyShape kHierarchyShapes[] = {
    {"bus-2L", noc::Topology::kSnoopBus, sim::Hierarchy::kTwoLevel},
    {"dmesh-2L", noc::Topology::kDirectoryMesh, sim::Hierarchy::kTwoLevel},
    {"dmesh-3L", noc::Topology::kDirectoryMesh, sim::Hierarchy::kThreeLevel},
};

/// FMM on 16 cores per hierarchy shape, baseline and decay 64K.
Sweep hierarchy(std::uint64_t instr) {
  Sweep s{"bench_hierarchy", "BENCH_hierarchy.json",
          "FMM, " + std::to_string(kHierarchyCores) + " cores, " +
              std::to_string(instr) +
              " instr/core, {bus-2L, dmesh-2L, dmesh-3L}",
          {{"benchmark", "FMM"},
           {"cores", kHierarchyCores},
           {"instructions_per_core", instr}},
          {}, {},
          [](std::size_t i, const sim::MachineCell&, const sim::RunMetrics& m) {
            std::printf(
                "  %-8s %-9s ipc=%6.3f mem=%8llu B l3hit%%=%5.1f "
                "toffs=[%llu,%llu,%llu]\n",
                kHierarchyShapes[i / std::size(kTechniques)].name,
                m.technique.c_str(), m.ipc,
                static_cast<unsigned long long>(m.mem_bytes),
                m.l3.accesses ? 100.0 * static_cast<double>(m.l3.hits) /
                                    static_cast<double>(m.l3.accesses)
                              : 0.0,
                static_cast<unsigned long long>(m.l1.decay_turnoffs),
                static_cast<unsigned long long>(m.l2.decay_turnoffs),
                static_cast<unsigned long long>(m.l3.decay_turnoffs));
          }};
  for (const HierarchyShape& shape : kHierarchyShapes) {
    for (const decay::DecayConfig& tech : kTechniques) {
      // The bus machine caps out at 4 cores of scaling interest but runs
      // 16 here too so every shape faces the identical workload grid.
      sim::SystemConfig cfg =
          sim::make_system_config(kHierarchyCores * MiB, tech);
      cfg.num_cores = kHierarchyCores;
      cfg.topology = shape.topology;
      cfg.instructions_per_core = instr;
      // On three levels the technique decays at every level.
      sim::set_hierarchy(cfg, shape.hierarchy);
      s.cells.push_back({cfg, &workload::benchmark_by_name("FMM")});
      s.labels.push_back({{"shape", shape.name}});
    }
  }
  return s;
}

}  // namespace

int main(int argc, char**) try {
  if (argc > 1) {
    std::fprintf(stderr,
                 "usage: bench_datapoints   (writes BENCH_scaling.json, "
                 "BENCH_memory.json and BENCH_hierarchy.json to the working "
                 "directory)\n");
    return 2;
  }
  sim::ExperimentRunner runner(120000);
  const std::uint64_t instr = runner.instructions_per_core();
  const Sweep sweeps[] = {scaling(instr), memory(instr), hierarchy(instr)};

  std::vector<sim::MachineCell> cells;
  for (const Sweep& s : sweeps) {
    cells.insert(cells.end(), s.cells.begin(), s.cells.end());
  }
  const sim::MachineResults runs = runner.run_machines(cells);
  bench::report_sweep(runs.stats);

  auto next = runs.metrics.begin();
  for (const Sweep& s : sweeps) {
    const std::vector<sim::RunMetrics> results(next, next + s.cells.size());
    next += s.cells.size();
    std::printf("%s: %s\n", s.tool, s.banner.c_str());
    for (std::size_t i = 0; i < s.cells.size(); ++i) {
      s.summary(i, s.cells[i], results[i]);
    }
    if (!bench::write_datapoints(s.tool, s.path, s.header, s.labels,
                                 results)) {
      return 1;
    }
    std::printf("%s: wrote %s (%zu configs)\n", s.tool, s.path,
                s.cells.size());
  }
  return 0;
} catch (const std::invalid_argument& e) {
  // The runner rejects a malformed CDSIM_INSTR or an empty CDSIM_CACHE_FILE.
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
