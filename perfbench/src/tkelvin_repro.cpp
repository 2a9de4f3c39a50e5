// Reproduces the always-on-L3 abort on the mesh16-dram machine: with the
// L3 left ungated, the run dies on CDSIM_ASSERT(t_kelvin > 0.0) in
// power/leakage.hpp. This is why the benchmark keeps decay on at L3.
//
// Usage: tkelvin_repro [baseline|l2-decay] [instr_per_core]
//   baseline   always-on at every level (default)
//   l2-decay   decay64K at L2 only
// Defaults to 500000 instr/core, where the abort shows; 100000 runs clean.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/workload/benchmarks.hpp"

int main(int argc, char** argv) {
  using namespace cdsim;
  const std::string mode = argc > 1 ? argv[1] : "baseline";
  const std::uint64_t instr =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 500'000;
  if ((mode != "baseline" && mode != "l2-decay") || instr == 0) {
    std::fprintf(stderr, "usage: tkelvin_repro [baseline|l2-decay] [instr]\n");
    return 2;
  }
  const decay::DecayConfig l2 =
      mode == "baseline"
          ? sim::baseline_config()
          : decay::DecayConfig{decay::Technique::kDecay, 64 * 1024, 4};
  const workload::Benchmark& bench = workload::benchmark_by_name("mpeg2enc");
  sim::SystemConfig cfg = sim::make_system_config(16 * MiB, l2);
  cfg.num_cores = 16;
  cfg.topology = noc::Topology::kDirectoryMesh;
  cfg.hierarchy = sim::Hierarchy::kThreeLevel;
  cfg.total_l3_bytes = 64 * MiB;
  cfg.protocol = coherence::Protocol::kMoesi;
  cfg.mem.model = mem::MemoryModel::kDram;
  cfg.mem.tlb.enabled = true;
  cfg.instructions_per_core = instr;
  std::printf("mesh16-dram, mpeg2enc, %s, L1/L3 always on, %llu instr/core\n",
              mode.c_str(), static_cast<unsigned long long>(instr));
  std::fflush(stdout);
  const sim::RunMetrics m = sim::run_config(cfg, bench);
  std::printf("finished: %llu cycles, avg L2 temp %.1f K\n",
              static_cast<unsigned long long>(m.cycles), m.avg_l2_temp_kelvin);
  return 0;
}
