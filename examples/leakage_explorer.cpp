// leakage_explorer — energy/performance trade-off exploration.
//
// For one benchmark and cache size, sweeps the decay interval across both
// decay flavours and prints the energy-reduction / IPC-loss frontier plus a
// simple energy-delay product score — the analysis behind the paper's
// conclusion that "larger decay time might be a better choice from the
// Energy-Delay point of view" (§VI).
//
//   $ ./leakage_explorer [benchmark] [total_l2_mb] [instructions_per_core]
//                        [--topology=bus|dmesh] [--hierarchy=2|3] [--cores=N]
//
// On the default bus machine results go through the shared ExperimentRunner
// disk cache. The topology/hierarchy flags explore the machine family
// instead — the directory mesh and the three-level hierarchy (private L2s
// behind the shared home-banked L3, the technique active at every level);
// those shapes are keyed outside the figure cache and simulate directly.
// CDSIM_INSTR overrides instructions_per_core on every machine.

#include <cstdio>
#include <iostream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "cdsim/common/table.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cli_flags.hpp"

using namespace cdsim;

int main(int argc, char** argv) {
  std::string bench_name = "VOLREND";
  std::uint64_t size_mb = 4;
  std::uint64_t instr = 1500000;

  examples::MachineFlags mf;
  examples::FlagParser parser;
  bool bad_positional = false;
  // A positive decimal integer no larger than `limit`, or a usage error.
  const auto number = [&bad_positional](const std::string& arg,
                                        std::uint64_t limit,
                                        std::uint64_t& out) {
    const auto v = sim::detail::parse_positive_u64(arg.c_str());
    if (!v || *v > limit) {
      std::fprintf(stderr, "invalid number \"%s\"\n", arg.c_str());
      bad_positional = true;
      return;
    }
    out = *v;
  };
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  parser.machine(&mf).on_positional([&](int pos, const std::string& arg) {
    switch (pos) {
      case 0: bench_name = arg; break;
      case 1: number(arg, kMax / MiB, size_mb); break;  // no wrap in bytes
      case 2: number(arg, kMax, instr); break;
      default:
        std::fprintf(stderr, "unexpected argument \"%s\"\n", arg.c_str());
        bad_positional = true;
        break;
    }
  });
  const auto usage = [argv] {
    std::fprintf(stderr,
                 "usage: %s [benchmark] [total_l2_mb] "
                 "[instructions_per_core] [--topology=bus|dmesh] "
                 "[--hierarchy=2|3] [--cores=N]\n",
                 argv[0]);
    return 2;
  };
  if (!parser.parse(argc, argv) || bad_positional) return usage();
  const noc::Topology topology = mf.topology;
  const sim::Hierarchy hierarchy = mf.hierarchy;
  const bool default_machine = !mf.any_set;
  const std::uint32_t cores = mf.effective_cores();

  const std::uint64_t size = size_mb * MiB;
  // The runner applies the CDSIM_INSTR override, so every path below takes
  // its budget from it.
  sim::ExperimentRunner runner(instr);

  // The machine one technique runs on. The default bus machine is the
  // figure grid's (the ExperimentRunner builds it); the family shapes
  // override the fabric, depth and core count.
  const auto machine = [&](const decay::DecayConfig& d) {
    sim::SystemConfig cfg = sim::make_system_config(size, d);
    cfg.instructions_per_core = runner.instructions_per_core();
    if (default_machine) return cfg;
    cfg.topology = topology;
    cfg.hierarchy = hierarchy;
    cfg.num_cores = cores;
    if (hierarchy == sim::Hierarchy::kThreeLevel) {
      cfg.total_l3_bytes = 4 * size;
      cfg.l1_decay = cfg.decay;   // the technique runs at every level
      cfg.l3_decay = cfg.decay;
    }
    return cfg;
  };
  const workload::Benchmark* bench = nullptr;
  try {
    bench = &workload::benchmark_by_name(bench_name);
    sim::validate_system_config(machine(sim::baseline_config()));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }

  std::printf(
      "leakage_explorer: %s, %lluMB total L2, %s, %u cores, %s hierarchy, "
      "%llu instr/core\n\n",
      bench->config.name.c_str(), static_cast<unsigned long long>(size_mb),
      std::string(noc::to_string(topology)).c_str(), cores,
      std::string(sim::to_string(hierarchy)).c_str(),
      static_cast<unsigned long long>(runner.instructions_per_core()));

  // The frontier: protocol, then both decay flavours at four intervals.
  std::vector<decay::DecayConfig> techs{{decay::Technique::kProtocol, 0, 4}};
  for (const auto tech :
       {decay::Technique::kDecay, decay::Technique::kSelectiveDecay}) {
    for (const Cycle dt :
         {512u * 1024u, 256u * 1024u, 128u * 1024u, 64u * 1024u}) {
      techs.push_back({tech, dt, 4});
    }
  }

  // Runs one technique on the selected machine. The default bus machine
  // goes through the ExperimentRunner disk cache, all of it filled by one
  // run_grid call (the baseline and protocol share a run); the family
  // shapes are simulated directly (their configs are not part of the
  // figure cache's key space).
  if (default_machine) runner.run_grid({*bench}, {size}, techs);
  std::map<std::string, sim::RunMetrics> direct;
  const auto run_one =
      [&](const decay::DecayConfig& d) -> const sim::RunMetrics& {
    if (default_machine) return runner.run(*bench, size, d);
    const std::string key = d.label();
    const auto it = direct.find(key);
    if (it != direct.end()) return it->second;
    return direct.emplace(key, sim::run_config(machine(d), *bench))
        .first->second;
  };

  const sim::RunMetrics& baseline = run_one(sim::baseline_config());

  TextTable t;
  t.row()
      .cell("technique")
      .cell("energy reduction")
      .cell("IPC loss")
      .cell("relative ED product");

  double best_ed = 1e18;
  std::string best;
  for (const decay::DecayConfig& d : techs) {
    const sim::RelativeMetrics r = relative_to(baseline, run_one(d));
    // ED relative to baseline: (1 - saving) * (1 / (1 - ipc_loss)).
    const double ed = (1.0 - r.energy_reduction) / (1.0 - r.ipc_loss);
    t.row()
        .cell(d.label())
        .pct(r.energy_reduction)
        .pct(r.ipc_loss)
        .cell(ed, 3);
    if (ed < best_ed) {
      best_ed = ed;
      best = d.label();
    }
  }
  t.print(std::cout);
  std::printf("\nBest Energy-Delay: %s (ED = %.3f of baseline)\n",
              best.c_str(), best_ed);
  return 0;
}
